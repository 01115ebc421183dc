"""Listen/accept queue occupancy sampling (Figure 10)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from repro.metrics.series import GaugeSeries
from repro.sim.engine import Engine
from repro.sim.process import PeriodicProcess
from repro.tcp.listener import ListenSocket

if TYPE_CHECKING:
    import numpy as np


class QueueSampler:
    """Samples the two queue depths of a listener every *interval*."""

    def __init__(self, engine: Engine, listener: ListenSocket,
                 interval: float = 0.5) -> None:
        self.engine = engine
        self.listener = listener
        self.listen_depth = GaugeSeries()
        self.accept_depth = GaugeSeries()
        self._process = PeriodicProcess(engine, self._sample,
                                        interval=interval)

    def start(self, delay: float = 0.0) -> None:
        self._process.start(delay)

    def stop(self) -> None:
        self._process.stop()

    def _sample(self) -> None:
        now = self.engine.now
        self.listen_depth.sample(now, len(self.listener.listen_queue))
        self.accept_depth.sample(now, len(self.listener.accept_queue))

    def listen_series(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.listen_depth.arrays()

    def accept_series(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.accept_depth.arrays()
