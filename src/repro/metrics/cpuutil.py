"""CPU-utilisation sampling (Figure 9).

Periodically reads each host CPU's exact cumulative busy time (see
:class:`repro.hosts.host.CPUResource`) and differentiates it into per-bin
utilisation percentages.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Sequence, Tuple

from repro.metrics.series import GaugeSeries
from repro.sim.engine import Engine
from repro.sim.process import PeriodicProcess

if TYPE_CHECKING:
    import numpy as np


class CPUUtilizationSampler:
    """Samples busy-fraction (%) of a set of hosts every *interval*."""

    def __init__(self, engine: Engine, hosts: Sequence,
                 interval: float = 1.0) -> None:
        self.engine = engine
        self.hosts = list(hosts)
        self.interval = interval
        self.series: Dict[str, GaugeSeries] = {
            host.name: GaugeSeries() for host in self.hosts
        }
        self._last_busy: Dict[str, float] = {
            host.name: 0.0 for host in self.hosts
        }
        self._process = PeriodicProcess(engine, self._sample,
                                        interval=interval)

    def start(self, delay: float = 0.0) -> None:
        self._process.start(delay if delay else self.interval)

    def stop(self) -> None:
        self._process.stop()

    def _sample(self) -> None:
        now = self.engine.now
        for host in self.hosts:
            busy = host.cpu.busy_seconds(now)
            delta = busy - self._last_busy[host.name]
            self._last_busy[host.name] = busy
            utilization = 100.0 * delta / self.interval
            self.series[host.name].sample(now, min(100.0, utilization))

    def utilization(self, name: str) -> Tuple[np.ndarray, np.ndarray]:
        return self.series[name].arrays()

    def mean_in(self, name: str, start: float, end: float) -> float:
        return self.series[name].mean_in(start, end)

    def max_in(self, name: str, start: float, end: float) -> float:
        return self.series[name].max_in(start, end)
