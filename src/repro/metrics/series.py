"""Time-series primitives: binned accumulators, gauges, bounded rings."""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.errors import SimulationError
from repro.metrics.summary import mean

if TYPE_CHECKING:
    import numpy as np


def in_window(times: Sequence[float], values: Sequence[float],
              start: float, end: float) -> List[float]:
    """The *values* whose matching *times* fall in ``[start, end)``."""
    return [value for t, value in zip(times, values) if start <= t < end]


class BinnedSeries:
    """Accumulates events into fixed-width time bins.

    Used for throughput (bytes per bin) and rates (events per bin).
    """

    def __init__(self, bin_width: float, t0: float = 0.0) -> None:
        if bin_width <= 0:
            raise SimulationError(
                f"bin_width must be positive, got {bin_width!r}")
        self.bin_width = bin_width
        self.t0 = t0
        self._bins: Dict[int, float] = {}
        self.total = 0.0

    def add(self, t: float, value: float = 1.0) -> None:
        index = int((t - self.t0) // self.bin_width)
        self._bins[index] = self._bins.get(index, 0.0) + value
        self.total += value

    def series(self, until: float) -> Tuple[List[float], List[float]]:
        """(bin start times, per-bin sums) covering ``[t0, until)``.

        Events before ``t0``, or in bins starting at or after *until*, are
        left out.
        """
        n_bins = max(1, math.ceil((until - self.t0) / self.bin_width))
        times = [self.t0 + i * self.bin_width for i in range(n_bins)]
        values = [0.0] * n_bins
        for index, total in self._bins.items():
            if 0 <= index < n_bins:
                values[index] = total
        return times, values

    def rate_series(self, until: float) -> Tuple[List[float], List[float]]:
        """Per-bin sums divided by the bin width (events or bytes /second)."""
        times, values = self.series(until)
        width = self.bin_width
        return times, [value / width for value in values]

    def window_sum(self, start: float, end: float) -> float:
        """Total accumulated in ``[start, end)`` (whole bins)."""
        lo = int((start - self.t0) // self.bin_width)
        hi = math.ceil((end - self.t0) / self.bin_width)
        return sum(v for i, v in self._bins.items() if lo <= i < hi)


class RingSeries:
    """A bounded ring of ``(time, value)`` samples.

    Appends past the capacity evict the oldest sample and bump
    ``dropped``, so memory stays fixed no matter how long the run is —
    the storage discipline behind the streaming telemetry series
    (:mod:`repro.obs.timeseries`). Plain data: picklable, no engine
    reference.
    """

    __slots__ = ("capacity", "dropped", "_times", "_values")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise SimulationError(
                f"ring capacity must be >= 1, got {capacity!r}")
        self.capacity = int(capacity)
        self.dropped = 0
        self._times: deque = deque(maxlen=self.capacity)
        self._values: deque = deque(maxlen=self.capacity)

    def append(self, t: float, value: float) -> None:
        if len(self._times) == self.capacity:
            self.dropped += 1
        self._times.append(t)
        self._values.append(value)

    def __len__(self) -> int:
        return len(self._times)

    def samples(self) -> List[Tuple[float, float]]:
        """Oldest-to-newest list of retained ``(time, value)`` pairs."""
        return list(zip(self._times, self._values))

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        import numpy as np

        return np.asarray(self._times), np.asarray(self._values)

    def replace(self, samples) -> None:
        """Reload the ring from an iterable of ``(time, value)`` pairs
        (newest-past-capacity win, counting the overflow as dropped)."""
        self._times.clear()
        self._values.clear()
        for t, value in samples:
            self.append(t, value)

    # Pickle support for __slots__ (deques themselves pickle fine).
    def __getstate__(self):
        return (self.capacity, self.dropped, self._times, self._values)

    def __setstate__(self, state):
        self.capacity, self.dropped, self._times, self._values = state


class GaugeSeries:
    """Point-in-time samples of a value (queue depth, CPU utilisation)."""

    def __init__(self) -> None:
        self._times: List[float] = []
        self._values: List[float] = []

    def sample(self, t: float, value: float) -> None:
        self._times.append(t)
        self._values.append(value)

    def __len__(self) -> int:
        return len(self._times)

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        import numpy as np

        return np.asarray(self._times), np.asarray(self._values)

    def window(self, start: float, end: float) -> List[float]:
        """Values sampled in ``[start, end)``."""
        return in_window(self._times, self._values, start, end)

    def mean_in(self, start: float, end: float) -> float:
        return mean(self.window(start, end))

    def max_in(self, start: float, end: float) -> float:
        values = self.window(start, end)
        return float(max(values)) if values else float("nan")
