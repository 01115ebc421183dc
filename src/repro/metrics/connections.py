"""Per-connection lifecycle tracking.

Backs the connection-time CDFs (Figure 6), established-connection rates
(Figures 11, 13, 14), and completion percentages (Figure 15).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.metrics.series import BinnedSeries
from repro.obs import hub_for
from repro.sim.engine import Engine

if TYPE_CHECKING:
    import numpy as np


class ConnectionRecord:
    """One tracked connection attempt."""

    __slots__ = ("label", "t_open", "t_established", "t_completed",
                 "t_failed", "reason", "challenged")

    def __init__(self, label: str, t_open: float) -> None:
        self.label = label
        self.t_open = t_open
        self.t_established: Optional[float] = None
        self.t_completed: Optional[float] = None
        self.t_failed: Optional[float] = None
        self.reason: Optional[str] = None
        self.challenged = False

    @property
    def connect_time(self) -> Optional[float]:
        if self.t_established is None:
            return None
        return self.t_established - self.t_open

    @property
    def outcome(self) -> str:
        if self.t_completed is not None:
            return "completed"
        if self.t_failed is not None:
            return "failed"
        if self.t_established is not None:
            return "established"
        return "pending"


class ConnectionQueries:
    """Record-log queries shared by the live :class:`ConnectionTracker`
    and its picklable copy in a scenario summary (both hold ``records``
    and ``bin_width``). The array accessors import numpy when called."""

    records: List[ConnectionRecord]
    bin_width: float

    def connect_times(self, label: str) -> np.ndarray:
        """Handshake latencies (seconds) for established connections."""
        import numpy as np

        return np.asarray([
            r.connect_time for r in self.records
            if r.label == label and r.connect_time is not None
        ])

    def completion_percent_series(self, label: str, until: float
                                  ) -> Tuple[np.ndarray, np.ndarray]:
        """% of attempts per bin that eventually completed (Figure 15).

        A connection is attributed to the bin of its *attempt*.
        """
        import numpy as np

        n_bins = max(1, math.ceil(until / self.bin_width))
        attempts = np.zeros(n_bins)
        completions = np.zeros(n_bins)
        for record in self.records:
            if record.label != label:
                continue
            index = int(record.t_open // self.bin_width)
            if not 0 <= index < n_bins:
                continue
            attempts[index] += 1
            if record.t_completed is not None:
                completions[index] += 1
        times = np.arange(n_bins) * self.bin_width
        with np.errstate(divide="ignore", invalid="ignore"):
            percent = np.where(attempts > 0,
                               100.0 * completions / attempts, np.nan)
        return times, percent

    def counts(self, label: str) -> Dict[str, int]:
        out = {"attempts": 0, "established": 0, "completed": 0, "failed": 0,
               "challenged": 0}
        for record in self.records:
            if record.label != label:
                continue
            out["attempts"] += 1
            if record.t_established is not None:
                out["established"] += 1
            if record.t_completed is not None:
                out["completed"] += 1
            if record.t_failed is not None:
                out["failed"] += 1
            if record.challenged:
                out["challenged"] += 1
        return out

    def established_in(self, label: str, start: float, end: float) -> int:
        return sum(
            1 for r in self.records
            if r.label == label and r.t_established is not None
            and start <= r.t_established < end)


class ConnectionTracker(ConnectionQueries):
    """Aggregates connection lifecycles per class label.

    Labels are free-form — the experiments use ``"client"`` and
    ``"attacker"`` so metrics can be split the way the paper splits them.
    """

    def __init__(self, engine: Engine, bin_width: float = 1.0) -> None:
        self.engine = engine
        self.bin_width = bin_width
        self._hist = hub_for(engine).hist
        self.records: List[ConnectionRecord] = []
        self._attempt_series: Dict[str, BinnedSeries] = {}
        self._established_series: Dict[str, BinnedSeries] = {}
        self._completed_series: Dict[str, BinnedSeries] = {}
        self._failed_series: Dict[str, BinnedSeries] = {}

    def _series(self, table: Dict[str, BinnedSeries],
                label: str) -> BinnedSeries:
        series = table.get(label)
        if series is None:
            series = BinnedSeries(self.bin_width)
            table[label] = series
        return series

    # ------------------------------------------------------------------
    # Lifecycle hooks (called by host models)
    # ------------------------------------------------------------------
    def open(self, label: str) -> ConnectionRecord:
        record = ConnectionRecord(label, self.engine.now)
        self.records.append(record)
        self._series(self._attempt_series, label).add(record.t_open)
        return record

    def established(self, record: ConnectionRecord,
                    challenged: bool = False) -> None:
        record.t_established = self.engine.now
        record.challenged = challenged
        self._series(self._established_series, record.label).add(
            record.t_established)
        self._hist.record(f"handshake_latency.{record.label}",
                          record.t_established - record.t_open)

    def completed(self, record: ConnectionRecord) -> None:
        record.t_completed = self.engine.now
        self._series(self._completed_series, record.label).add(
            record.t_completed)

    def failed(self, record: ConnectionRecord, reason: str) -> None:
        if record.t_failed is not None:
            return
        record.t_failed = self.engine.now
        record.reason = reason
        self._series(self._failed_series, record.label).add(record.t_failed)

    # ------------------------------------------------------------------
    # Queries (the record-log ones come from ConnectionQueries)
    # ------------------------------------------------------------------
    def established_rate(self, label: str,
                         until: float) -> Tuple[List[float], List[float]]:
        """Connections/second entering ESTABLISHED, per bin (Figure 11)."""
        return self._series(self._established_series, label).rate_series(
            until)

    def attempt_rate(self, label: str,
                     until: float) -> Tuple[List[float], List[float]]:
        return self._series(self._attempt_series, label).rate_series(until)
