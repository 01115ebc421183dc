"""Picklable scenario summaries — what sweep workers send back.

A :class:`~repro.experiments.scenario.ScenarioResult` owns the live
simulation (engine, hosts, callbacks, samplers) and therefore cannot
cross a process boundary or be cached on disk. :func:`summarize`
distills it into a :class:`ScenarioSummary`: the same measurements —
throughput taps, gauge series, connection log, listener/SNMP counters,
engine statistics — as plain data, with the :class:`ScenarioResult`
convenience API mirrored method-for-method so experiments, benchmarks
and the CLI read either object the same way.

``ScenarioSummary.as_payload()`` is the deterministic face: it excludes
wall-clock fields (which differ between otherwise identical runs) so the
key-sorted JSONL export of a parallel sweep is byte-identical to the
serial run's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.hosts.attacker import AttackStats
from repro.metrics.connections import ConnectionQueries, ConnectionRecord
from repro.obs.hist import Histogram
from repro.obs.timeseries import TimeSeries, series_payload
from repro.metrics.series import BinnedSeries, GaugeSeries, in_window
from repro.metrics.summary import Summary, describe
from repro.metrics.throughput import HostThroughput
from repro.tcp.listener import ListenerStats

if TYPE_CHECKING:
    import numpy as np

#: ``engine.stats()`` keys that vary run-to-run on identical simulations.
TIMING_KEYS = ("wall_seconds", "sim_wall_ratio")


def deterministic_engine_stats(stats: Dict[str, float]
                               ) -> Dict[str, float]:
    """``engine.stats()`` with the run-to-run-varying timing keys removed.

    Safe to embed in exported/compared sweep cells; still carries
    ``sim_seconds`` and ``events_processed`` for runner accounting.
    """
    return {key: value for key, value in stats.items()
            if key not in TIMING_KEYS}


@dataclass
class CpuSummary:
    """The sampled CPU series, detached from the sampler."""

    series: Dict[str, GaugeSeries] = field(default_factory=dict)

    def utilization(self, name: str) -> Tuple[np.ndarray, np.ndarray]:
        return self.series[name].arrays()

    def mean_in(self, name: str, start: float, end: float) -> float:
        return self.series[name].mean_in(start, end)

    def max_in(self, name: str, start: float, end: float) -> float:
        return self.series[name].max_in(start, end)


@dataclass
class QueueSummary:
    """The sampled queue-depth series, detached from the sampler."""

    listen_depth: GaugeSeries = field(default_factory=GaugeSeries)
    accept_depth: GaugeSeries = field(default_factory=GaugeSeries)

    def listen_series(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.listen_depth.arrays()

    def accept_series(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.accept_depth.arrays()


@dataclass
class ConnectionLog(ConnectionQueries):
    """Connection lifecycles without the tracker's engine reference.

    Mirrors every :class:`~repro.metrics.connections.ConnectionTracker`
    query (the lifecycle hooks are gone — the run is over).
    """

    bin_width: float = 1.0
    records: List[ConnectionRecord] = field(default_factory=list)
    attempt_series: Dict[str, BinnedSeries] = field(default_factory=dict)
    established_series: Dict[str, BinnedSeries] = field(
        default_factory=dict)
    completed_series: Dict[str, BinnedSeries] = field(default_factory=dict)
    failed_series: Dict[str, BinnedSeries] = field(default_factory=dict)

    def _series(self, table: Dict[str, BinnedSeries],
                label: str) -> BinnedSeries:
        series = table.get(label)
        if series is None:
            series = BinnedSeries(self.bin_width)
        return series

    def established_rate(self, label: str,
                         until: float) -> Tuple[List[float], List[float]]:
        return self._series(self.established_series, label).rate_series(
            until)

    def attempt_rate(self, label: str,
                     until: float) -> Tuple[List[float], List[float]]:
        return self._series(self.attempt_series, label).rate_series(until)

    def labels(self) -> List[str]:
        return sorted({r.label for r in self.records})


class ScenarioMeasurements:
    """The measurement queries shared by the live
    :class:`~repro.experiments.scenario.ScenarioResult` and the plain-data
    :class:`ScenarioSummary`, so both read the same way.

    Subclasses provide ``config``, ``client_throughput``,
    ``server_throughput``, ``server_established``, ``tracker`` and
    :meth:`attacker_measured_rate`.
    """

    def attack_window(self) -> tuple:
        return (self.config.attack_start, self.config.attack_end)

    def client_throughput_during_attack(self) -> Summary:
        """Per-bin client rx throughput (Mbps) over the attack window."""
        times, mbps = self.client_throughput.rx_mbps(self.config.duration)
        return describe(in_window(times, mbps, *self.attack_window()))

    def server_throughput_during_attack(self) -> Summary:
        times, mbps = self.server_throughput.tx_mbps(self.config.duration)
        return describe(in_window(times, mbps, *self.attack_window()))

    def client_throughput_before_attack(self) -> Summary:
        times, mbps = self.client_throughput.rx_mbps(self.config.duration)
        return describe(in_window(times, mbps, float("-inf"),
                                  self.config.attack_start))

    def attacker_established_rate(self, start: Optional[float] = None,
                                  end: Optional[float] = None) -> float:
        """Mean attacker connections/second established *at the server*
        during the attack (Figure 11's 'effective attack rate').

        Measured server-side: a flooder that believes it connected (its ACK
        was silently ignored) does not count — only accepted state does.
        Defaults to the whole attack window; pass *start*/*end* to exclude
        e.g. the pre-protection transient (scaled-down runs concentrate it).
        """
        window_start, window_end = self.attack_window()
        if start is None:
            start = window_start
        if end is None:
            end = window_end
        series = self.server_established.get("attacker")
        if series is None:
            return 0.0
        return series.window_sum(start, end) / max(end - start, 1e-9)

    def attacker_steady_state_rate(self) -> float:
        """Effective attack rate over the second half of the attack window
        — past the engagement transient."""
        start, end = self.attack_window()
        return self.attacker_established_rate(start=(start + end) / 2.0)

    def attacker_established_series(self) -> tuple:
        """(times, connections/second) accepted from attackers (Fig. 11)."""
        series = self.server_established.get("attacker")
        if series is None:
            series = BinnedSeries(self.config.bin_width)
        return series.rate_series(self.config.duration)

    def client_completion_percent(self) -> float:
        """% of benign attempts opened in the attack window that
        completed; NaN when there were none."""
        start, end = self.attack_window()
        attempts = completed = 0
        for record in self.tracker.records:
            if record.label != "client":
                continue
            if not start <= record.t_open < end:
                continue
            attempts += 1
            if record.t_completed is not None:
                completed += 1
        if attempts == 0:
            return float("nan")
        return 100.0 * completed / attempts


@dataclass
class ScenarioSummary(ScenarioMeasurements):
    """Everything measured during one scenario run, as plain data."""

    config: object                      # ScenarioConfig (picklable)
    engine_stats: Dict[str, float]
    listener_stats: ListenerStats
    counters: Dict[str, Dict[str, int]]
    server_throughput: HostThroughput
    client_throughput: HostThroughput
    cpu: CpuSummary
    queues: QueueSummary
    connections: ConnectionLog
    server_established: Dict[str, BinnedSeries] = field(
        default_factory=dict)
    attack_stats: Optional[AttackStats] = None
    botnet_size: int = 0
    profile: Optional[Dict[str, Dict[str, float]]] = None
    #: Sim-time duration histograms from the hub registry (handshake
    #: latency, puzzle solve time, accept-queue wait) — fixed-boundary
    #: and picklable, so the runner can merge them across workers.
    histograms: Dict[str, Histogram] = field(default_factory=dict)
    #: Streaming-telemetry series (``config.telemetry``): bounded
    #: ring-buffer rate/gauge/quantile curves sampled on an exact
    #: sim-time cadence. Plain data; rates and gauges merge across
    #: sweep workers.
    timeseries: Dict[str, TimeSeries] = field(default_factory=dict)
    #: Bounded-memory per-source attribution snapshot (heavy-hitter
    #: tables + Count-Min error bound), present when the telemetry spec
    #: asked for it.
    attribution: Optional[Dict[str, object]] = None
    #: Fault-injection event counts (``repro.faults``), present when the
    #: run carried a non-empty :class:`FaultSchedule`.
    fault_stats: Optional[Dict[str, int]] = None
    #: Ticks the runtime invariant checker completed (0 = not attached).
    invariant_checks: int = 0
    #: Overload-watchdog snapshot (state, transitions, time in state,
    #: peak occupancy, ``repro_overload_state`` series, admission
    #: counters), present only when ``config.overload`` attached one —
    #: detached manifests stay byte-identical, like the telemetry block.
    overload: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------
    # ScenarioResult API parity
    # ------------------------------------------------------------------
    @property
    def tracker(self) -> ConnectionLog:
        """Alias matching ``ScenarioResult.tracker``."""
        return self.connections

    def attacker_measured_rate(self) -> float:
        if self.attack_stats is None:
            return 0.0
        start, end = self.attack_window()
        return self.attack_stats.syns_sent / max(end - start, 1e-9)

    # ------------------------------------------------------------------
    def as_payload(self, include_timing: bool = False
                   ) -> Dict[str, object]:
        """Deterministic JSON-friendly digest of the run.

        Wall-clock figures are excluded by default: two runs of the same
        seeded config must produce identical payloads (the serial-vs-
        parallel byte-identity contract). Pass ``include_timing=True``
        for manifests, where the timings are the point.
        """
        from repro.runner.export import to_jsonable
        from repro.runner.hashing import stable_hash

        engine_stats = dict(self.engine_stats)
        if not include_timing:
            for key in TIMING_KEYS:
                engine_stats.pop(key, None)
        payload: Dict[str, object] = {
            "config_fingerprint": stable_hash(self.config),
            "seed": self.config.seed,
            "defense": self.config.defense.value,
            "engine_stats": engine_stats,
            "listener_stats": {
                name: getattr(self.listener_stats, name)
                for name in sorted(vars(self.listener_stats))
            },
            "counters": to_jsonable(self.counters),
            "connections": {
                label: self.connections.counts(label)
                for label in self.connections.labels()
            },
            "client_completion_percent": self.client_completion_percent(),
            "attacker_established_rate": self.attacker_established_rate(),
            "client_throughput_during_attack": to_jsonable(
                self.client_throughput_during_attack()),
            "server_throughput_during_attack": to_jsonable(
                self.server_throughput_during_attack()),
            # Sim-time histograms are as deterministic as the counters:
            # same seed, same buckets, same quantiles.
            "histograms": {name: self.histograms[name].as_payload()
                           for name in sorted(self.histograms)},
        }
        # Both blocks appear only when telemetry ran, so manifests from
        # detached runs are byte-identical to pre-telemetry ones.
        if self.timeseries:
            payload["timeseries"] = series_payload(self.timeseries)
        if self.attribution is not None:
            payload["attribution"] = self.attribution
        if self.attack_stats is not None:
            payload["attack_stats"] = to_jsonable(self.attack_stats)
            payload["botnet_size"] = self.botnet_size
        if self.fault_stats is not None:
            payload["fault_stats"] = dict(sorted(self.fault_stats.items()))
        if self.invariant_checks:
            payload["invariant_checks"] = self.invariant_checks
        if self.overload is not None:
            payload["overload"] = to_jsonable(self.overload)
        return payload


# ----------------------------------------------------------------------
def summarize(result) -> ScenarioSummary:
    """Distill a live :class:`ScenarioResult` into plain data."""
    tracker = result.tracker
    connections = ConnectionLog(
        bin_width=tracker.bin_width,
        records=list(tracker.records),
        attempt_series=dict(tracker._attempt_series),
        established_series=dict(tracker._established_series),
        completed_series=dict(tracker._completed_series),
        failed_series=dict(tracker._failed_series))
    counters: Dict[str, Dict[str, int]] = {}
    histograms: Dict[str, Histogram] = {}
    if result.obs is not None:
        counters = result.obs.counters.snapshot()
        histograms = result.obs.hist.as_dict()
    profile = None
    if result.profiler is not None:
        profile = result.profiler.snapshot()
    attack_stats = None
    botnet_size = 0
    if result.botnet is not None:
        attack_stats = result.botnet.aggregate_stats()
        botnet_size = result.botnet.size
    fault_stats = None
    injector = getattr(result, "fault_injector", None)
    if injector is not None:
        fault_stats = injector.snapshot()
    checker = getattr(result, "invariants", None)
    invariant_checks = checker.checks_run if checker is not None else 0
    sampler = getattr(result, "sampler", None)
    timeseries: Dict[str, TimeSeries] = \
        sampler.as_dict() if sampler is not None else {}
    source_attribution = getattr(result, "attribution", None)
    attribution = (source_attribution.snapshot()
                   if source_attribution is not None else None)
    watchdog = getattr(result, "watchdog", None)
    overload = watchdog.snapshot() if watchdog is not None else None
    return ScenarioSummary(
        config=result.config,
        engine_stats=result.engine.stats(),
        listener_stats=result.listener_stats,
        counters=counters,
        server_throughput=result.server_throughput,
        client_throughput=result.client_throughput,
        cpu=CpuSummary(series=dict(result.cpu.series)),
        queues=QueueSummary(listen_depth=result.queues.listen_depth,
                            accept_depth=result.queues.accept_depth),
        connections=connections,
        server_established=dict(result.server_established),
        attack_stats=attack_stats,
        botnet_size=botnet_size,
        profile=profile,
        histograms=histograms,
        timeseries=timeseries,
        attribution=attribution,
        fault_stats=fault_stats,
        invariant_checks=invariant_checks,
        overload=overload)


def run_scenario_summary(config) -> ScenarioSummary:
    """The canonical sweep cell: run one scenario, return its summary.

    Module-level and driven entirely by the (picklable) config, per the
    :mod:`repro.runner` determinism contract.
    """
    from repro.experiments.scenario import Scenario

    return summarize(Scenario(config).run())
