"""The benchmark workloads: what each runs and how it is checked.

Each workload is a fixed batch of scenario cells run back to back in one
process through a serial :class:`repro.runner.SweepRunner`. A cell is a
closed loop with one caller: the next cell starts when the previous one
returns. The attack simulated inside each cell is open-loop at the
paper's rates. ``prepare`` is the set-up (imports, C-core load, config
construction); ``Workload.run`` is the timed part.

Scales are the repository's own: the fig7 and chaos benches run at
``time_scale=0.05`` and the fig12 bench at ``0.03``. They are fixed here
so that simulated time never depends on the host.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

#: Default ``time_scale`` per workload (600 s nominal timeline).
SCALES = {"synflood": 0.05, "nash_sweep": 0.03, "chaos": 0.05}
NAMES = tuple(SCALES)

#: MIB counters summed over every host of every cell (server counters
#: plus the client-side puzzle counters that only clients increment).
COUNTERS = (
    "SynsRecv", "PuzzlesIssued", "PuzzlesVerified", "PuzzlesRejected",
    "AcceptOverflows", "SynCacheAdded", "SynCacheEvictions",
    "SynCacheHits", "SynCacheMisses", "SynCacheCookieFallback",
    "AdmissionDrops", "PuzzlesSolved", "ChallengesReceived",
    "ChallengesAbandoned", "RequestsServed",
)


@dataclass
class Cells:
    """One batch's outcome, in cell order."""

    labels: List[str]
    #: Cell values as the experiment API returns them (digest input).
    values: list
    #: The per-cell :class:`ScenarioSummary`, ``None`` for a cell that
    #: raised.
    summaries: list
    #: Cell wall seconds as the sweep runner accounted them.
    cell_walls: List[float] = field(default_factory=list)
    #: label -> reason, for cells that raised before producing a value.
    errors: Dict[str, str] = field(default_factory=dict)


@dataclass
class Workload:
    """A prepared workload: ``run`` is the timed batch, ``check`` maps a
    batch's failing cell labels to their reasons."""

    run: Callable[[], Cells]
    check: Callable[[Cells], Dict[str, List[str]]]


def prepare(name: str, seed: int, scale: Optional[float] = None,
            profile: object = False) -> Workload:
    """Import what *name* needs and build its cell configs."""
    if name not in SCALES:
        raise ValueError(f"unknown workload {name!r} (choose from "
                         f"{', '.join(NAMES)})")
    scale = SCALES[name] if scale is None else scale
    return _BUILDERS[name](seed, scale, profile)


def digest(cells: Cells) -> str:
    """sha256 of the cells' deterministic JSONL (no wall-clock fields)."""
    from repro.runner import cells_to_jsonl

    return hashlib.sha256(
        cells_to_jsonl(cells.values).encode()).hexdigest()


def counts(cells: Cells) -> Dict[str, float]:
    """Deterministic work counters summed over the batch's cells."""
    totals: Dict[str, float] = {name: 0 for name in COUNTERS}
    totals.update(events=0, events_scheduled=0, events_cancelled=0,
                  heap_high_water=0, established=0, invariant_checks=0,
                  series_samples=0)
    for summary in cells.summaries:
        if summary is None:
            continue
        stats = summary.engine_stats
        totals["events"] += stats["events_processed"]
        totals["events_scheduled"] += stats["events_scheduled"]
        totals["events_cancelled"] += stats["events_cancelled"]
        totals["heap_high_water"] = max(totals["heap_high_water"],
                                        stats["heap_high_water"])
        for scope in summary.counters.values():
            for name in COUNTERS:
                totals[name] += scope.get(name, 0)
        totals["established"] += \
            summary.listener_stats.established_total()
        totals["invariant_checks"] += summary.invariant_checks
        totals["series_samples"] += sum(
            len(series) for series in summary.timeseries.values())
    return totals


def failed_labels(cells: Cells, failures: Dict[str, List[str]]
                  ) -> List[str]:
    return [label for label in cells.labels
            if label in cells.errors or failures.get(label)]


# ----------------------------------------------------------------------
# synflood: the Fig 7 suite under a spoofed SYN flood, telemetry detached
# ----------------------------------------------------------------------
def _synflood(seed: int, scale: float, profile: object) -> Workload:
    from repro.experiments.exp2_floods import (
        CHALLENGES_M8, CHALLENGES_M17, COOKIES, NODEFENSE,
        run_syn_flood_suite_report)
    from repro.experiments.scenario import ScenarioConfig
    from repro.runner import SweepRunner

    labels = [NODEFENSE, COOKIES, CHALLENGES_M8, CHALLENGES_M17]
    base = ScenarioConfig(seed=seed, time_scale=scale, attack_style="syn",
                          profile=profile)

    def run() -> Cells:
        try:
            suite, stats = run_syn_flood_suite_report(
                base, SweepRunner(jobs=1))
        except Exception as error:  # a crashed suite fails every cell
            reason = f"{type(error).__name__}: {error}"
            return Cells(labels, [], [None] * len(labels),
                         errors={label: reason for label in labels})
        values = [suite[label] for label in labels]
        return Cells(labels, values, values,
                     [cell.wall_seconds for cell in stats.cells])

    return Workload(run, _check_synflood)


def _check_synflood(cells: Cells) -> Dict[str, List[str]]:
    """The Fig 7 story plus the MIB identities, per cell."""
    failures: Dict[str, List[str]] = {}
    suite = dict(zip(cells.labels, cells.summaries))
    if any(summary is None for summary in suite.values()):
        return failures
    pre = suite["nodefense"].client_throughput_before_attack().mean
    during = {label: summary.client_throughput_during_attack().mean
              for label, summary in suite.items()}
    story = {
        "nodefense": during["nodefense"] < 0.35 * pre,
        "cookies": during["cookies"] > 0.7 * pre,
        "challenges-m8": during["challenges-m8"] > 0.7 * pre,
        "challenges-m17": (
            0 < during["challenges-m17"] < pre
            and suite["challenges-m17"].client_completion_percent()
            > 90.0),
    }
    for label, summary in suite.items():
        reasons = [] if story[label] else ["fig7 story"]
        reasons += _mib_identities(summary)
        if reasons:
            failures[label] = reasons
    return failures


def _mib_identities(summary) -> List[str]:
    """MIB-vs-listener_stats identities and the drop-attribution sum."""
    from repro.obs import drop_attribution, established_total

    server = summary.counters.get("server", {})
    stats = summary.listener_stats

    def count(name: str) -> int:
        return server.get(name, 0)

    pairs = {
        "SynsRecv": stats.syns_received,
        "SynAcksSent": stats.synacks_plain,
        "PuzzlesIssued": stats.synacks_challenge,
        "SynCookiesSent": stats.synacks_cookie,
        "SynCookiesFailed": stats.cookies_invalid,
        "ListenOverflows": stats.syn_drops_queue_full,
        "HalfOpenExpired": stats.half_open_expired,
        "AcceptOverflows": stats.accept_drops_full,
        "DeceptionAcksIgnored": stats.acks_ignored_queue_full,
    }
    reasons = [f"MIB {name} != listener_stats"
               for name, expected in pairs.items()
               if count(name) != expected]
    if (count("PuzzlesRejected") + count("ReplaysBlocked")
            + count("PlainAcksIgnored")) != stats.solutions_invalid:
        reasons.append("MIB invalid solutions != listener_stats")
    if established_total(server) != stats.established_total():
        reasons.append("MIB established != listener_stats")
    drops = sum(drop_attribution(server).values())
    if drops != (stats.syn_drops_queue_full + stats.half_open_expired
                 + stats.accept_drops_full + stats.acks_ignored_queue_full
                 + stats.solutions_invalid + stats.cookies_invalid
                 + count("SynCacheEvictions") + count("SynCacheMisses")):
        reasons.append("drop attribution does not sum")
    return reasons


# ----------------------------------------------------------------------
# nash_sweep: the Fig 12 difficulty grid under a connection flood
# ----------------------------------------------------------------------
def _nash_sweep(seed: int, scale: float, profile: object) -> Workload:
    import repro.experiments.exp3_nash as exp3
    from repro.experiments.scenario import ScenarioConfig
    from repro.runner import SweepRunner

    base = ScenarioConfig(seed=seed, time_scale=scale, profile=profile)
    labels = [f"k{k}m{m}" for k in exp3.DEFAULT_K_VALUES
              for m in exp3.DEFAULT_M_VALUES]
    captured: list = []
    run_summary = exp3.run_scenario_summary

    def capture(config):
        # The grid's cell values drop the MIB counters; keep each cell's
        # summary so the per-layer counts can be read from it.
        summary = run_summary(config)
        captured.append(summary)
        return summary

    def run() -> Cells:
        captured.clear()
        exp3.run_scenario_summary = capture
        try:
            grid, stats = exp3.difficulty_sweep_report(
                base=base, runner=SweepRunner(jobs=1))
        except Exception as error:
            reason = f"{type(error).__name__}: {error}"
            return Cells(labels, [], [None] * len(labels),
                         errors={label: reason for label in labels})
        finally:
            exp3.run_scenario_summary = run_summary
        return Cells(labels, list(grid.values()), list(captured),
                     [cell.wall_seconds for cell in stats.cells])

    return Workload(run, _check_nash)


def _check_nash(cells: Cells) -> Dict[str, List[str]]:
    """§6.3: hard puzzles cut attacker cps, the best contained cell sits
    in the Nash band, and (2,17) rate-limits every user."""
    from repro.experiments.exp3_nash import in_nash_band, \
        rate_limiting_cells

    failures: Dict[str, List[str]] = {}
    if cells.errors:
        return failures
    grid = {(cell.k, cell.m): cell for cell in cells.values}

    def fail(key, reason: str) -> None:
        failures.setdefault(f"k{key[0]}m{key[1]}", []).append(reason)

    easy = [cell for (k, m), cell in grid.items() if m == 12]
    hard = {key: cell for key, cell in grid.items() if key[1] >= 17}
    mean_easy = sum(c.attacker_steady_rate for c in easy) / len(easy)
    mean_hard = (sum(c.attacker_steady_rate for c in hard.values())
                 / len(hard))
    if not mean_hard < mean_easy / 3:
        for key in hard:
            fail(key, "m>=17 does not cut attacker cps 3x")
    contained = rate_limiting_cells(grid, max_attacker_cps=80.0)
    if (2, 17) not in contained:
        fail((2, 17), "(2,17) does not contain the attack")
    else:
        best = max(contained, key=lambda key:
                   contained[key].throughput.mean)
        if not in_nash_band(*best):
            fail(best, "best contained cell outside the Nash band")
    nash = grid[(2, 17)]
    if not nash.attacker_steady_rate < nash.attacker_measured_rate / 20:
        fail((2, 17), "(2,17) steady cps >= measured/20")
    return failures


# ----------------------------------------------------------------------
# chaos: the fault matrix with invariants and attribution sketches
# ----------------------------------------------------------------------
def _chaos(seed: int, scale: float, profile: object) -> Workload:
    from repro.experiments.scenario import ScenarioConfig
    from repro.faults.chaos import (ChaosSpec, default_fault_matrix,
                                    run_chaos_summary)
    from repro.obs import TelemetrySpec
    from repro.runner import SweepRunner
    from repro.tcp.constants import DefenseMode

    # The config `tcp-puzzles chaos` builds at its defaults, with
    # attribution sketches on.
    config = ScenarioConfig(
        seed=seed, time_scale=scale, n_clients=6, n_attackers=4,
        attack_style="connect", attack_enabled=True,
        defense=DefenseMode.PUZZLES, always_challenge=True,
        telemetry=TelemetrySpec(attribution=True), profile=profile)
    matrix = {label: ChaosSpec(config, schedule, invariant_interval=0.25)
              for label, schedule in default_fault_matrix(config).items()}
    labels = list(matrix)

    def run() -> Cells:
        runner = SweepRunner(jobs=1)
        cells = Cells(labels, [], [])
        # One map per row, as the CLI does, so a failing row is isolated.
        for label in labels:
            try:
                report = runner.map(run_chaos_summary, [matrix[label]],
                                    labels=[label])
            except Exception as error:  # an invariant violation raises
                cells.errors[label] = f"{type(error).__name__}: {error}"
                cells.summaries.append(None)
                continue
            cells.values.append(report.values[0])
            cells.summaries.append(report.values[0])
            cells.cell_walls += [c.wall_seconds for c in report.stats.cells]
        return cells

    return Workload(run, _check_chaos)


def _check_chaos(cells: Cells) -> Dict[str, List[str]]:
    """Per row: a checker that ran (violations raise inside the cell),
    a fault that was actually injected, and the MIB identities."""
    failures: Dict[str, List[str]] = {}
    for label, summary in zip(cells.labels, cells.summaries):
        if summary is None:
            continue
        reasons = []
        if summary.invariant_checks == 0:
            reasons.append("invariant checker never ran")
        injected = sum((summary.fault_stats or {}).values())
        if label != "baseline" and injected == 0:
            reasons.append("no fault injected")
        reasons += _mib_identities(summary)
        if reasons:
            failures[label] = reasons
    return failures


_BUILDERS = {"synflood": _synflood, "nash_sweep": _nash_sweep,
             "chaos": _chaos}

