"""Experiment 3 (Figure 12): the Nash difficulty against alternatives.

Sweeps k ∈ {1..4} × m ∈ {12, 15, 16, 17, 18, 20} under the connection
flood and summarises the per-bin client throughput during the attack as
boxplot statistics. The paper's finding: m < 12 fails to limit the
attackers at all; the Nash (2, 17) gives the most *stable* throughput —
competitive mean with low variability.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.experiments.scenario import ScenarioConfig
from repro.experiments.summary import deterministic_engine_stats, \
    run_scenario_summary
from repro.metrics.series import in_window
from repro.metrics.summary import Summary, describe
from repro.obs.hist import Histogram
from repro.puzzles.params import PuzzleParams
from repro.runner import RunnerStats, SweepRunner
from repro.tcp.constants import DefenseMode

if TYPE_CHECKING:
    import numpy as np

DEFAULT_K_VALUES = (1, 2, 3, 4)
DEFAULT_M_VALUES = (12, 15, 16, 17, 18, 20)


@dataclass(frozen=True)
class DifficultyCell:
    """One (k, m) box of Figure 12 plus the rate-limiting side metrics."""

    k: int
    m: int
    throughput: Summary            # client Mbps per bin, attack window
    throughput_bins: np.ndarray
    attacker_established_rate: float   # server-side cps (§6.3 text)
    attacker_steady_rate: float        # same, post-engagement transient
    attacker_measured_rate: float      # attacker SYN pps (§6.3 text)
    client_completion_percent: float
    #: Deterministic engine accounting (timing keys stripped), read by the
    #: sweep runner for events/sec manifests.
    engine_stats: Optional[Dict[str, float]] = None
    #: The run's duration histograms (handshake latency, solve time, …),
    #: merged by the sweep runner into the fig12 manifest.
    histograms: Optional[Dict[str, Histogram]] = None


@dataclass(frozen=True)
class DifficultySpec:
    """Picklable sweep-cell spec: one (k, m) point over a base config."""

    k: int
    m: int
    base: ScenarioConfig = field(default_factory=ScenarioConfig)

    def config(self) -> ScenarioConfig:
        return replace(self.base, defense=DefenseMode.PUZZLES,
                       puzzle_params=PuzzleParams(k=self.k, m=self.m),
                       attack_style="connect")


def run_difficulty_spec(spec: DifficultySpec) -> DifficultyCell:
    """Sweep-cell function: one connection-flood run at (spec.k, spec.m)."""
    import numpy as np

    config = spec.config()
    summary = run_scenario_summary(config)
    times, mbps = summary.client_throughput.rx_mbps(config.duration)
    bins = in_window(times, mbps, *summary.attack_window())
    return DifficultyCell(
        k=spec.k, m=spec.m,
        throughput=describe(bins),
        throughput_bins=np.asarray(bins),
        attacker_established_rate=summary.attacker_established_rate(),
        attacker_steady_rate=summary.attacker_steady_state_rate(),
        attacker_measured_rate=summary.attacker_measured_rate(),
        client_completion_percent=summary.client_completion_percent(),
        engine_stats=deterministic_engine_stats(summary.engine_stats),
        histograms=summary.histograms)


def run_difficulty_cell(k: int, m: int,
                        base: Optional[ScenarioConfig] = None
                        ) -> DifficultyCell:
    """One connection-flood run at difficulty (k, m)."""
    return run_difficulty_spec(DifficultySpec(
        k=k, m=m, base=base if base is not None else ScenarioConfig()))


def difficulty_sweep_report(k_values: Sequence[int] = DEFAULT_K_VALUES,
                            m_values: Sequence[int] = DEFAULT_M_VALUES,
                            base: Optional[ScenarioConfig] = None,
                            runner: Optional[SweepRunner] = None
                            ) -> Tuple[Dict[Tuple[int, int],
                                            DifficultyCell], RunnerStats]:
    """The Figure 12 grid plus the runner's execution accounting."""
    if runner is None:
        runner = SweepRunner()
    if base is None:
        base = ScenarioConfig()
    specs = [DifficultySpec(k=k, m=m, base=base)
             for k in k_values for m in m_values]
    report = runner.map(run_difficulty_spec, specs,
                        labels=[f"k{s.k}m{s.m}" for s in specs])
    grid = {(cell.k, cell.m): cell for cell in report.values}
    return grid, report.stats


def difficulty_sweep(k_values: Sequence[int] = DEFAULT_K_VALUES,
                     m_values: Sequence[int] = DEFAULT_M_VALUES,
                     base: Optional[ScenarioConfig] = None,
                     runner: Optional[SweepRunner] = None
                     ) -> Dict[Tuple[int, int], DifficultyCell]:
    """The full Figure 12 grid, keyed by (k, m)."""
    grid, _ = difficulty_sweep_report(k_values, m_values, base, runner)
    return grid


def stability_ranking(grid: Dict[Tuple[int, int], DifficultyCell]
                      ) -> List[Tuple[Tuple[int, int], float]]:
    """Cells ranked by throughput stability (mean − std, higher better) —
    the criterion under which §6.3 argues the Nash cell wins."""
    scored = []
    for key, cell in grid.items():
        if cell.throughput.count == 0:
            continue
        scored.append((key, cell.throughput.mean - cell.throughput.std))
    scored.sort(key=lambda item: item[1], reverse=True)
    return scored


def rate_limiting_cells(grid: Dict[Tuple[int, int], DifficultyCell],
                        max_attacker_cps: float
                        ) -> Dict[Tuple[int, int], DifficultyCell]:
    """The subset of cells that actually contain the attack — §6.3's
    precondition before stability is even worth comparing ("the ease of
    solving the challenges does not affect the attackers' rate, thus
    causing a denial of service")."""
    return {key: cell for key, cell in grid.items()
            if cell.attacker_steady_rate <= max_attacker_cps}


def in_nash_band(k: int, m: int, target: float = 66_966.0,
                 factor: float = 2.0) -> bool:
    """Whether ℓ(k, m) lies within *factor* of the continuous optimum ℓ*.

    §6.3's own data places the best throughput near the Nash price — the
    paper notes (2, 16) (= ℓ*/1.02) "achieves a slightly better average
    with comparable variability" — so the reproduction target is the
    *band*, not one rounding of it."""
    expected = PuzzleParams(k=k, m=m).expected_hashes
    return target / factor <= expected <= target * factor
