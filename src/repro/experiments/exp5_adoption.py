"""Experiment 5 (Figure 15): partial adoption of TCP puzzles.

Clients and attackers independently may or may not run the patch:

* ``(NA, NC)`` — neither solves: clients get almost no service (their plain
  ACKs are ignored while the non-solving flood keeps the queues pressured);
* ``(SA, NC)`` — solving attacker, non-solving clients: erratic service
  (the rate-limited attacker leaves openings that non-solvers race for);
* ``(*A, SC)`` — solving clients against either attacker: near-full
  service. The paper groups (NA, SC) and (SA, SC) into one series because
  they coincide; we run all four and expose the grouping.

The reported metric is the per-bin percentage of client connection
attempts that completed (Figure 15's y-axis).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.experiments.scenario import ScenarioConfig
from repro.experiments.summary import ScenarioSummary, run_scenario_summary
from repro.puzzles.params import PuzzleParams
from repro.runner import SweepRunner
from repro.tcp.constants import DefenseMode

if TYPE_CHECKING:
    import numpy as np

#: The paper's scenario labels.
SCENARIOS = {
    "NA,NC": (False, False),
    "SA,NC": (True, False),
    "NA,SC": (False, True),
    "SA,SC": (True, True),
}


@dataclass
class AdoptionOutcome:
    """One adoption scenario's Figure 15 series and summary."""

    label: str
    attacker_solves: bool
    client_solves: bool
    times: np.ndarray
    completion_percent: np.ndarray     # per attempt-bin, NaN when no attempts
    mean_completion_percent: float
    summary: ScenarioSummary

    @property
    def engine_stats(self):
        """Runner accounting hook (delegates to the summary)."""
        return self.summary.engine_stats


@dataclass(frozen=True)
class AdoptionSpec:
    """Picklable sweep-cell spec: one adoption label over a base config."""

    label: str
    base: ScenarioConfig = field(default_factory=ScenarioConfig)

    def config(self) -> ScenarioConfig:
        attacker_solves, client_solves = SCENARIOS[self.label]
        return replace(self.base,
                       defense=DefenseMode.PUZZLES,
                       puzzle_params=PuzzleParams(k=2, m=17),
                       attack_style="connect",
                       attackers_solve=attacker_solves,
                       clients_patched=client_solves,
                       clients_solve=client_solves)


def run_adoption_cell(spec: AdoptionSpec) -> AdoptionOutcome:
    """Sweep-cell function: one adoption scenario."""
    import numpy as np

    attacker_solves, client_solves = SCENARIOS[spec.label]
    config = spec.config()
    summary = run_scenario_summary(config)
    start, end = summary.attack_window()
    times, percent = summary.connections.completion_percent_series(
        "client", config.duration)
    mask = (times >= start) & (times < end)
    window = percent[mask]
    window = window[~np.isnan(window)]
    mean = float(np.mean(window)) if window.size else float("nan")
    return AdoptionOutcome(label=spec.label,
                           attacker_solves=attacker_solves,
                           client_solves=client_solves, times=times,
                           completion_percent=percent,
                           mean_completion_percent=mean, summary=summary)


def run_adoption_scenario(label: str,
                          base: Optional[ScenarioConfig] = None
                          ) -> AdoptionOutcome:
    return run_adoption_cell(AdoptionSpec(
        label=label, base=base if base is not None else ScenarioConfig()))


def adoption_study(base: Optional[ScenarioConfig] = None,
                   runner: Optional[SweepRunner] = None
                   ) -> Dict[str, AdoptionOutcome]:
    """All four scenarios, keyed by the paper's labels."""
    if runner is None:
        runner = SweepRunner()
    if base is None:
        base = ScenarioConfig()
    specs = [AdoptionSpec(label=label, base=base) for label in SCENARIOS]
    report = runner.map(run_adoption_cell, specs,
                        labels=[spec.label for spec in specs])
    return {outcome.label: outcome for outcome in report.values}


def grouped_series(outcomes: Dict[str, AdoptionOutcome]
                   ) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
    """The paper's three Figure 15 series: (NA,NC), (SA,NC), (*A,SC)."""
    import numpy as np

    solving = [outcomes["NA,SC"], outcomes["SA,SC"]]
    stacked = np.vstack([o.completion_percent for o in solving])
    with np.errstate(invalid="ignore"):
        merged = np.nanmean(stacked, axis=0)
    return {
        "(NA, NC)": (outcomes["NA,NC"].times,
                     outcomes["NA,NC"].completion_percent),
        "(SA, NC)": (outcomes["SA,NC"].times,
                     outcomes["SA,NC"].completion_percent),
        "(*A, SC)": (solving[0].times, merged),
    }
