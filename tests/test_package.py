"""Package-level checks: public API surface, version, example hygiene."""

import os
import pathlib
import py_compile
import subprocess
import sys

import pytest

import repro

ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.4.0"

    def test_all_exports_resolve(self):
        import repro.experiments

        for package in (repro, repro.experiments):
            for name in package.__all__:
                assert getattr(package, name, None) is not None, name

    def test_headline_workflow(self):
        """The README's three-line quickstart must keep working."""
        params = repro.nash_difficulty(w_av=140630, alpha=1.1)
        assert (params.k, params.m) == (2, 17)
        game = repro.ClientGame.homogeneous(15, 140630.0, 1100.0)
        solution = game.solve(params.expected_hashes)
        assert solution.feasible

    def test_error_hierarchy(self):
        from repro import errors

        for name in ("SimulationError", "NetworkError", "CodecError",
                     "PuzzleError", "GameError", "ExperimentError"):
            assert issubclass(getattr(errors, name), errors.ReproError)


#: Run in a fresh interpreter: the simulator's import path, one tiny
#: flood and its summary/JSONL digest must load neither numpy (only the
#: figure functions that build arrays need it), scipy (only the theory
#: solvers), networkx nor the experiment modules the flood does not use;
#: the solvers must still work once called.
_IMPORT_BUDGET_PROBE = """
import sys

import repro
import repro.cli
import repro.experiments.exp2_floods
import repro.faults.chaos
from repro.experiments.scenario import ScenarioConfig
from repro.experiments.summary import run_scenario_summary
from repro.runner import cells_to_jsonl

summary = run_scenario_summary(ScenarioConfig(
    time_scale=0.01, n_clients=2, n_attackers=2, attack_style="syn"))
summary.as_payload()
cells_to_jsonl([summary])
summary.client_throughput_during_attack()
summary.server_throughput_during_attack()
summary.client_throughput_before_attack()
print("loaded:", sorted(name for name in ("numpy", "scipy", "networkx")
                        if name in sys.modules))
print("experiments:", sorted(
    name for name in ("ablations", "extensions", "validation",
                      "heterogeneous", "exp3_nash", "exp5_adoption")
    if "repro.experiments." + name in sys.modules))

params = repro.nash_difficulty(w_av=140630, alpha=1.1)
game = repro.ClientGame.homogeneous(15, 140630.0, 1100.0)
assert game.solve(params.expected_hashes).feasible
assert repro.StackelbergGame(game).solve_relaxed().total_rate > 0
print("nash:", params.k, params.m)
"""

#: A tiny SYN flood exported to JSONL in a fresh interpreter where
#: ``import numpy`` fails.
_NO_NUMPY_PROBE = """
import sys

sys.modules["numpy"] = None

from repro.experiments.scenario import ScenarioConfig
from repro.experiments.summary import run_scenario_summary
from repro.runner import cells_to_jsonl

sys.stdout.write(cells_to_jsonl([run_scenario_summary(ScenarioConfig(
    time_scale=0.01, n_clients=2, n_attackers=2, attack_style="syn"))]))
"""


def _run_probe(probe: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, timeout=120,
                          env=env)


class TestImportBudget:
    def test_simulation_path_skips_theory_dependencies(self):
        result = _run_probe(_IMPORT_BUDGET_PROBE)
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert "loaded: []" in lines, result.stdout
        assert "experiments: []" in lines, result.stdout
        assert "nash: 2 17" in lines, result.stdout

    def test_export_without_numpy_is_byte_identical(self):
        from repro.experiments.scenario import ScenarioConfig
        from repro.experiments.summary import run_scenario_summary
        from repro.runner import cells_to_jsonl

        result = _run_probe(_NO_NUMPY_PROBE)
        assert result.returncode == 0, result.stderr
        expected = cells_to_jsonl([run_scenario_summary(ScenarioConfig(
            time_scale=0.01, n_clients=2, n_attackers=2,
            attack_style="syn"))])
        assert result.stdout == expected


class TestExamples:
    def test_all_examples_compile(self):
        examples = sorted((ROOT / "examples").glob("*.py"))
        assert len(examples) >= 5
        for path in examples:
            py_compile.compile(str(path), doraise=True)

    def test_nash_tuning_example_runs(self):
        result = subprocess.run(
            [sys.executable, str(ROOT / "examples" / "nash_tuning.py")],
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert "(k=2, m=17)" in result.stdout

    def test_scripts_compile(self):
        for path in sorted((ROOT / "scripts").glob("*.py")):
            py_compile.compile(str(path), doraise=True)


class TestDocs:
    def test_required_documents_exist(self):
        for name in ("README.md", "DESIGN.md", "docs/THEORY.md",
                     "docs/IMPLEMENTATION.md", "docs/USAGE.md"):
            assert (ROOT / name).is_file(), name

    def test_design_indexes_every_figure(self):
        design = (ROOT / "DESIGN.md").read_text()
        for artifact in ("Fig 3(a)", "Fig 6", "Fig 7", "Fig 8", "Fig 9",
                         "Fig 10", "Fig 11", "Fig 12", "Fig 13",
                         "Fig 14", "Fig 15", "Table 1"):
            assert artifact in design, artifact

    def test_benchmarks_cover_every_figure(self):
        names = {p.name for p in (ROOT / "benchmarks").glob("bench_*.py")}
        expected = {
            "bench_fig3_profiles.py", "bench_nash_example.py",
            "bench_fig6_connection_time.py", "bench_fig7_syn_flood.py",
            "bench_fig8_11_connection_flood.py",
            "bench_fig12_difficulty_sweep.py",
            "bench_fig13_14_botnet.py", "bench_fig15_adoption.py",
            "bench_table1_iot.py", "bench_ablations.py",
            "bench_extensions.py", "bench_micro.py",
        }
        assert expected <= names
