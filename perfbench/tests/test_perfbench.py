"""Self-tests of the benchmark itself (not part of the repository suite).

Run from the repository root::

    python3 -m pytest perfbench/tests -q

They run the workloads at a small ``time_scale`` so the whole file takes
about a minute; the scale changes simulated time, not what is checked.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import time

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracing import ENTRY_POINTS, Tracer  # noqa: E402

SMALL = 0.01


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _command(*args: str) -> subprocess.CompletedProcess:
    spec = _spec()
    return subprocess.run(spec["command"] + list(args), cwd=ROOT,
                          capture_output=True, text=True, timeout=600)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_declared_metrics_match_the_code():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == bench.PER_LAYER
    # Every declared workload runs; `nash_sweep` runs but is not declared
    # (see NOTES.md).
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.NAMES)


@pytest.mark.parametrize("trace,table", [(0, "end_to_end"),
                                         (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, table):
    result = _result(_command("--workload", "chaos", "--seed", "1",
                              "--seconds", "1", "--trace", str(trace)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in _spec()[table]}
    printed = {name: body["unit"]
               for name, body in result["metrics"].items()}
    assert printed == declared
    for body in result["metrics"].values():
        assert isinstance(body["value"], (int, float))


def _worker_digest(seed: int) -> str:
    report, _ = bench.spawn("synflood", seed, "batch",
                            time.monotonic() + 120, ("--scale", str(SMALL)))
    assert report["failed"] == []
    return report["digest"]


def test_digest_is_stable_across_runs():
    first = _worker_digest(1)
    assert first == _worker_digest(1)
    assert first != _worker_digest(2)


def _traced_batch(name, entry_points=ENTRY_POINTS, profile="attribution"):
    tracer = Tracer(entry_points)
    tracer.install()
    try:
        cells = workloads.prepare(name, 1, SMALL, profile=profile).run()
    finally:
        tracer.uninstall()
    return tracer, cells


def test_full_tracing_keeps_the_fast_path():
    """Only SynFastPath.send wrapped vs every span plus the profiler: the
    other spans must not trip a fast-path escape hatch."""
    send_only = [entry for entry in ENTRY_POINTS
                 if entry[3] == "synfastpath.send"]
    narrow, _ = _traced_batch("synflood", send_only, profile=False)
    full, _ = _traced_batch("synflood")
    calls = full.calls[full.names.index("synfastpath.send")]
    assert calls == narrow.calls[0] > 0
    assert full.fastpath_accepted == narrow.fastpath_accepted


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_counters_equal_untraced(name):
    plain = workloads.prepare(name, 1, SMALL).run()
    tracer, traced = _traced_batch(name)
    assert workloads.counts(traced) == workloads.counts(plain)
    layers = tracer.layer_self()
    assert sum(layers.values()) == pytest.approx(tracer.root_total,
                                                 rel=1e-6)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(_spec()["command"] + [
        "--workload", "synflood", "--seed", "1", "--seconds", "1",
        "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
