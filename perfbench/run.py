"""The repository benchmark: host-time cost of the paper's flood runs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload synflood --seed 1 --seconds 15 \
        --trace 0

Workloads (see ``workloads.py`` and ``NOTES.md``): ``synflood`` (the
Fig 7 suite), ``nash_sweep`` (the Fig 12 grid) and ``chaos`` (the
fault-injection matrix).

``--trace 0`` runs untraced batches, each in a fresh process, until
``--seconds`` of batch time have passed, plus extra set-up-only
processes, and reports the end-to-end metrics as medians. ``--trace 1``
runs one untraced batch, one traced batch and the unit-cost replays, and
reports the per-layer metrics. Every batch is checked for correctness
and prints the sha256 digest of its simulated statistics.

The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: End-to-end metrics: name -> unit.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

#: Per-layer metrics: name -> unit.
PER_LAYER = {
    "sim.events": "count", "sim.events_scheduled": "count",
    "sim.cancel_ratio": "ratio", "sim.heap_high_water": "count",
    "sim.self_s": "s", "sim.us_per_event": "us", "sim.c_core": "flag",
    "net.self_s": "s", "net.fastpath_share": "ratio", "net.fold_us": "us",
    "net.c_fabric": "flag",
    "tcp.syns": "count", "tcp.self_s": "s", "tcp.us_per_syn": "us",
    "tcp.established": "count", "tcp.accept_overflows": "count",
    "tcp.syncache_inserts": "count", "tcp.syncache_evictions": "count",
    "tcp.syncache_hit_ratio": "ratio", "tcp.cookie_fallbacks": "count",
    "tcp.admission_drops": "count",
    "puzzles.issued": "count", "puzzles.issue_self_s": "s",
    "puzzles.issue_us": "us", "puzzles.verified": "count",
    "puzzles.rejected": "count", "puzzles.verify_self_s": "s",
    "puzzles.verify_us": "us", "puzzles.yield": "ratio",
    "hosts.self_s": "s", "hosts.solves": "count",
    "hosts.abandon_ratio": "ratio", "hosts.requests_served": "count",
    "obs.self_s": "s", "obs.series_samples": "count",
    "faults.invariant_checks": "count", "faults.self_s": "s",
    "experiments.build_s": "s", "experiments.summarize_s": "s",
    "runner.overhead_s": "s",
    "split.syn_deliver.net": "ratio", "split.syn_deliver.tcp": "ratio",
    "split.syn_deliver.puzzles": "ratio",
    "budget.sim": "ratio", "budget.net": "ratio", "budget.tcp": "ratio",
    "budget.puzzles": "ratio",
    "micro.fabric_fold_us": "us", "micro.syncache_churn_us": "us",
    "trace.self_s": "s", "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio", "bench.calib_s": "s",
}

#: Set-up samples per untraced run (batch processes count toward it).
SETUP_SAMPLES = 5
#: A run must end within 180 s: no worker may outlive this many seconds
#: after the run started, and no batch starts that could not finish.
DEADLINE_S = 175.0


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed check)."""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("synflood", "nash_sweep", "chaos"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run from the "
              f"root of a full checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            result = traced_run(args.workload, args.seed, deadline)
        else:
            result = untraced_run(args.workload, args.seed, args.seconds,
                                  deadline)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
def spawn(workload: str, seed: int, mode: str, deadline: float,
          extra: Tuple[str, ...] = ()) -> Tuple[dict, float]:
    """Run one worker process, killed at *deadline* (``time.monotonic``);
    returns its report and its spawn time on the same clock."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"out of time before the {mode} worker")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    argv = [sys.executable, str(HERE / "worker.py"), "--workload",
            workload, "--seed", str(seed), "--mode", mode, *extra]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker for {workload} timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr or "").strip()[-2000:]
        raise BenchError(f"{mode} worker for {workload} exited "
                         f"{proc.returncode}:\n{tail}")
    return json.loads(lines[-1]), spawned


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop of heap, dict and sha256
    work: a host-speed probe recorded beside every run (never used to
    rescale the metrics)."""
    import hashlib
    import heapq

    start = time.perf_counter()
    heap: List[int] = []
    table: Dict[int, int] = {}
    digest = b""
    for i in range(200_000):
        heapq.heappush(heap, (i * 7919) % 100_003)
        table[i % 4096] = table.get(i % 4096, 0) + i
        if i % 8 == 0:
            digest = hashlib.sha256(digest + i.to_bytes(4, "big")).digest()
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - start


def note(text: str) -> None:
    print(text, flush=True)


def untraced_run(workload: str, seed: int, seconds: float,
                 deadline: float) -> dict:
    calib = calibrate()
    batches: List[dict] = []
    setups: List[float] = []
    measured = 0.0
    longest = 0.0
    while not batches or (measured < seconds and time.monotonic()
                          + longest < deadline - 15.0):
        report, spawned = spawn(workload, seed, "batch", deadline)
        batches.append(report)
        setups.append(report["ready_mono"] - spawned)
        measured += report["wall_s"]
        longest = max(longest, time.monotonic() - spawned)
    while len(setups) < SETUP_SAMPLES and time.monotonic() < deadline - 10:
        report, spawned = spawn(workload, seed, "setup", deadline)
        setups.append(report["ready_mono"] - spawned)

    attempted = sum(batch["cells"] for batch in batches)
    failed = sum(len(batch["failed"]) for batch in batches)
    digests = {batch["digest"] for batch in batches}
    deterministic = len(digests) == 1 and None not in digests
    if not deterministic:
        note(f"DIGEST MISMATCH across batches of one seed: {digests}")
    report_env(batches[0]["env"], calib)
    for batch in batches:
        for label, reasons in batch["failures"].items():
            note(f"cell {label!r} FAILED: {'; '.join(reasons)}")
    metrics = {
        "wall_s": statistics.median(b["wall_s"] for b in batches),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(b["rss_kb"] for b in batches)
        / 1024.0,
    }
    note(f"workload={workload} seed={seed} batches={len(batches)} "
         f"setup_samples={len(setups)} cells={attempted} "
         f"cells_failed={failed}")
    note(f"digest sha256={batches[0]['digest']}")
    note("batch wall_s " + " ".join(f"{b['wall_s']:.4f}" for b in batches)
         + "; setup_s " + " ".join(f"{s:.4f}" for s in setups))
    for name, value in metrics.items():
        note(f"{name}={value:.6g} {END_TO_END[name]}")
    return {
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": END_TO_END[name]}
                    for name, value in metrics.items()},
    }


def report_env(env: dict, calib: float) -> None:
    note("env " + json.dumps(dict(env, calib_s=calib), sort_keys=True))


def traced_run(workload: str, seed: int, deadline: float) -> dict:
    calib = calibrate()
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-{seed}.jsonl"
    plain, _ = spawn(workload, seed, "batch", deadline)
    traced, _ = spawn(workload, seed, "traced", deadline,
                      ("--spans", str(spans_path)))
    units, _ = spawn(workload, seed, "replay", deadline)
    report_env(traced["env"], calib)

    same_counts = plain["counts"] == traced["counts"]
    if not same_counts:
        note("traced counters differ from untraced counters")
    failed = len(plain["failed"]) + len(traced["failed"])
    for batch in (plain, traced):
        for label, reasons in batch["failures"].items():
            note(f"cell {label!r} FAILED: {'; '.join(reasons)}")
    metrics, budget = layer_metrics(plain, traced, units["unit_costs"],
                                    calib)
    note(f"workload={workload} seed={seed} digest "
         f"sha256={plain['digest']} spans={spans_path}")
    render_budget(metrics, traced["trace"]["layer_self_s"], budget)
    return {
        "correct": failed == 0 and same_counts,
        "attempted": plain["cells"] + traced["cells"],
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in PER_LAYER.items()},
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(plain: dict, traced: dict, units: Dict[str, float],
                  calib: float
                  ) -> Tuple[Dict[str, float],
                             Dict[str, Tuple[float, float]]]:
    """The per-layer metrics, and the layer budget as
    layer -> (predicted s, traced self s)."""
    counts = plain["counts"]
    trace = traced["trace"]
    layers = trace["layer_self_s"]
    wall = traced["wall_s"]
    split = trace["syn_deliver_split"] or {}
    m: Dict[str, float] = dict(units)
    m.update({
        "sim.events": counts["events"],
        "sim.events_scheduled": counts["events_scheduled"],
        "sim.cancel_ratio": _ratio(counts["events_cancelled"],
                                   counts["events_scheduled"]),
        "sim.heap_high_water": counts["heap_high_water"],
        "sim.c_core": traced["env"]["c_core"],
        "net.fastpath_share": _ratio(trace["send_accepted"],
                                     trace["send_calls"]),
        "net.c_fabric": traced["env"]["c_fabric"],
        "tcp.syns": counts["SynsRecv"],
        "tcp.established": counts["established"],
        "tcp.accept_overflows": counts["AcceptOverflows"],
        "tcp.syncache_inserts": counts["SynCacheAdded"],
        "tcp.syncache_evictions": counts["SynCacheEvictions"],
        "tcp.syncache_hit_ratio": _ratio(
            counts["SynCacheHits"],
            counts["SynCacheHits"] + counts["SynCacheMisses"]),
        "tcp.cookie_fallbacks": counts["SynCacheCookieFallback"],
        "tcp.admission_drops": counts["AdmissionDrops"],
        "puzzles.issued": counts["PuzzlesIssued"],
        "puzzles.issue_self_s": trace["issue_self_s"],
        "puzzles.verified": counts["PuzzlesVerified"],
        "puzzles.rejected": counts["PuzzlesRejected"],
        "puzzles.verify_self_s": trace["verify_self_s"],
        "puzzles.yield": _ratio(counts["PuzzlesVerified"],
                                counts["PuzzlesIssued"]),
        "hosts.solves": counts["PuzzlesSolved"],
        "hosts.abandon_ratio": _ratio(counts["ChallengesAbandoned"],
                                      counts["ChallengesReceived"]),
        "hosts.requests_served": counts["RequestsServed"],
        "obs.series_samples": counts["series_samples"],
        "faults.invariant_checks": counts["invariant_checks"],
        "experiments.build_s": trace["build_s"],
        "experiments.summarize_s": trace["summarize_s"],
        "runner.overhead_s": trace["map_s"] - sum(traced["cell_walls"]),
        "split.syn_deliver.net": split.get("net", 0.0),
        "split.syn_deliver.tcp": split.get("tcp", 0.0),
        "split.syn_deliver.puzzles": split.get("puzzles", 0.0),
        "trace.overhead_ratio": _ratio(wall, plain["wall_s"]),
        "trace.coverage": _ratio(sum(layers.values()), wall),
        "bench.calib_s": calib,
    })
    for layer in ("sim", "net", "tcp", "puzzles", "hosts", "obs",
                  "faults", "trace"):
        m[f"{layer}.self_s"] = layers[layer]
    # Layer budget: deterministic count x replayed unit cost, against the
    # traced self time of the layer(s) that do that work.
    predicted = {
        "sim": m["sim.events"] * m["sim.us_per_event"],
        "net": trace["send_accepted"] * m["net.fold_us"],
        "tcp": m["tcp.syns"] * m["tcp.us_per_syn"],
        "puzzles": (m["puzzles.issued"] * m["puzzles.issue_us"]
                    + m["puzzles.verified"] * m["puzzles.verify_us"]),
    }
    observed = {
        "sim": layers["sim"], "net": layers["net"],
        "tcp": layers["tcp"] + trace["issue_self_s"],
        "puzzles": layers["puzzles"],
    }
    budget = {layer: (us * 1e-6, observed[layer])
              for layer, us in predicted.items()}
    for layer, (seconds, traced_s) in budget.items():
        m[f"budget.{layer}"] = _ratio(seconds, traced_s)
    return m, budget


def render_budget(m: Dict[str, float], layers: Dict[str, float],
                  budget: Dict[str, Tuple[float, float]]) -> None:
    note("layer self time (traced) and budget (count x unit cost):")
    wall = sum(layers.values())
    for layer, value in sorted(layers.items(), key=lambda kv: -kv[1]):
        note(f"  {layer:<12} {value:9.3f} s  {100 * value / wall:5.1f}%")
    note(f"  coverage {m['trace.coverage']:.4f} of traced wall (gap "
         f"{100 * (1 - m['trace.coverage']):.2f}% outside any span); "
         f"tracing overhead x{m['trace.overhead_ratio']:.2f}")
    for layer, (predicted, observed) in budget.items():
        note(f"  budget {layer:<8} predicted {predicted:8.3f} s  traced "
             f"{observed:8.3f} s  gap {observed - predicted:+8.3f} s")
    note(f"  SynFastPath._deliver split: net "
         f"{m['split.syn_deliver.net']:.3f} tcp "
         f"{m['split.syn_deliver.tcp']:.3f} puzzles "
         f"{m['split.syn_deliver.puzzles']:.3f}")


if __name__ == "__main__":
    sys.exit(main())
