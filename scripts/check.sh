#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green, in one command.
#
#   ./scripts/check.sh            # full suite
#   ./scripts/check.sh -m 'not slow'   # extra pytest args pass through
#
# Steps:
#   1. byte-compile the whole package (catches syntax errors everywhere,
#      including modules the tests do not import);
#   2. the tier-1 pytest suite;
#   3. the paper-claims gate: `tcp-puzzles validate` must reproduce all 14
#      claims (this also exercises the theory solvers end to end);
#   4. an observability smoke run: a tiny traced scenario through the CLI,
#      checking the SNMP counters are wired end to end;
#   5. a bench-compare smoke: a tiny run's manifest must self-compare
#      clean, and a perturbed-quantile copy must fail the gate;
#   6. a micro-bench smoke: the `perf micro` harness at a tiny scale must
#      self-compare clean through `perf compare`, and a perturbed per-op
#      p95 must fail the gate; the manifests land in benchmarks/output/
#      for the CI artifact upload;
#   7. a scheduler regression guard: the two engine micro-benchmarks
#      (timer_churn, engine_dispatch) run at full scale and are compared
#      direction-aware against the committed baseline — a throughput
#      collapse back toward heap-era numbers fails the gate, while
#      improvements only print notes;
#   8. a chaos smoke: a small fault matrix with the runtime invariant
#      checker attached must pass, and a deliberately corrupted queue
#      accounting must make the checker raise (the negative control);
#   9. a sustained-overload smoke: the graceful-degradation ladder under
#      a 10x-capacity SYN flood, one cell per syncache overflow policy,
#      each gated on bounded memory, bounded benign p99, and full
#      watchdog recovery; the overload series land in
#      benchmarks/output/overload/ for the CI artifact upload, and a
#      ladder-disabled manifest must stay free of overload blocks;
#  10. a streaming-telemetry smoke: two same-seed scenarios with the
#      sim-time sampler attached must produce byte-identical series
#      snapshots, a tiny `sweep --live` must leave a parseable status
#      file in benchmarks/output/ (the CI artifact), and `top --once`
#      must render it.

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== compileall =="
python -m compileall -q src

echo "== tier-1 tests =="
python -m pytest -x -q "$@"

echo "== paper claims =="
python -m repro.cli validate

echo "== observability smoke run =="
out=$(python -m repro.cli trace --duration 4 --clients 1 --attackers 0 \
      --attack none --flows 1)
head -n 12 <<<"$out"
grep -q "SYN segments arriving" <<<"$out" || {
    echo "smoke run: SynsRecv counter missing from the MIB dump" >&2
    exit 1
}
grep -q "server handshakes:" <<<"$out" || {
    echo "smoke run: drop-attribution summary missing" >&2
    exit 1
}

echo "== bench-compare smoke =="
smokedir=$(mktemp -d)
trap 'rm -rf "$smokedir"' EXIT
# One tiny run -> a baseline manifest, an identical current copy, and a
# copy with a perturbed latency quantile. Also drops the manifest into
# benchmarks/output/ so CI always has an artifact to upload.
python - "$smokedir" <<'PYEOF'
import json, pathlib, shutil, sys

from repro.experiments.scenario import ScenarioConfig
from repro.experiments.summary import run_scenario_summary
from repro.obs.manifest import summary_payload, write_manifest

root = pathlib.Path(sys.argv[1])
summary = run_scenario_summary(ScenarioConfig(
    time_scale=0.01, n_clients=2, n_attackers=2, attack_style="syn"))
payload = {"name": "smoke", **summary_payload(summary)}
write_manifest(root / "base" / "BENCH_smoke.json", payload)
shutil.copytree(root / "base", root / "cur")
write_manifest(pathlib.Path("benchmarks/output/BENCH_smoke.json"), payload)

bad_path = root / "bad" / "BENCH_smoke.json"
bad = json.loads((root / "base" / "BENCH_smoke.json").read_text())
quantiles = bad["histograms"]["handshake_latency.client"]["quantiles"]
quantiles["p95"] = quantiles["p95"] * 10.0
bad_path.parent.mkdir(parents=True)
bad_path.write_text(json.dumps(bad))
PYEOF
python -m repro.cli bench-compare "$smokedir/base" "$smokedir/cur" || {
    echo "bench-compare smoke: self-compare should pass" >&2
    exit 1
}
if python -m repro.cli bench-compare "$smokedir/base" "$smokedir/bad" \
        > /dev/null; then
    echo "bench-compare smoke: perturbed quantile should fail" >&2
    exit 1
fi

echo "== micro-bench smoke =="
# A tiny full-registry run -> micro manifests. The gate compares an
# identical copy (self-compare must pass regardless of wall noise), then
# a perturbed per-op p95 copy (must fail). The manifests also land in
# benchmarks/output/ so CI uploads them next to the scenario manifests.
python -m repro.cli perf micro --scale 0.05 --repeats 2 \
    --output "$smokedir/micro/base" > /dev/null
cp -r "$smokedir/micro/base" "$smokedir/micro/cur"
cp "$smokedir/micro/base"/BENCH_micro_*.json benchmarks/output/
python -m repro.cli perf compare "$smokedir/micro/base" \
    "$smokedir/micro/cur" || {
    echo "micro smoke: self-compare should pass" >&2
    exit 1
}
cp -r "$smokedir/micro/base" "$smokedir/micro/bad"
python - "$smokedir/micro/bad/BENCH_micro_timer_churn.json" <<'PYEOF'
import json, pathlib, sys

path = pathlib.Path(sys.argv[1])
body = json.loads(path.read_text())
body["histograms"]["micro_op.timer_churn"]["quantiles"]["p95"] *= 10.0
path.write_text(json.dumps(body))
PYEOF
if python -m repro.cli perf compare "$smokedir/micro/base" \
        "$smokedir/micro/bad" > /dev/null; then
    echo "micro smoke: perturbed per-op p95 should fail" >&2
    exit 1
fi
# Attribution profiler + flamegraph smoke on a tiny flood.
perf_out=$(python -m repro.cli perf profile --time-scale 0.01 \
    --clients 2 --attackers 1 --flame "$smokedir/flame.txt")
grep -q "per-component attribution:" <<<"$perf_out" || {
    echo "perf smoke: component attribution table missing" >&2
    exit 1
}
[ -s "$smokedir/flame.txt" ] || {
    echo "perf smoke: flamegraph export is empty" >&2
    exit 1
}

echo "== scheduler regression guard =="
# Full-scale run of the two engine micro-benchmarks, compared against
# the committed baseline. `perf compare` is direction-aware on the perf
# block (events_per_second down / wall_seconds up fails; improvements
# are notes), so a regression toward the heap-era scheduler fails here
# even though the deterministic work counters still match. The wide-ish
# bands absorb same-machine noise while still catching anything in the
# "lost the wheel" class (the rewrite moved these micros 7-10x).
# The committed baseline was measured with the compiled core active; a
# host without a working C toolchain falls back to the pure-Python wheel
# (~8x slower on these micros, deliberately), so the throughput band is
# only meaningful when the compiled core actually loaded.
if python -c "from repro.sim.engine import CEngine; import sys; \
sys.exit(0 if CEngine is not None else 1)"; then
    mkdir -p "$smokedir/sched/base"
    cp benchmarks/output/baseline/BENCH_micro_timer_churn.json \
       benchmarks/output/baseline/BENCH_micro_engine_dispatch.json \
       "$smokedir/sched/base/"
    python -m repro.cli perf micro timer_churn engine_dispatch \
        --output "$smokedir/sched/cur" > /dev/null
    python -m repro.cli perf compare "$smokedir/sched/base" \
        "$smokedir/sched/cur" --perf-tolerance 0.6 \
        --quantile-tolerance 0.8 || {
        echo "scheduler guard: engine micro throughput regressed below baseline" >&2
        exit 1
    }
else
    echo "scheduler guard: compiled engine unavailable, skipping" \
         "throughput band (counters still gated by the CI baseline step)"
fi

echo "== chaos smoke =="
# A small fault matrix with invariants on every cell. --output drops the
# resilience manifest where CI picks up benchmark artifacts.
chaos_out=$(python -m repro.cli chaos --time-scale 0.01 --clients 2 \
      --attackers 1 --faults loss-burst corruption \
      --output benchmarks/output)
echo "$chaos_out" | tail -n 4
grep -q "zero violations" <<<"$chaos_out" || {
    echo "chaos smoke: invariant summary line missing" >&2
    exit 1
}
# Negative control: seeded queue-accounting corruption must be *caught*.
python - <<'PYEOF'
import sys

sys.path.insert(0, ".")
from tests.conftest import MiniNet

from repro.faults import InvariantChecker, InvariantViolation
from repro.tcp.listener import DefenseConfig

net = MiniNet()
listener = net.server.tcp.listen(80, DefenseConfig())
net.client.tcp.connect(net.server.address, 80)
net.run(until=1.0)
checker = InvariantChecker(listener)
checker.check_now()                      # clean state must audit clean
listener.listen_queue.admitted += 1      # seed a bookkeeping bug
try:
    checker.check_now()
except InvariantViolation as exc:
    print(f"negative control: caught {exc.invariant!r} as expected")
else:
    sys.exit("chaos smoke: checker missed seeded queue corruption")
PYEOF

echo "== sustained-overload smoke =="
# The full ladder — budgeted sharded syncache, syncookie fallback,
# admission control, watchdog — against a flood ~10x the cache budget.
# The command itself exits non-zero if any cell fails its verdict
# (bounded memory, bounded benign p99, OVERLOAD reached and walked back
# to NORMAL, every establishment MIB-attributed to cache or fallback).
python -m repro.cli chaos --overload --time-scale 0.05 --clients 2 \
      --attackers 2 --output benchmarks/output/overload || {
    echo "overload smoke: sustained-overload matrix failed" >&2
    exit 1
}
# Assert the manifest records what the gate claims: memory bounded,
# recovery complete, and a non-empty repro_overload_state series per cell.
python - <<'PYEOF'
import json, sys

body = json.loads(
    open("benchmarks/output/overload/BENCH_chaos.json").read())
verdicts = body["overload_verdicts"]
for label, verdict in sorted(verdicts.items()):
    if not verdict["checks"]["memory_bounded"]:
        sys.exit(f"overload smoke: {label} exceeded its memory budget")
    if not verdict["checks"]["recovered_to_normal"]:
        sys.exit(f"overload smoke: {label} did not recover to NORMAL")
for label, block in sorted(body["overload"].items()):
    if not block["series"]["samples"]:
        sys.exit(f"overload smoke: {label} uploaded an empty "
                 "repro_overload_state series")
print(f"overload smoke: {len(verdicts)} cells bounded and recovered")
PYEOF
# Ladder-disabled runs must not grow an overload block — the manifest
# written by the bench-compare smoke above ran without config.overload.
python - <<'PYEOF'
import json, sys

body = json.loads(open("benchmarks/output/BENCH_smoke.json").read())
if "overload" in body:
    sys.exit("overload smoke: ladder-disabled manifest grew an "
             "overload block — detached runs are no longer identical")
print("overload smoke: ladder-disabled manifest clean")
PYEOF

echo "== streaming telemetry smoke =="
# Two same-seed runs with the sampler and the attribution sketches
# attached must produce byte-identical telemetry snapshots — the
# determinism contract the manifests and the sweep cache both rely on.
python - <<'PYEOF'
import json
import sys

from repro.experiments.scenario import ScenarioConfig
from repro.obs import TelemetrySpec

from repro.experiments.summary import run_scenario_summary

config = ScenarioConfig(
    seed=11, time_scale=0.02, n_clients=2, n_attackers=2,
    attack_style="syn",
    telemetry=TelemetrySpec(attribution=True))
snapshots = []
for _ in range(2):
    summary = run_scenario_summary(config)
    snapshots.append(json.dumps(
        {"timeseries": {name: summary.timeseries[name].as_payload()
                        for name in sorted(summary.timeseries)},
         "attribution": summary.attribution},
        sort_keys=True))
if not snapshots[0]:
    sys.exit("telemetry smoke: sampler produced no series")
if snapshots[0] != snapshots[1]:
    sys.exit("telemetry smoke: same-seed runs disagree — the sampler "
             "is not deterministic")
print("telemetry smoke: same-seed snapshots byte-identical "
     f"({len(snapshots[0])} bytes)")
PYEOF
# A tiny monitored sweep writes the live status file where CI picks up
# artifacts, then `top --once` must render it (plain, exit 0).
python -m repro.cli sweep iot --time-scale 0.01 --replicates 2 \
    --quiet --status-file benchmarks/output/sweep_status.json \
    > /dev/null
top_out=$(python -m repro.cli top --once \
    --status-file benchmarks/output/sweep_status.json)
head -n 3 <<<"$top_out"
grep -q "tcp-puzzles sweep" <<<"$top_out" || {
    echo "telemetry smoke: top --once did not render the sweep header" >&2
    exit 1
}
grep -q "cells 2/2 done" <<<"$top_out" || {
    echo "telemetry smoke: top --once shows an unfinished sweep" >&2
    exit 1
}

echo "== all checks passed =="
