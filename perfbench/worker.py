"""One fresh benchmark process: set up, run one batch, report JSON.

Run by ``run.py`` with ``PYTHONPATH=src`` from the checkout root::

    python3 perfbench/worker.py --workload synflood --seed 1 --mode batch

Modes:

* ``setup``  — imports and config construction only (a set-up sample);
* ``batch``  — one untraced batch of the workload's cells;
* ``traced`` — the same batch with every layer span and the attribution
  profiler attached;
* ``replay`` — the unit-cost replays (no workload cells).

The last line of standard output is one JSON object. ``ready_mono`` is
``time.monotonic()`` when set-up ended; the parent subtracts its own
spawn time on the same clock.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "batch", "traced", "replay"))
    parser.add_argument("--scale", type=float, default=None,
                        help="override the workload's time_scale "
                        "(self-tests only)")
    parser.add_argument("--spans", default=None,
                        help="write the traced run's spans here")
    args = parser.parse_args(argv)

    import workloads

    if args.mode == "replay":
        import replay

        print(json.dumps({"unit_costs": replay.run_all()}))
        return 0

    traced = args.mode == "traced"
    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    workload = workloads.prepare(args.workload, args.seed, args.scale,
                                 profile="attribution" if traced else False)
    out = {"ready_mono": time.monotonic(), "env": environment()}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    start = time.perf_counter()
    cells = workload.run()
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    failures = workload.check(cells)
    for label, reason in cells.errors.items():
        failures.setdefault(label, []).append(reason)
    out.update(
        wall_s=wall,
        rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        cells=len(cells.labels),
        failed=workloads.failed_labels(cells, failures),
        failures=failures,
        digest=workloads.digest(cells) if not cells.errors else None,
        counts=workloads.counts(cells),
        cell_walls=cells.cell_walls,
    )
    if tracer is not None:
        out["trace"] = trace_report(tracer, wall)
        if args.spans:
            out["trace"]["spans_written"] = tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


def environment() -> dict:
    """What the run adopted: engine/fabric classes, Python, CPU count."""
    import platform

    import repro.net.fabric as fabric
    import repro.sim.engine as engine

    return {
        "engine": f"{engine.Engine.__module__}.{engine.Engine.__name__}",
        "fabric": (f"{fabric.FabricPath.__module__}."
                   f"{fabric.FabricPath.__name__}"),
        "c_core": int(engine.CEngine is not None
                      and engine.Engine is engine.CEngine),
        "c_fabric": int(fabric.CFabricPath is not None
                        and fabric.FabricPath is fabric.CFabricPath),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def trace_report(tracer, wall: float) -> dict:
    from tracing import SYN_DELIVER

    return {
        "wall_s": wall,
        "layer_self_s": tracer.layer_self(),
        "root_s": tracer.root_total,
        "send_calls": tracer.calls[tracer.names.index("synfastpath.send")],
        "send_accepted": tracer.fastpath_accepted,
        "issue_self_s": tracer.span_own("puzzles.issue_preimage",
                                        "puzzles.make_challenge"),
        "verify_self_s": tracer.span_own("puzzles.verify"),
        "build_s": tracer.span_total("scenario.build"),
        "summarize_s": tracer.span_total("summarize"),
        "map_s": tracer.span_total("runner.map"),
        "syn_deliver_split": tracer.frame_split(SYN_DELIVER),
    }


if __name__ == "__main__":
    sys.exit(main())
