"""Unit-cost replays: the per-operation cost of each layer's hot call.

Each replay drives one public function directly, outside any simulation
run, and reports microseconds per call as the median of ``REPEATS``
timed rounds. Together with the traced run's work counters they form
the layer budget: count x unit cost, set against traced self time.

The engine, fabric and syncache figures reuse the repository's own
micro-benchmarks (``repro.obs.microbench.run_benchmark``).
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter
from typing import Callable, Dict

REPEATS = 5
SYNS = 20_000
ISSUES = 50_000
VERIFIES = 20_000
FOLDS = 50_000
#: The fig7 flood's aggregate SYN rate (10 bots x 500/s): replayed folds
#: are spaced at its inter-arrival so the links drain as in the flood.
FLOOD_GAP_S = 1.0 / 5000.0


def _median_us(round_fn: Callable[[], int]) -> float:
    """Median over ``REPEATS`` rounds of wall / operations, in µs."""
    per_op = []
    for _ in range(REPEATS):
        start = perf_counter()
        ops = round_fn()
        per_op.append((perf_counter() - start) / ops)
    return statistics.median(per_op) * 1e6


def _flood_scenario():
    """A built (not run) fig7 m17 scenario whose listener challenges
    every SYN, as it does while a flood keeps its queue full."""
    from repro.experiments.scenario import Scenario, ScenarioConfig
    from repro.puzzles.params import PuzzleParams

    config = ScenarioConfig(seed=1, time_scale=0.05, attack_style="syn",
                            puzzle_params=PuzzleParams(k=2, m=17),
                            always_challenge=True)
    return Scenario(config).build()


def syn_triage_us() -> float:
    """``ListenSocket.handle_syn`` per spoofed SYN (challenge issued,
    reply blackholed)."""
    from repro.net.packet import FLAG_SYN, Packet, mss_options
    from repro.tcp.constants import DEFAULT_MSS

    result = _flood_scenario()
    listener = result.server_app.listener
    server_ip = result.hosts["server"].address
    rng = random.Random(7)
    packets = [Packet(src_ip=0x0B000000 + rng.getrandbits(20),
                      dst_ip=server_ip, src_port=1024 + i % 60000,
                      dst_port=listener.port, seq=rng.getrandbits(32),
                      flags=FLAG_SYN, options=mss_options(DEFAULT_MSS))
                   for i in range(SYNS)]
    handle_syn = listener.handle_syn

    def round_fn() -> int:
        for packet in packets:
            handle_syn(packet)
        return len(packets)

    return _median_us(round_fn)


def fold_us() -> float:
    """``FabricPath.fold`` of one SYN over the fig7 attacker->server
    path, through ``SynFastPath``'s cached path."""
    from repro.net.floodpath import SynFastPath

    result = _flood_scenario()
    attacker = result.hosts["attacker0"]
    server = result.hosts["server"]
    fast = SynFastPath(attacker.network, attacker, server,
                       result.server_app.listener.port)
    fold, size = fast.path.fold, fast.size
    clock = [0.0]

    def round_fn() -> int:
        now = clock[0]
        for _ in range(FOLDS):
            fold(now, size)
            now += FLOOD_GAP_S
        clock[0] = now
        return FOLDS

    return _median_us(round_fn)


def issue_us() -> float:
    """``JuelsBrainardScheme.issue_preimage`` per challenge at (2,17)."""
    from repro.puzzles.juels import JuelsBrainardScheme
    from repro.puzzles.params import PuzzleParams

    scheme = JuelsBrainardScheme()
    params = PuzzleParams(k=2, m=17)
    issue = scheme.issue_preimage

    def round_fn() -> int:
        for i in range(ISSUES):
            issue(params, 0x0B000000 + i, 0x0A000001, 1024 + i % 60000,
                  80, i, i * 1e-4)
        return ISSUES

    return _median_us(round_fn)


def verify_us() -> float:
    """``JuelsBrainardScheme.verify`` per valid (2,17) solution."""
    from repro.puzzles.juels import (FlowBinding, JuelsBrainardScheme,
                                     ModeledSolver)
    from repro.puzzles.params import PuzzleParams

    scheme = JuelsBrainardScheme()
    params = PuzzleParams(k=2, m=17)
    rng = random.Random(11)
    solver = ModeledSolver()
    cases = []
    for i in range(VERIFIES):
        binding = FlowBinding(src_ip=0x0B000000 + i, dst_ip=0x0A000001,
                              src_port=1024 + i % 60000, dst_port=80,
                              isn=i)
        challenge = scheme.make_challenge(params, binding, 1.0)
        cases.append((solver.solve(challenge, rng), binding))
    verify = scheme.verify

    def round_fn() -> int:
        for solution, binding in cases:
            if not verify(solution, binding, 1.0, params, rng).ok:
                raise AssertionError("replayed solution failed verify")
        return len(cases)

    return _median_us(round_fn)


def micro_us(name: str, ops_counter: str) -> float:
    """A registered micro-benchmark's best wall per *ops_counter* op."""
    from repro.obs.microbench import run_benchmark

    result = run_benchmark(name, repeats=3)
    return result.best_wall / result.counters[ops_counter] * 1e6


def run_all() -> Dict[str, float]:
    """Every unit cost, keyed by its metric name."""
    return {
        "sim.us_per_event": micro_us("engine_dispatch", "processed"),
        "net.fold_us": fold_us(),
        "tcp.us_per_syn": syn_triage_us(),
        "puzzles.issue_us": issue_us(),
        "puzzles.verify_us": verify_us(),
        "micro.fabric_fold_us": micro_us("fabric_fold", "folds"),
        "micro.syncache_churn_us": micro_us("syncache_churn",
                                            "insertions"),
    }
