"""Ablations beyond the paper's figures, for the design choices DESIGN.md
calls out.

* :func:`controller_ablation` — opportunistic (queue-triggered) versus
  always-on challenges: quantifies what the opportunistic controller buys
  benign clients when there is *no* attack, and costs during one.
* :func:`expiry_window_ablation` — replay-defence window versus the rate a
  replaying attacker can sustain (§7 "Replay attacks").
* :func:`syncache_ablation` — SYN-cache capacity versus SYN-flood survival
  (§2.1's argument that caches fail against large botnets).
* :func:`finite_n_convergence` — how fast the exact finite-N Stackelberg
  optimum approaches Theorem 1's asymptotic ``w_av/(α+1)`` (Appendix A).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from repro.core.equilibrium import ClientGame
from repro.core.stackelberg import StackelbergGame
from repro.core.theorem import equilibrium_difficulty
from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.metrics.series import in_window
from repro.metrics.summary import mean
from repro.puzzles.juels import (
    FlowBinding,
    JuelsBrainardScheme,
    ModeledSolver,
)
from repro.puzzles.params import PuzzleParams
from repro.puzzles.replay import ExpiryPolicy
from repro.tcp.constants import DefenseMode
from repro.tcp.syncache import SynCache


@dataclass(frozen=True)
class ControllerAblationRow:
    controller: str                 # "opportunistic" | "always-on"
    attack: bool
    client_mean_mbps: float
    client_completion_percent: float
    challenges_sent: int
    attacker_established_rate: float


def controller_ablation(base: Optional[ScenarioConfig] = None
                        ) -> List[ControllerAblationRow]:
    """Opportunistic vs always-on challenges, with and without attack."""
    rows = []
    for always in (False, True):
        for attack in (False, True):
            config = base if base is not None else ScenarioConfig()
            config = replace(config, defense=DefenseMode.PUZZLES,
                             attack_style="connect",
                             attack_enabled=attack)
            scenario = Scenario(config)
            result = scenario.build()
            result.server_app.listener.config.always_challenge = always
            _run_built(scenario, result)
            start, end = result.attack_window()
            times, mbps = result.client_throughput.rx_mbps(config.duration)
            rows.append(ControllerAblationRow(
                controller="always-on" if always else "opportunistic",
                attack=attack,
                client_mean_mbps=mean(in_window(times, mbps, start, end)),
                client_completion_percent=result.client_completion_percent(),
                challenges_sent=result.listener_stats.synacks_challenge,
                attacker_established_rate=(
                    result.attacker_established_rate())))
    return rows


def _run_built(scenario: Scenario, result) -> None:
    """Drive an already-built scenario the way Scenario.run does."""
    config = scenario.config
    for client in result.clients:
        client.start()
    result.cpu.start()
    result.queues.start()
    if result.botnet is not None:
        result.engine.schedule_at(config.attack_start, result.botnet.start)
        result.engine.schedule_at(config.attack_end, result.botnet.stop)
    result.engine.run(until=config.duration)
    for client in result.clients:
        client.stop()
    result.cpu.stop()
    result.queues.stop()
    result.engine.drain()


@dataclass(frozen=True)
class ExpiryAblationRow:
    window: float
    replayed: int
    accepted: int

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.replayed if self.replayed else 0.0


def expiry_window_ablation(windows: Sequence[float] = (0.5, 2.0, 8.0, 32.0),
                           replay_delay: float = 4.0,
                           replays: int = 200) -> List[ExpiryAblationRow]:
    """How the expiry window bounds a replay flood.

    An attacker captures a fresh, valid solution and replays it
    *replay_delay* seconds later, *replays* times. Windows shorter than
    the delay reject everything; longer windows accept the replay — but
    (per §7) each replayed solution can still occupy only one queue slot,
    since it binds one flow 4-tuple.
    """
    rows = []
    solver = ModeledSolver()
    import random

    for window in windows:
        scheme = JuelsBrainardScheme(expiry=ExpiryPolicy(window=window))
        params = PuzzleParams(k=2, m=8)
        binding = FlowBinding(0x0A0000FE, 0x0A000001, 40000, 80, 1234)
        challenge = scheme.make_challenge(params, binding, now=0.0)
        solution = solver.solve(challenge, random.Random(3))
        accepted = 0
        for i in range(replays):
            verdict = scheme.verify(solution, binding,
                                    now=replay_delay + i * 1e-3,
                                    params=params)
            if verdict.ok:
                accepted += 1
        rows.append(ExpiryAblationRow(window=window, replayed=replays,
                                      accepted=accepted))
    return rows


@dataclass(frozen=True)
class SynCacheAblationRow:
    capacity: int
    attack_rate: float
    evictions: int
    survival_fraction: float   # half-opens outliving a benign RTT


def syncache_ablation(bucket_counts: Sequence[int] = (64, 256, 1024),
                      attack_rates: Sequence[float] = (500.0, 5000.0),
                      benign_rtt: float = 0.01,
                      duration: float = 2.0) -> List[SynCacheAblationRow]:
    """§2.1's cache-churn argument, measured directly on the cache.

    Inserts a benign entry, floods the cache at the attack rate, and
    checks whether the benign entry is still present one RTT later.
    """
    import random

    rows = []
    for buckets in bucket_counts:
        for rate in attack_rates:
            rng = random.Random(buckets * 7 + int(rate))
            cache = SynCache(bucket_count=buckets, bucket_limit=8)
            survived = 0
            trials = 50
            for trial in range(trials):
                flow = (0x0A000000 + trial, 40000 + trial, 80)
                from repro.tcp.syncache import CacheEntry

                cache.insert(CacheEntry(flow=flow, remote_isn=1,
                                        local_isn=2, mss=1460, wscale=7,
                                        created_at=0.0))
                flood = int(rate * benign_rtt)
                for i in range(flood):
                    attacker_flow = (rng.getrandbits(32),
                                     rng.randrange(1024, 65536), 80)
                    cache.insert(CacheEntry(flow=attacker_flow,
                                            remote_isn=1, local_isn=2,
                                            mss=1460, wscale=None,
                                            created_at=0.0))
                if cache.complete(flow) is not None:
                    survived += 1
            rows.append(SynCacheAblationRow(
                capacity=cache.capacity, attack_rate=rate,
                evictions=cache.evictions,
                survival_fraction=survived / trials))
    return rows


@dataclass(frozen=True)
class EvictionPolicyAblationRow:
    policy: str
    attack_rate: float
    evictions: int
    rejected: int
    survival_fraction: float   # benign half-opens outliving one RTT


def eviction_policy_ablation(attack_rates: Sequence[float] = (500.0,
                                                              5000.0),
                             benign_rtt: float = 0.01,
                             bucket_count: int = 64,
                             trials: int = 50
                             ) -> List[EvictionPolicyAblationRow]:
    """Overflow-policy shoot-out on the syncache_ablation workload.

    Same benign-survival probe as :func:`syncache_ablation`, but the
    cache size is fixed and the overflow policy varies: oldest-per-bucket
    (FreeBSD's churn), random-evict (an attacker can't target the oldest
    slot), and reject-new (residents are never displaced, new arrivals
    pay the cost).
    """
    import random

    from repro.tcp.syncache import OVERFLOW_POLICIES, CacheEntry

    rows = []
    for policy in OVERFLOW_POLICIES:
        for rate in attack_rates:
            rng = random.Random(f"evict/{policy}/{rate}")
            cache = SynCache(bucket_count=bucket_count, bucket_limit=8,
                             policy=policy)
            survived = 0
            for trial in range(trials):
                flow = (0x0A000000 + trial, 40000 + trial, 80)
                cache.insert(CacheEntry(flow=flow, remote_isn=1,
                                        local_isn=2, mss=1460, wscale=7,
                                        created_at=0.0))
                for _ in range(int(rate * benign_rtt)):
                    attacker_flow = (rng.getrandbits(32),
                                     rng.randrange(1024, 65536), 80)
                    cache.insert(CacheEntry(flow=attacker_flow,
                                            remote_isn=1, local_isn=2,
                                            mss=1460, wscale=None,
                                            created_at=0.0))
                if cache.complete(flow) is not None:
                    survived += 1
            rows.append(EvictionPolicyAblationRow(
                policy=policy, attack_rate=rate,
                evictions=cache.evictions, rejected=cache.rejected,
                survival_fraction=survived / trials))
    return rows


@dataclass(frozen=True)
class ConvergenceRow:
    n_users: int
    exact_difficulty: float
    asymptotic_difficulty: float

    @property
    def relative_gap(self) -> float:
        return abs(self.exact_difficulty - self.asymptotic_difficulty) \
            / self.asymptotic_difficulty


def finite_n_convergence(n_values: Sequence[int] = (5, 15, 50, 150, 500,
                                                    1500),
                         w_av: float = 140630.0,
                         alpha: float = 1.1) -> List[ConvergenceRow]:
    """Exact finite-N provider optimum vs Theorem 1's asymptote.

    Holds ``w_av`` and ``α = µ/N`` fixed while N grows; the relative gap
    should shrink (at rate ~N^(-2/3), per Eq. 17).
    """
    asymptotic = equilibrium_difficulty(w_av, alpha)
    rows = []
    for n in n_values:
        game = ClientGame.homogeneous(n, w_av, alpha * n)
        exact = StackelbergGame(game).solve_relaxed().difficulty
        rows.append(ConvergenceRow(n_users=n, exact_difficulty=exact,
                                   asymptotic_difficulty=asymptotic))
    return rows
