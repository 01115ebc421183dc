"""Experiment 1 (Figure 6): impact of (k, m) on client connection time.

A single client connects repeatedly to a server that challenges **every**
SYN (``always_challenge`` — no attack needed), for every combination of
k ∈ {1,2,3,4} and m ∈ {4,10,16,20}. The paper's observation to reproduce:
connection time grows *exponentially* in m and *linearly* in k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.hosts.cpu import CPU_CATALOG, SERVER_CPU, CPUProfile
from repro.hosts.host import Host
from repro.hosts.server import AppServer, ServerConfig
from repro.metrics.summary import Summary, cdf, describe
from repro.net.addresses import AddressAllocator
from repro.net.network import Network
from repro.net.topology import deter_topology
from repro.puzzles.params import PuzzleParams
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams
from repro.tcp.connection import ClientConnConfig
from repro.tcp.constants import DefenseMode
from repro.tcp.listener import DefenseConfig

if TYPE_CHECKING:
    import numpy as np

DEFAULT_K_VALUES = (1, 2, 3, 4)
DEFAULT_M_VALUES = (4, 10, 16, 20)


@dataclass
class ConnectionTimeResult:
    """Connection-time samples for one (k, m) cell of Figure 6."""

    k: int
    m: int
    times: np.ndarray  # seconds

    @property
    def summary(self) -> Summary:
        return describe(self.times)

    def cdf(self) -> Tuple[List[float], List[float]]:
        return cdf(self.times)


@dataclass
class ConnectionTimeExperiment:
    """One (k, m) measurement run."""

    k: int = 1
    m: int = 4
    samples: int = 40
    seed: int = 11
    client_cpu: CPUProfile = field(
        default_factory=lambda: CPU_CATALOG["cpu1"])

    def run(self) -> ConnectionTimeResult:
        import numpy as np

        engine = Engine()
        streams = RngStreams(self.seed + self.k * 100 + self.m)
        topology = deter_topology(1, 0)
        network = Network(engine, topology)
        allocator = AddressAllocator()
        server_host = Host("server", allocator.allocate(), engine, network,
                           SERVER_CPU, streams.get("server"))
        defense = DefenseConfig(mode=DefenseMode.PUZZLES,
                                puzzle_params=PuzzleParams(k=self.k,
                                                           m=self.m),
                                always_challenge=True)
        AppServer(server_host, ServerConfig(defense=defense))
        client_host = Host("client0", allocator.allocate(), engine, network,
                           self.client_cpu, streams.get("client"))

        times: List[float] = []

        def issue() -> None:
            connection = client_host.tcp.connect(
                server_host.address, 80,
                ClientConnConfig(solve_backlog_limit=1e9))

            def on_established(conn) -> None:
                times.append(conn.connect_time)
                conn.abort()
                if len(times) < self.samples:
                    engine.schedule(0.01, issue)

            connection.on_established = on_established

        engine.schedule(0.0, issue)
        # Worst cell (k=4, m=20) averages ~6 s/connection on cpu1.
        engine.run(until=self.samples * 20.0)
        engine.drain()
        return ConnectionTimeResult(k=self.k, m=self.m,
                                    times=np.asarray(times))


def connection_time_cdf_grid(
        k_values: Sequence[int] = DEFAULT_K_VALUES,
        m_values: Sequence[int] = DEFAULT_M_VALUES,
        samples: int = 40,
        seed: int = 11) -> Dict[Tuple[int, int], ConnectionTimeResult]:
    """The full Figure 6 grid, keyed by (k, m)."""
    grid: Dict[Tuple[int, int], ConnectionTimeResult] = {}
    for k in k_values:
        for m in m_values:
            grid[(k, m)] = ConnectionTimeExperiment(
                k=k, m=m, samples=samples, seed=seed).run()
    return grid
