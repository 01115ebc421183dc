"""Experiment topologies.

:func:`deter_topology` reproduces the paper's Figure 16 setup: a backbone of
three routers fully connected with 1 Gbps links; the server attached at
1 Gbps; every client and attacker host attached at 100 Mbps. Paths are
static shortest paths (hop count), found by a breadth-first search over an
adjacency dict and cached per (source host, destination host) pair.

Each undirected cable is a pair of independent :class:`~repro.net.link.Link`
objects (full duplex).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Tuple

from repro.errors import NetworkError
from repro.net.link import Link

GBPS = 1e9
MBPS = 1e6


class Topology:
    """Routers, attachment points, and directed links between them.

    Nodes are string names. Hosts are *attached* to router nodes through
    their own access links; the path for a packet is
    ``access-up + backbone hops + access-down``.
    """

    def __init__(self) -> None:
        self._adjacent: Dict[str, List[str]] = {}  # node -> neighbours
        self._kind: Dict[str, str] = {}  # node -> "router" | "host"
        self._links: Dict[Tuple[str, str], Link] = {}
        self._attachment: Dict[str, str] = {}  # host node -> router node
        self._path_cache: Dict[Tuple[str, str], List[Link]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_router(self, name: str) -> None:
        self._adjacent.setdefault(name, [])
        self._kind[name] = "router"

    def _add_edge(self, a: str, b: str) -> None:
        if b not in self._adjacent[a]:
            self._adjacent[a].append(b)
            self._adjacent[b].append(a)

    def connect(self, a: str, b: str, rate_bps: float,
                delay: float = 0.0005,
                buffer_bytes: int = 256 * 1024) -> None:
        """Join two nodes with a full-duplex link pair."""
        for node in (a, b):
            if node not in self._kind:
                raise NetworkError(f"unknown node {node!r}")
        self._add_edge(a, b)
        self._links[(a, b)] = Link(rate_bps=rate_bps, delay=delay,
                                   buffer_bytes=buffer_bytes,
                                   name=f"{a}->{b}")
        self._links[(b, a)] = Link(rate_bps=rate_bps, delay=delay,
                                   buffer_bytes=buffer_bytes,
                                   name=f"{b}->{a}")
        self._path_cache.clear()

    def attach_host(self, host_name: str, router: str, rate_bps: float,
                    delay: float = 0.0005,
                    buffer_bytes: int = 256 * 1024) -> None:
        """Attach a host to a router through its own access link pair."""
        if self._kind.get(router) != "router":
            raise NetworkError(f"unknown router {router!r}")
        if host_name in self._kind:
            raise NetworkError(f"duplicate host {host_name!r}")
        self._adjacent[host_name] = []
        self._kind[host_name] = "host"
        self._add_edge(host_name, router)
        self._links[(host_name, router)] = Link(
            rate_bps=rate_bps, delay=delay, buffer_bytes=buffer_bytes,
            name=f"{host_name}->{router}")
        self._links[(router, host_name)] = Link(
            rate_bps=rate_bps, delay=delay, buffer_bytes=buffer_bytes,
            name=f"{router}->{host_name}")
        self._attachment[host_name] = router
        self._path_cache.clear()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def link(self, a: str, b: str) -> Link:
        try:
            return self._links[(a, b)]
        except KeyError:
            raise NetworkError(f"no link {a!r} -> {b!r}")

    def host_names(self) -> List[str]:
        return sorted(self._attachment)

    def path_links(self, src_host: str, dst_host: str) -> List[Link]:
        """Directed links a packet crosses from *src_host* to *dst_host*."""
        key = (src_host, dst_host)
        cached = self._path_cache.get(key)
        if cached is not None:
            return cached
        for host in key:
            if host not in self._attachment:
                raise NetworkError(f"host {host!r} is not attached")
        nodes = self._shortest_path(src_host, dst_host)
        links = [self._links[(a, b)] for a, b in zip(nodes, nodes[1:])]
        self._path_cache[key] = links
        return links

    def _shortest_path(self, src: str, dst: str) -> List[str]:
        """Fewest-hop node sequence from *src* to *dst* (breadth-first)."""
        parent: Dict[str, str] = {src: src}
        frontier = [src]
        while frontier and dst not in parent:
            next_frontier = []
            for node in frontier:
                for neighbour in self._adjacent[node]:
                    if neighbour not in parent:
                        parent[neighbour] = node
                        next_frontier.append(neighbour)
            frontier = next_frontier
        if dst not in parent:
            raise NetworkError(f"no path between {src!r} and {dst!r}")
        nodes = [dst]
        while nodes[-1] != src:
            nodes.append(parent[nodes[-1]])
        nodes.reverse()
        return nodes

    def all_links(self) -> List[Link]:
        return list(self._links.values())


def deter_topology(n_client_hosts: int, n_attacker_hosts: int,
                   backbone_rate: float = GBPS,
                   server_rate: float = GBPS,
                   host_rate: float = 100 * MBPS) -> Topology:
    """The Figure 16 scenario topology.

    Three fully connected backbone routers; the server hangs off ``r1``;
    clients alternate between ``r2``/``r3`` and attackers between
    ``r3``/``r2`` — spreading load like the testbed did. Host names are
    ``server``, ``client<i>``, ``attacker<i>``.
    """
    topo = Topology()
    routers = ["r1", "r2", "r3"]
    for router in routers:
        topo.add_router(router)
    for a, b in itertools.combinations(routers, 2):
        topo.connect(a, b, rate_bps=backbone_rate)
    topo.attach_host("server", "r1", rate_bps=server_rate)
    for i in range(n_client_hosts):
        topo.attach_host(f"client{i}", routers[1 + i % 2],
                         rate_bps=host_rate)
    for i in range(n_attacker_hosts):
        topo.attach_host(f"attacker{i}", routers[1 + (i + 1) % 2],
                         rate_bps=host_rate)
    return topo
