"""Topology and network-fabric tests: paths, delivery, spoofing blackholes,
captures."""

import pytest

from repro.errors import NetworkError
from repro.net.addresses import AddressAllocator
from repro.net.network import Network
from repro.net.packet import Packet, TCPFlags
from repro.net.pcap import PacketCapture, RingCapture
from repro.net.topology import GBPS, MBPS, Topology, deter_topology
from repro.sim.engine import Engine


class TestTopology:
    def test_deter_shape(self):
        topo = deter_topology(15, 10)
        names = topo.host_names()
        assert "server" in names
        assert sum(1 for n in names if n.startswith("client")) == 15
        assert sum(1 for n in names if n.startswith("attacker")) == 10

    def test_client_path_crosses_backbone(self):
        topo = deter_topology(2, 0)
        links = topo.path_links("client0", "server")
        assert len(links) == 3  # access up, backbone hop, access down
        assert links[0].rate_bps == 100 * MBPS
        assert links[-1].rate_bps == GBPS

    def test_path_cache_stable(self):
        topo = deter_topology(1, 0)
        assert topo.path_links("client0", "server") is \
            topo.path_links("client0", "server")

    def test_unknown_host_rejected(self):
        topo = deter_topology(1, 0)
        with pytest.raises(NetworkError, match="'nope' is not attached"):
            topo.path_links("nope", "server")
        with pytest.raises(NetworkError, match="'nope' is not attached"):
            topo.path_links("server", "nope")

    def test_duplicate_host_rejected(self):
        topo = Topology()
        topo.add_router("r1")
        topo.attach_host("h", "r1", rate_bps=GBPS)
        with pytest.raises(NetworkError, match="duplicate host 'h'"):
            topo.attach_host("h", "r1", rate_bps=GBPS)
        with pytest.raises(NetworkError, match="duplicate host 'r1'"):
            topo.attach_host("r1", "r1", rate_bps=GBPS)

    def test_attach_to_non_router_rejected(self):
        topo = Topology()
        topo.add_router("r1")
        topo.attach_host("h", "r1", rate_bps=GBPS)
        with pytest.raises(NetworkError, match="unknown router 'h'"):
            topo.attach_host("h2", "h", rate_bps=GBPS)
        with pytest.raises(NetworkError, match="unknown router 'r9'"):
            topo.attach_host("h2", "r9", rate_bps=GBPS)

    def test_paths_match_networkx_shortest_paths(self):
        """The BFS picks the same links networkx would, for every pair."""
        nx = pytest.importorskip("networkx")
        topo = deter_topology(15, 10)
        graph = nx.Graph()
        graph.add_edges_from(link.name.split("->")
                             for link in topo.all_links())
        names = topo.host_names()
        pairs = [(a, b) for a in names for b in names if a != b]
        assert len(pairs) == 26 * 25
        for src, dst in pairs:
            nodes = nx.shortest_path(graph, src, dst)
            expected = [topo.link(a, b) for a, b in zip(nodes, nodes[1:])]
            assert topo.path_links(src, dst) == expected, (src, dst)

    def test_disconnected_hosts_have_no_path(self):
        topo = Topology()
        topo.add_router("r1")
        topo.add_router("r2")
        topo.attach_host("a", "r1", rate_bps=GBPS)
        topo.attach_host("b", "r2", rate_bps=GBPS)
        with pytest.raises(NetworkError, match="no path between 'a' and 'b'"):
            topo.path_links("a", "b")
        topo.connect("r1", "r2", rate_bps=GBPS)
        assert [link.name for link in topo.path_links("a", "b")] == \
            ["a->r1", "r1->r2", "r2->b"]

    def test_connect_unknown_node_rejected(self):
        topo = Topology()
        topo.add_router("r1")
        with pytest.raises(NetworkError, match="unknown node 'r9'"):
            topo.connect("r1", "r9", rate_bps=GBPS)

    def test_full_duplex_links_are_independent(self):
        topo = deter_topology(1, 0)
        up = topo.link("client0", "r2")
        down = topo.link("r2", "client0")
        assert up is not down


class _StubHost:
    def __init__(self, name, address):
        self.name = name
        self.address = address
        self.received = []

    def receive(self, packet):
        self.received.append(packet)


def _fabric(n_clients=1, n_attackers=0):
    engine = Engine()
    topo = deter_topology(n_clients, n_attackers)
    network = Network(engine, topo)
    allocator = AddressAllocator()
    server = _StubHost("server", allocator.allocate())
    clients = [_StubHost(f"client{i}", allocator.allocate())
               for i in range(n_clients)]
    network.register(server)
    for client in clients:
        network.register(client)
    return engine, network, server, clients


class TestNetwork:
    def test_delivery_with_latency(self):
        engine, network, server, clients = _fabric()
        packet = Packet(src_ip=clients[0].address, dst_ip=server.address,
                        src_port=1000, dst_port=80, flags=TCPFlags.SYN)
        network.send(clients[0], packet)
        engine.run()
        assert server.received == [packet]
        # 3 hops × 0.5 ms propagation + tiny serialization.
        assert 0.0015 < engine.now < 0.002

    def test_unregistered_destination_blackholed(self):
        engine, network, server, clients = _fabric()
        packet = Packet(src_ip=server.address, dst_ip=0xAC100001,
                        src_port=80, dst_port=1000,
                        flags=TCPFlags.SYN | TCPFlags.ACK)
        network.send(server, packet)
        engine.run()
        assert network.packets_blackholed == 1
        assert server.received == []

    def test_droptailed_reply_counts_as_drop_not_blackhole(self):
        """A reply that droptails on its own uplink never reached the
        backbone to be blackholed — it is an ordinary drop. A burst of
        replies to a spoofed source must therefore split exactly into
        blackholed (made it onto the wire) and dropped (queue overflow),
        with the taps seeing the matching events."""
        engine, network, server, clients = _fabric()
        events = []
        network.add_tap(lambda now, packet, event: events.append(event))
        # 1 Gbps uplink: a same-instant burst of 10 MB cannot all fit in
        # the uplink buffer, so the tail droptails before the backbone.
        for _ in range(1000):
            packet = Packet(src_ip=server.address, dst_ip=0xAC100001,
                            src_port=80, dst_port=1000,
                            flags=TCPFlags.SYN | TCPFlags.ACK,
                            payload_bytes=10_000)
            network.send(server, packet)
        engine.run()
        assert network.packets_dropped > 0
        assert network.packets_blackholed > 0
        assert (network.packets_dropped + network.packets_blackholed
                == 1000)
        assert network.packets_delivered == 0
        assert events.count("blackhole") == network.packets_blackholed
        assert events.count("drop") == network.packets_dropped

    def test_spoofed_source_still_delivers_to_target(self):
        """Spoofing the *source* must not affect forward delivery."""
        engine, network, server, clients = _fabric()
        packet = Packet(src_ip=0xAC100001, dst_ip=server.address,
                        src_port=1000, dst_port=80, flags=TCPFlags.SYN)
        network.send(clients[0], packet)
        engine.run()
        assert server.received == [packet]

    def test_duplicate_registration_rejected(self):
        engine, network, server, clients = _fabric()
        with pytest.raises(NetworkError):
            network.register(_StubHost("server", server.address))

    def test_unattached_host_rejected(self):
        engine, network, server, clients = _fabric()
        with pytest.raises(NetworkError):
            network.register(_StubHost("ghost", 0x0B000001))

    def test_saturating_link_drops(self):
        engine, network, server, clients = _fabric()
        # 100 Mbps uplink, 256 KB buffer: a 10 MB burst cannot all fit.
        for _ in range(1000):
            packet = Packet(src_ip=clients[0].address,
                            dst_ip=server.address, src_port=1000,
                            dst_port=80, payload_bytes=10_000)
            network.send(clients[0], packet)
        engine.run()
        assert network.packets_dropped > 0
        assert len(server.received) < 1000


class TestCapture:
    def test_packet_capture_routes_events(self):
        engine, network, server, clients = _fabric()
        capture = PacketCapture()
        network.add_tap(capture.tap)
        seen = []
        capture.subscribe(seen.append,
                          predicate=lambda r: r.event == "deliver")
        packet = Packet(src_ip=clients[0].address, dst_ip=server.address,
                        src_port=1000, dst_port=80)
        network.send(clients[0], packet)
        engine.run()
        assert len(seen) == 1
        assert seen[0].packet is packet

    def test_ring_capture_bounded(self):
        ring = RingCapture(capacity=5)
        for i in range(10):
            ring.tap(float(i), Packet(src_ip=1, dst_ip=2, src_port=1,
                                      dst_port=2), "send")
        assert len(ring) == 5
        assert ring.records[0].time == 5.0

    def test_ring_filter(self):
        ring = RingCapture()
        ring.tap(0.0, Packet(src_ip=1, dst_ip=2, src_port=1, dst_port=2),
                 "send")
        ring.tap(1.0, Packet(src_ip=2, dst_ip=1, src_port=2, dst_port=1),
                 "drop")
        assert len(ring.filter(lambda r: r.event == "drop")) == 1
        ring.clear()
        assert len(ring) == 0
