"""End-to-end handshake tests over the simulated fabric.

These drive a real :class:`TCPStack` pair (client host + server host)
through the network, covering the stock three-way handshake, the puzzle
extension, cookies, retransmission, and the §5 deception path.
"""

import pytest

from repro.net.packet import Packet, TCPFlags, TCPOptions
from repro.puzzles.params import PuzzleParams
from repro.tcp.connection import ClientConnConfig
from repro.tcp.constants import DefenseMode
from repro.tcp.listener import DefenseConfig
from repro.tcp.tcb import EstablishPath, TCBState


def _listen(mini_net, **kwargs):
    config = DefenseConfig(**kwargs)
    return mini_net.server.tcp.listen(80, config)


class TestStockHandshake:
    def test_three_way_establishes_both_sides(self, mini_net):
        listener = _listen(mini_net)
        events = []
        conn = mini_net.client.tcp.connect(mini_net.server.address, 80)
        conn.on_established = lambda c: events.append("established")
        mini_net.run(until=1.0)
        assert events == ["established"]
        assert conn.state is TCBState.ESTABLISHED
        assert listener.stats.established_normal == 1
        server_conn = listener.accept()
        assert server_conn is not None
        assert server_conn.path is EstablishPath.NORMAL

    def test_connect_time_is_about_one_rtt(self, mini_net):
        _listen(mini_net)
        conn = mini_net.client.tcp.connect(mini_net.server.address, 80)
        mini_net.run(until=1.0)
        assert conn.connect_time == pytest.approx(0.003, abs=0.002)

    def test_data_roundtrip(self, mini_net):
        listener = _listen(mini_net)
        received = []

        def on_acceptable():
            server_conn = listener.accept()
            server_conn.attach_reader(
                lambda c, nbytes, data: (received.append(data),
                                         c.send_data(500, ("response",))))

        listener.on_acceptable = on_acceptable
        responses = []
        conn = mini_net.client.tcp.connect(mini_net.server.address, 80)
        conn.on_established = lambda c: c.send_data(
            100, app_data=("gettext", 500))
        conn.on_data = lambda c, nbytes, data: responses.append(nbytes)
        mini_net.run(until=1.0)
        assert received == [("gettext", 500)]
        assert responses == [500]

    def test_rst_on_closed_port(self, mini_net):
        events = []
        conn = mini_net.client.tcp.connect(mini_net.server.address, 81)
        conn.on_reset = lambda c: events.append("reset")
        mini_net.run(until=1.0)
        assert events == ["reset"]
        assert conn.state is TCBState.RESET

    def test_syn_timeout_when_server_unreachable(self, mini_net):
        failures = []
        conn = mini_net.client.tcp.connect(
            0x0B0B0B0B, 80, ClientConnConfig(syn_retries=2))
        conn.on_failed = lambda c, reason: failures.append(reason)
        mini_net.run(until=60.0)
        assert failures == ["syn-timeout"]

    def test_listen_queue_full_drops_new_syn(self, mini_net):
        listener = _listen(mini_net, backlog=1)
        raw_syn = Packet(src_ip=0x0A0000F0, dst_ip=mini_net.server.address,
                         src_port=999, dst_port=80, seq=1,
                         flags=TCPFlags.SYN,
                         options=TCPOptions(mss=1460))
        mini_net.network.send(mini_net.client, raw_syn)
        mini_net.run(until=0.01)
        conn = mini_net.client.tcp.connect(mini_net.server.address, 80)
        failures = []
        conn.on_failed = lambda c, reason: failures.append(reason)
        mini_net.run(until=0.5)
        assert listener.stats.syn_drops_queue_full >= 1
        assert conn.state is not TCBState.ESTABLISHED

    def test_half_open_expires_after_retries(self, mini_net):
        listener = _listen(mini_net, synack_retries=1, synack_timeout=0.2)
        raw_syn = Packet(src_ip=0xAC100001, dst_ip=mini_net.server.address,
                         src_port=999, dst_port=80, seq=1,
                         flags=TCPFlags.SYN,
                         options=TCPOptions(mss=1460))
        mini_net.network.send(mini_net.client, raw_syn)
        mini_net.run(until=5.0)
        assert len(listener.listen_queue) == 0
        assert listener.stats.half_open_expired == 1

    def test_duplicate_syn_is_not_a_second_half_open(self, mini_net):
        listener = _listen(mini_net)
        for _ in range(2):
            raw_syn = Packet(src_ip=0xAC100001,
                             dst_ip=mini_net.server.address,
                             src_port=999, dst_port=80, seq=1,
                             flags=TCPFlags.SYN,
                             options=TCPOptions(mss=1460))
            mini_net.network.send(mini_net.client, raw_syn)
        mini_net.run(until=0.1)
        assert len(listener.listen_queue) == 1


class TestPuzzlePath:
    def test_patched_client_solves_and_establishes(self, mini_net):
        listener = _listen(mini_net, mode=DefenseMode.PUZZLES,
                           puzzle_params=PuzzleParams(k=2, m=8),
                           always_challenge=True)
        conn = mini_net.client.tcp.connect(mini_net.server.address, 80)
        mini_net.run(until=2.0)
        assert conn.state is TCBState.ESTABLISHED
        assert conn.was_challenged
        assert conn.solve_attempts >= 2
        assert listener.stats.established_puzzle == 1
        assert listener.stats.synacks_challenge == 1
        server_conn = listener.accept()
        assert server_conn.path is EstablishPath.PUZZLE

    def test_solution_carries_mss_and_wscale(self, mini_net):
        """§5: the self-contained solution block restores SYN options."""
        listener = _listen(mini_net, mode=DefenseMode.PUZZLES,
                           puzzle_params=PuzzleParams(k=1, m=4),
                           always_challenge=True)
        config = ClientConnConfig(mss=1380, wscale=5)
        mini_net.client.tcp.connect(mini_net.server.address, 80, config)
        mini_net.run(until=2.0)
        server_conn = listener.accept()
        assert server_conn.mss == 1380
        assert server_conn.wscale == 5

    def test_solving_takes_cpu_time(self, mini_net):
        _listen(mini_net, mode=DefenseMode.PUZZLES,
                puzzle_params=PuzzleParams(k=2, m=14),
                always_challenge=True)
        conn = mini_net.client.tcp.connect(mini_net.server.address, 80)
        mini_net.run(until=5.0)
        expected = conn.solve_attempts / mini_net.client.cpu.hash_rate
        assert conn.connect_time >= expected
        assert mini_net.client.cpu.busy_seconds() >= expected * 0.99

    def test_unpatched_client_believes_then_gets_rst_on_data(
            self, mini_net):
        """The §5 deception: plain ACK ignored; data draws an RST."""
        listener = _listen(mini_net, mode=DefenseMode.PUZZLES,
                           puzzle_params=PuzzleParams(k=1, m=8),
                           always_challenge=True)
        events = []
        config = ClientConnConfig(supports_puzzles=False)
        conn = mini_net.client.tcp.connect(mini_net.server.address, 80,
                                           config)
        conn.on_established = lambda c: (events.append("established"),
                                         c.send_data(100, ("gettext", 1)))
        conn.on_reset = lambda c: events.append("reset")
        mini_net.run(until=2.0)
        assert events == ["established", "reset"]
        assert listener.stats.solutions_invalid >= 1
        assert listener.stats.established_total() == 0

    def test_unwilling_patched_client_behaves_like_unpatched(
            self, mini_net):
        _listen(mini_net, mode=DefenseMode.PUZZLES,
                puzzle_params=PuzzleParams(k=1, m=8),
                always_challenge=True)
        config = ClientConnConfig(supports_puzzles=True,
                                  solve_puzzles=False)
        conn = mini_net.client.tcp.connect(mini_net.server.address, 80,
                                           config)
        mini_net.run(until=2.0)
        assert conn.state is TCBState.ESTABLISHED  # believes, wrongly
        assert not conn.was_challenged or conn.solve_attempts == 0

    def test_accept_queue_full_ack_ignored(self, mini_net):
        """§5: with no room, the server does not even verify."""
        net = type(mini_net)(n_clients=2)
        listener = net.server.tcp.listen(80, DefenseConfig(
            mode=DefenseMode.PUZZLES,
            puzzle_params=PuzzleParams(k=1, m=4),
            accept_backlog=1, always_challenge=True))
        conn_a = net.clients[0].tcp.connect(net.server.address, 80)
        net.run(until=1.0)
        assert listener.stats.established_puzzle == 1
        events = []
        conn_b = net.clients[1].tcp.connect(net.server.address, 80)
        conn_b.on_established = lambda c: (events.append("established"),
                                           c.send_data(10, ("gettext", 1)))
        conn_b.on_reset = lambda c: events.append("reset")
        net.run(until=2.0)
        assert listener.stats.acks_ignored_queue_full >= 1
        assert events == ["established", "reset"]

    def test_challenge_abandoned_when_cpu_saturated(self, mini_net):
        _listen(mini_net, mode=DefenseMode.PUZZLES,
                puzzle_params=PuzzleParams(k=2, m=10),
                always_challenge=True)
        # Pre-load the client CPU far beyond the abandonment limit.
        mini_net.client.cpu.consume_seconds(10.0)
        failures = []
        conn = mini_net.client.tcp.connect(
            mini_net.server.address, 80,
            ClientConnConfig(solve_backlog_limit=1.0))
        conn.on_failed = lambda c, reason: failures.append(reason)
        mini_net.run(until=1.0)
        assert failures == ["challenge-abandoned"]

    def test_set_difficulty_is_dynamic(self, mini_net):
        listener = _listen(mini_net, mode=DefenseMode.PUZZLES,
                           puzzle_params=PuzzleParams(k=1, m=4),
                           always_challenge=True)
        listener.set_difficulty(3, 12)
        conn = mini_net.client.tcp.connect(mini_net.server.address, 80)
        mini_net.run(until=3.0)
        assert conn.state is TCBState.ESTABLISHED
        assert conn.solve_attempts >= 3  # three sub-puzzles now
        assert listener.config.puzzle_params.m == 12

    def test_stale_solution_rejected(self, mini_net):
        """A solution arriving after the expiry window fails verification.

        Modelled by a client whose CPU is busy just under the abandonment
        limit but well over the expiry window."""
        from repro.puzzles.replay import ExpiryPolicy
        from repro.puzzles.juels import JuelsBrainardScheme

        scheme = JuelsBrainardScheme(expiry=ExpiryPolicy(window=0.2))
        listener = _listen(mini_net, mode=DefenseMode.PUZZLES,
                           puzzle_params=PuzzleParams(k=1, m=4),
                           scheme=scheme, always_challenge=True)
        mini_net.client.cpu.consume_seconds(0.9)
        conn = mini_net.client.tcp.connect(
            mini_net.server.address, 80,
            ClientConnConfig(solve_backlog_limit=1.0))
        mini_net.run(until=5.0)
        assert listener.stats.solutions_invalid == 1
        assert listener.stats.established_total() == 0
        assert conn.state is TCBState.ESTABLISHED  # believes, wrongly


class TestCookiePath:
    def _fill_listen_queue(self, mini_net, listener):
        for i in range(listener.config.backlog):
            raw = Packet(src_ip=0xAC100000 + i,
                         dst_ip=mini_net.server.address,
                         src_port=1000 + i, dst_port=80, seq=1,
                         flags=TCPFlags.SYN,
                         options=TCPOptions(mss=1460))
            mini_net.network.send(mini_net.client, raw)

    def test_cookie_served_when_queue_full(self, mini_net):
        listener = _listen(mini_net, mode=DefenseMode.SYNCOOKIES,
                           backlog=4)
        self._fill_listen_queue(mini_net, listener)
        mini_net.run(until=0.05)
        assert listener.listen_queue.full
        conn = mini_net.client.tcp.connect(mini_net.server.address, 80)
        mini_net.run(until=0.2)
        assert conn.state is TCBState.ESTABLISHED
        assert listener.stats.established_cookie == 1
        server_conn = listener.accept()
        assert server_conn.path is EstablishPath.COOKIE
        assert server_conn.wscale is None  # lost with cookies

    def test_stock_path_used_when_queue_has_room(self, mini_net):
        listener = _listen(mini_net, mode=DefenseMode.SYNCOOKIES)
        conn = mini_net.client.tcp.connect(mini_net.server.address, 80)
        mini_net.run(until=0.2)
        assert conn.state is TCBState.ESTABLISHED
        assert listener.stats.established_normal == 1
        assert listener.stats.synacks_cookie == 0

    def test_forged_cookie_ack_rejected(self, mini_net):
        listener = _listen(mini_net, mode=DefenseMode.SYNCOOKIES,
                           backlog=1)
        self._fill_listen_queue(mini_net, listener)
        mini_net.run(until=0.05)
        forged = Packet(src_ip=mini_net.client.address,
                        dst_ip=mini_net.server.address,
                        src_port=5555, dst_port=80, seq=8,
                        ack=0x12345678, flags=TCPFlags.ACK)
        mini_net.network.send(mini_net.client, forged)
        mini_net.run(until=0.2)
        assert listener.stats.cookies_invalid == 1
        assert listener.stats.established_cookie == 0


class TestSynCachePath:
    def test_cache_handshake(self, mini_net):
        listener = _listen(mini_net, mode=DefenseMode.SYNCACHE)
        conn = mini_net.client.tcp.connect(mini_net.server.address, 80)
        mini_net.run(until=0.2)
        assert conn.state is TCBState.ESTABLISHED
        assert listener.stats.established_syncache == 1
        assert listener.accept().path is EstablishPath.SYNCACHE

    def test_listen_queue_not_used(self, mini_net):
        listener = _listen(mini_net, mode=DefenseMode.SYNCACHE)
        mini_net.client.tcp.connect(mini_net.server.address, 80)
        mini_net.run(until=0.2)
        assert len(listener.listen_queue) == 0


class TestServerConnectionLifecycle:
    def test_close_with_reset_notifies_peer(self, mini_net):
        listener = _listen(mini_net)
        events = []
        conn = mini_net.client.tcp.connect(mini_net.server.address, 80)
        conn.on_reset = lambda c: events.append("reset")
        mini_net.run(until=0.2)
        server_conn = listener.accept()
        server_conn.close(reset=True)
        mini_net.run(until=0.4)
        assert events == ["reset"]

    def test_buffered_data_delivered_on_attach(self, mini_net):
        listener = _listen(mini_net)
        conn = mini_net.client.tcp.connect(mini_net.server.address, 80)
        conn.on_established = lambda c: c.send_data(50, ("gettext", 9))
        mini_net.run(until=0.2)
        server_conn = listener.accept()
        seen = []
        server_conn.attach_reader(
            lambda c, nbytes, data: seen.append((nbytes, data)))
        assert seen == [(50, ("gettext", 9))]

    def test_abort_removes_stack_state(self, mini_net):
        _listen(mini_net)
        conn = mini_net.client.tcp.connect(mini_net.server.address, 80)
        mini_net.run(until=0.2)
        assert mini_net.client.tcp.open_connections == 1
        conn.abort()
        assert mini_net.client.tcp.open_connections == 0


def _hooks(conn, events):
    conn.on_established = lambda c: events.append("established")
    conn.on_data = lambda c, nbytes, data: events.append("data")
    conn.on_reset = lambda c: events.append("reset")
    conn.on_failed = lambda c, reason: events.append(reason)


def _assert_released(conn):
    assert conn.on_established is None
    assert conn.on_data is None
    assert conn.on_reset is None
    assert conn.on_failed is None


class TestEndOfLifeReleasesHooks:
    """A terminal connection drops its application hooks — after the
    hook for that transition has run — so an owner holding the
    connection back is not kept alive through them."""

    def test_rst(self, mini_net):
        events = []
        conn = mini_net.client.tcp.connect(mini_net.server.address, 81)
        _hooks(conn, events)
        mini_net.run(until=1.0)
        assert events == ["reset"]
        _assert_released(conn)

    def test_syn_give_up(self, mini_net):
        events = []
        conn = mini_net.client.tcp.connect(
            0x0B0B0B0B, 80, ClientConnConfig(syn_retries=1))
        _hooks(conn, events)
        mini_net.run(until=60.0)
        assert events == ["syn-timeout"]
        _assert_released(conn)

    def test_challenge_abandoned(self, mini_net):
        _listen(mini_net, mode=DefenseMode.PUZZLES,
                puzzle_params=PuzzleParams(k=2, m=10),
                always_challenge=True)
        mini_net.client.cpu.consume_seconds(10.0)
        events = []
        conn = mini_net.client.tcp.connect(
            mini_net.server.address, 80,
            ClientConnConfig(solve_backlog_limit=1.0))
        _hooks(conn, events)
        mini_net.run(until=1.0)
        assert events == ["challenge-abandoned"]
        _assert_released(conn)

    def test_abort(self, mini_net):
        _listen(mini_net)
        events = []
        conn = mini_net.client.tcp.connect(mini_net.server.address, 80)
        _hooks(conn, events)
        mini_net.run(until=0.2)
        conn.abort()
        assert events == ["established"]
        _assert_released(conn)

    def test_server_close(self, mini_net):
        listener = _listen(mini_net)
        mini_net.client.tcp.connect(mini_net.server.address, 80)
        mini_net.run(until=0.2)
        server_conn = listener.accept()
        server_conn.attach_reader(lambda c, nbytes, data: None)
        server_conn.close(reset=True)
        assert server_conn.on_data is None

    def test_server_rst(self, mini_net):
        listener = _listen(mini_net)
        conn = mini_net.client.tcp.connect(mini_net.server.address, 80)
        mini_net.run(until=0.2)
        server_conn = listener.accept()
        server_conn.attach_reader(lambda c, nbytes, data: None)
        # The client's stack forgets the flow, so its next segment on it
        # draws an RST from the client back to the server.
        conn.abort()
        server_conn.send_data(10, ("response", 10))
        mini_net.run(until=0.4)
        assert server_conn.state is TCBState.RESET
        assert server_conn.on_data is None
