"""Coverage for smaller behaviours not exercised elsewhere."""

import pytest

from repro.errors import NetworkError, PuzzleError
from tests.conftest import MiniNet


class TestEngineMisc:
    def test_schedule_at_exact_now_runs(self, engine):
        seen = []
        engine.schedule(1.0, lambda: engine.schedule_at(
            engine.now, lambda: seen.append(engine.now)))
        engine.run()
        assert seen == [1.0]

    def test_event_repr(self, engine):
        handle = engine.schedule(1.0, lambda: None)
        assert "pending" in repr(handle)
        handle.cancel()
        assert "cancelled" in repr(handle)

    def test_pending_counts_lazy_entries(self, engine):
        a = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        a.cancel()
        assert engine.pending == 2  # lazy deletion keeps the entry
        assert engine.drain() == 1  # but only one live event


class TestSchemeMisc:
    def test_solver_matches_mode(self):
        from repro.puzzles.juels import (
            JuelsBrainardScheme,
            ModeledSolver,
            RealSolver,
        )

        assert isinstance(JuelsBrainardScheme(mode="real").solver(),
                          RealSolver)
        assert isinstance(JuelsBrainardScheme(mode="modeled").solver(),
                          ModeledSolver)

    def test_verify_without_rng_uses_sequential_order(self):
        import random

        from repro.puzzles.juels import (
            FlowBinding,
            JuelsBrainardScheme,
            ModeledSolver,
        )
        from repro.puzzles.params import PuzzleParams

        scheme = JuelsBrainardScheme(mode="modeled")
        binding = FlowBinding(1, 2, 3, 80, 5)
        params = PuzzleParams(k=3, m=6)
        challenge = scheme.make_challenge(params, binding, 1.0)
        solution = ModeledSolver().solve(challenge, random.Random(2))
        assert scheme.verify(solution, binding, 1.5, params).ok


class TestNetworkMisc:
    def test_single_host_blackhole_raises(self):
        from repro.net.addresses import AddressAllocator
        from repro.net.network import Network
        from repro.net.packet import Packet, TCPFlags
        from repro.net.topology import Topology, GBPS
        from repro.sim.engine import Engine

        topo = Topology()
        topo.add_router("r1")
        topo.attach_host("server", "r1", rate_bps=GBPS)
        engine = Engine()
        network = Network(engine, topo)

        class Stub:
            name = "server"
            address = 1

            def receive(self, packet):
                pass

        host = Stub()
        network.register(host)
        packet = Packet(src_ip=1, dst_ip=99, src_port=1, dst_port=2,
                        flags=TCPFlags.SYN)
        with pytest.raises(NetworkError):
            network.send(host, packet)

    def test_drop_event_reaches_taps(self):
        net = MiniNet()
        events = []
        net.network.add_tap(lambda t, p, e: events.append(e))
        # Saturate the client's 100 Mbps uplink buffer.
        from repro.net.packet import Packet

        for _ in range(500):
            net.network.send(net.client, Packet(
                src_ip=net.client.address, dst_ip=net.server.address,
                src_port=1, dst_port=2, payload_bytes=10_000))
        net.run(until=1.0)
        assert "drop" in events
        assert net.network.packets_dropped == events.count("drop")


class TestScenarioMisc:
    def test_invalid_crypto_mode_rejected(self):
        from repro.experiments.scenario import Scenario, ScenarioConfig

        config = ScenarioConfig(time_scale=0.01, crypto_mode="quantum")
        with pytest.raises(PuzzleError):
            Scenario(config).build()

    def test_attacker_series_empty_without_botnet(self):
        import sys

        sys.path.insert(0, "tests")
        from tests.experiments.test_scenario import fast_config
        from repro.experiments.scenario import Scenario

        result = Scenario(fast_config(attack_enabled=False)).run()
        assert result.attacker_established_rate() == 0.0
        assert result.attacker_measured_rate() == 0.0
        times, rate = result.attacker_established_series()
        assert sum(rate) == 0.0


class TestServerProcessingUnit:
    def test_jobs_serialize_at_mu(self, engine):
        from repro.hosts.cpu import SERVER_CPU
        from repro.hosts.server import _ProcessingUnit
        import random

        class FakeHost:
            def __init__(self):
                self.engine = engine
                self.rng = random.Random(5)

        unit = _ProcessingUnit(FakeHost(), rate=100.0,
                               rng=random.Random(5))
        done = []
        for _ in range(200):
            unit.submit(lambda: done.append(engine.now))
        engine.run()
        assert unit.jobs_done == 200
        # 200 serial Exp(100) services: total ≈ 2.0 s.
        assert 1.2 < done[-1] < 3.2

    def test_backlog_measurement(self, engine):
        from repro.hosts.server import _ProcessingUnit
        import random

        class FakeHost:
            def __init__(self):
                self.engine = engine
                self.rng = random.Random(5)

        unit = _ProcessingUnit(FakeHost(), rate=10.0,
                               rng=random.Random(5))
        unit.submit(lambda: None)
        assert unit.backlog_seconds() > 0.0


class TestCpuMisc:
    def test_jobs_run_counter(self, engine):
        from repro.hosts.cpu import CPUProfile
        from repro.hosts.host import CPUResource

        cpu = CPUResource(engine, CPUProfile("t", "", 100.0))
        cpu.run(10, lambda: None)
        cpu.run(10, lambda: None)
        assert cpu.jobs_run == 2
