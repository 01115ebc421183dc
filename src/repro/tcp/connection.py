"""Connection endpoints: the client handshake state machine and the
server-side established connection.

Data transfer after the handshake is deliberately thin — the evaluation's
metrics (throughput, connection time, completion rate) need request and
response *bytes with correct timing*, not sequence-number bookkeeping. A
response is sent as one aggregated burst packet whose ``extra_frames``
preserves per-segment header overhead (see :mod:`repro.net.packet`).
Lost data is not retransmitted; the client application layers a request
timeout on top, which is how the experiments count failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, TYPE_CHECKING

from repro.net.packet import (FLAG_ACK, FLAG_PSHACK, FLAG_RST,
                              FLAG_SYN, Packet, TCPOptions)
from repro.puzzles.juels import Challenge, ModeledSolver, Solution
from repro.tcp.constants import (
    DEFAULT_MSS,
    DEFAULT_SYN_RETRIES,
    DEFAULT_SYN_TIMEOUT,
    DEFAULT_WSCALE,
)
from repro.tcp.tcb import EstablishPath, TCBState

if TYPE_CHECKING:  # pragma: no cover
    from repro.tcp.stack import TCPStack


@dataclass
class ClientConnConfig:
    """Client-side handshake behaviour.

    ``supports_puzzles`` models whether the machine runs the kernel patch;
    an unpatched machine ignores the unknown challenge option and sends a
    plain ACK (Experiment 5's "NC"/"NA" behaviours). ``solve_puzzles``
    lets a patched machine decline solving (sysctl opt-out, §7).
    """

    supports_puzzles: bool = True
    solve_puzzles: bool = True
    mss: int = DEFAULT_MSS
    wscale: int = DEFAULT_WSCALE
    use_timestamps: bool = True
    syn_timeout: float = DEFAULT_SYN_TIMEOUT
    syn_retries: int = DEFAULT_SYN_RETRIES
    solver: object = field(default_factory=ModeledSolver)
    #: Abandon a challenge when the CPU already has this many seconds of
    #: queued solve work — a kernel cannot queue puzzle work unboundedly,
    #: and a solution computed after the expiry window is wasted anyway.
    solve_backlog_limit: float = 1.0


class ClientConnection:
    """Active-open endpoint: SYN → (solve?) → ACK → ESTABLISHED → data."""

    def __init__(self, stack: "TCPStack", local_port: int, remote_ip: int,
                 remote_port: int, config: ClientConnConfig) -> None:
        self.stack = stack
        self.host = stack.host
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.config = config
        self.state = TCBState.CLOSED
        self.isn = stack.new_isn()
        self.remote_isn: Optional[int] = None
        self.started_at: Optional[float] = None
        self.established_at: Optional[float] = None
        self.was_challenged = False
        self.solve_attempts = 0
        self._solve_started: Optional[float] = None
        self._syn_timer = None
        self._syn_sent = 0
        # Application callbacks.
        self.on_established: Optional[Callable[["ClientConnection"], None]] = None
        self.on_data: Optional[Callable[["ClientConnection", int, object],
                                        None]] = None
        self.on_reset: Optional[Callable[["ClientConnection"], None]] = None
        self.on_failed: Optional[Callable[["ClientConnection", str],
                                          None]] = None

    # ------------------------------------------------------------------
    # Active open
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.state = TCBState.SYN_SENT
        self.started_at = self.host.engine.now
        self._send_syn()

    def _syn_options(self) -> TCPOptions:
        options = TCPOptions(mss=self.config.mss, wscale=self.config.wscale)
        if self.config.use_timestamps:
            options.ts_val = int(self.host.engine.now * 1000) & 0xFFFFFFFF
        return options

    def _send_syn(self) -> None:
        packet = Packet(src_ip=self.host.address, dst_ip=self.remote_ip,
                        src_port=self.local_port, dst_port=self.remote_port,
                        seq=self.isn, flags=FLAG_SYN,
                        options=self._syn_options())
        self.host.send(packet)
        self._syn_sent += 1
        if self._syn_sent > 1:
            self.host.mib.incr("SynRetrans")
        if self._syn_sent <= self.config.syn_retries:
            timeout = self.config.syn_timeout * (2 ** (self._syn_sent - 1))
            self._syn_timer = self.host.engine.schedule(
                timeout, self._syn_timeout)
        else:
            self._syn_timer = self.host.engine.schedule(
                self.config.syn_timeout * (2 ** (self._syn_sent - 1)),
                self._give_up)

    def _syn_timeout(self) -> None:
        if self.state is not TCBState.SYN_SENT:
            return
        self._send_syn()

    def _give_up(self) -> None:
        if self.state is not TCBState.SYN_SENT:
            return
        self.state = TCBState.CLOSED
        self.stack.forget(self)
        if self.on_failed is not None:
            self.on_failed(self, "syn-timeout")
        self._release_hooks()

    # ------------------------------------------------------------------
    # Inbound
    # ------------------------------------------------------------------
    def handle(self, packet: Packet) -> None:
        if packet.is_rst:
            self._handle_rst()
            return
        if packet.is_synack:
            self._handle_synack(packet)
            return
        if packet.payload_bytes > 0 and self.state is TCBState.ESTABLISHED:
            if self.on_data is not None:
                self.on_data(self, packet.payload_bytes,
                             getattr(packet, "app_data", None))

    def _handle_rst(self) -> None:
        if self.state in (TCBState.CLOSED, TCBState.RESET):
            return
        self._cancel_syn_timer()
        self.state = TCBState.RESET
        self.stack.forget(self)
        if self.on_reset is not None:
            self.on_reset(self)
        self._release_hooks()

    def _handle_synack(self, packet: Packet) -> None:
        if self.state not in (TCBState.SYN_SENT, TCBState.SOLVING):
            return  # duplicate SYN-ACK retransmission
        challenge = packet.options.challenge
        if self.state is TCBState.SOLVING:
            return  # already working on an earlier copy
        self._cancel_syn_timer()
        self.remote_isn = packet.seq
        if (challenge is not None and self.config.supports_puzzles
                and self.config.solve_puzzles):
            self._begin_solving(challenge)
            return
        # No challenge — or one this machine cannot/will not parse: plain
        # ACK. (An unpatched host skips unknown options; RFC 1122 §4.2.2.5.)
        self._establish(solution=None)

    def _begin_solving(self, challenge: Challenge) -> None:
        self.was_challenged = True
        self.host.mib.incr("ChallengesReceived")
        if (self.host.cpu.backlog_seconds()
                > self.config.solve_backlog_limit):
            # The solve queue is already deep enough that this solution
            # would go out stale; drop the attempt instead of queueing.
            self.host.mib.incr("ChallengesAbandoned")
            self.state = TCBState.CLOSED
            self.stack.forget(self)
            if self.on_failed is not None:
                self.on_failed(self, "challenge-abandoned")
            self._release_hooks()
            return
        self.state = TCBState.SOLVING
        self._solve_started = self.host.engine.now
        solution = self.config.solver.solve(
            challenge, self.host.rng, counter=self.host.hash_counter)
        self.solve_attempts = solution.attempts
        solution.mss = self.config.mss
        solution.wscale = self.config.wscale
        # The brute force occupies the host CPU; the ACK leaves when the
        # (serialised) work completes — this is the rate limiter.
        self.host.cpu.run(solution.attempts,
                          lambda: self._establish(solution=solution))

    def _establish(self, solution: Optional[Solution]) -> None:
        if self.state in (TCBState.CLOSED, TCBState.RESET):
            return  # aborted while solving
        if solution is not None:
            self.host.mib.incr("PuzzlesSolved")
            if self._solve_started is not None:
                self.host.obs.hist.record(
                    "puzzle_solve",
                    self.host.engine.now - self._solve_started)
        options = TCPOptions()
        if self.config.use_timestamps:
            options.ts_val = int(self.host.engine.now * 1000) & 0xFFFFFFFF
        options.solution = solution
        ack_packet = Packet(
            src_ip=self.host.address, dst_ip=self.remote_ip,
            src_port=self.local_port, dst_port=self.remote_port,
            seq=self.isn + 1,
            ack=(self.remote_isn or 0) + 1,
            flags=FLAG_ACK, options=options)
        self.host.send(ack_packet)
        # TCP enters ESTABLISHED on sending the ACK — even when the server
        # silently ignores it (the paper's deception mechanism, §5).
        self.state = TCBState.ESTABLISHED
        self.established_at = self.host.engine.now
        if self.on_established is not None:
            self.on_established(self)

    # ------------------------------------------------------------------
    # Data and teardown
    # ------------------------------------------------------------------
    def send_data(self, payload_bytes: int, app_data: object = None) -> None:
        if self.state is not TCBState.ESTABLISHED:
            return
        packet = Packet(src_ip=self.host.address, dst_ip=self.remote_ip,
                        src_port=self.local_port, dst_port=self.remote_port,
                        seq=self.isn + 1, ack=(self.remote_isn or 0) + 1,
                        flags=FLAG_PSHACK,
                        payload_bytes=payload_bytes)
        packet.app_data = app_data
        self.host.send(packet)

    def abort(self) -> None:
        """Local teardown without notifying anyone (attacker hygiene)."""
        self._cancel_syn_timer()
        self.state = TCBState.CLOSED
        self.stack.forget(self)
        self._release_hooks()

    def _cancel_syn_timer(self) -> None:
        if self._syn_timer is not None:
            self._syn_timer.cancel()
            self._syn_timer = None

    def _release_hooks(self) -> None:
        """Drop the application hooks at end of life.

        A closed or reset connection never invokes a hook again, and the
        hooks are usually bound methods of an owner that holds this
        connection back; dropping them breaks that cycle so the pair is
        freed by refcounting (the engine holds the cyclic GC during a
        run). Called only after the terminal transition's own hook ran.
        """
        self.on_established = None
        self.on_data = None
        self.on_reset = None
        self.on_failed = None

    @property
    def connect_time(self) -> Optional[float]:
        """Handshake latency: SYN sent → ESTABLISHED (Figure 6's metric)."""
        if self.started_at is None or self.established_at is None:
            return None
        return self.established_at - self.started_at


class ServerConnection:
    """Passive-open endpoint created when a handshake completes."""

    def __init__(self, stack: "TCPStack", local_port: int, remote_ip: int,
                 remote_port: int, path: EstablishPath, mss: int,
                 wscale: Optional[int]) -> None:
        self.stack = stack
        self.host = stack.host
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.path = path
        self.mss = mss
        self.wscale = wscale
        self.state = TCBState.ESTABLISHED
        self.established_at = stack.host.engine.now
        self._pending: list = []  # buffered (payload_bytes, app_data)
        self.on_data: Optional[Callable[["ServerConnection", int, object],
                                        None]] = None

    @property
    def flow(self) -> tuple:
        return (self.remote_ip, self.remote_port, self.local_port)

    def handle(self, packet: Packet) -> None:
        if packet.is_rst:
            self.state = TCBState.RESET
            self.stack.forget_server(self)
            self.on_data = None  # see ClientConnection._release_hooks
            return
        if packet.payload_bytes > 0:
            app_data = getattr(packet, "app_data", None)
            if self.on_data is not None:
                self.on_data(self, packet.payload_bytes, app_data)
            else:
                self._pending.append((packet.payload_bytes, app_data))

    def attach_reader(self, on_data: Callable[["ServerConnection", int,
                                               object], None]) -> None:
        """App accepted the connection: deliver buffered + future data."""
        self.on_data = on_data
        pending, self._pending = self._pending, []
        for payload_bytes, app_data in pending:
            on_data(self, payload_bytes, app_data)

    def send_data(self, payload_bytes: int, app_data: object = None) -> None:
        if self.state is not TCBState.ESTABLISHED:
            return
        # Aggregate the response into one burst packet; extra_frames keeps
        # the per-MSS-segment header overhead in the byte accounting.
        frames = max(1, math.ceil(payload_bytes / max(1, self.mss)))
        packet = Packet(src_ip=self.host.address, dst_ip=self.remote_ip,
                        src_port=self.local_port, dst_port=self.remote_port,
                        flags=FLAG_PSHACK,
                        payload_bytes=payload_bytes,
                        extra_frames=frames - 1)
        packet.app_data = app_data
        self.host.send(packet)

    def close(self, reset: bool = False) -> None:
        """Tear down; with *reset*, notify the peer with an RST (how the
        app sheds idle/undead connections)."""
        if self.state is TCBState.CLOSED:
            return
        self.state = TCBState.CLOSED
        self.stack.forget_server(self)
        self.on_data = None  # see ClientConnection._release_hooks
        if reset:
            packet = Packet(src_ip=self.host.address, dst_ip=self.remote_ip,
                            src_port=self.local_port,
                            dst_port=self.remote_port,
                            flags=FLAG_RST)
            self.host.send(packet)
