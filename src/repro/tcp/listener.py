"""The listening socket and its opportunistic protection controller (§5).

Behavioural contract, straight from the paper:

* Challenges (and cookies) are **off** during normal operation; the stock
  three-way handshake with half-open state runs while the queues have room.
* Protection engages when a queue fills. Puzzles take precedence over
  cookies; with ``DefenseMode.PUZZLES`` the socket sends a challenge even
  when the *accept* queue is the one overflowing — throttling everyone
  rather than silently refusing.
* On an ACK carrying a solution: if the accept queue is full the ACK is
  **ignored** (the sender is left believing it connected; data it sends
  later is RST — the deception mechanism); otherwise the solution is
  verified statelessly and, only if valid, state is created directly in the
  accept queue.
* ``k`` and ``m`` are dynamically tunable (:meth:`ListenSocket.set_difficulty`
  mirrors the kernel's sysctl interface).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, TYPE_CHECKING

from repro.errors import NetworkError
from repro.net.floodpath import (MSS_SYNACK_SIZE, challenge_synack_size,
                                 plain_synack_size)
from repro.net.packet import (FLAG_SYNACK, Packet, TCPOptions,
                              mss_options)
from repro.puzzles.juels import FlowBinding, JuelsBrainardScheme, \
    VerifyStatus
from repro.puzzles.params import PuzzleParams
from repro.tcp.constants import (
    DEFAULT_ACCEPT_BACKLOG,
    DEFAULT_BACKLOG,
    DEFAULT_MSS,
    DEFAULT_SYNACK_RETRIES,
    DEFAULT_SYNACK_TIMEOUT,
    MAX_SYNACK_TIMEOUT,
    DefenseMode,
)
from repro.tcp.connection import ServerConnection
from repro.tcp.fairness import FairQueuingPolicy
from repro.tcp.queues import AcceptQueue, ListenQueue
from repro.tcp.syncache import CacheEntry, SynCache
from repro.tcp.syncookies import fallback_codec
from repro.tcp.tcb import EstablishPath, HalfOpenTCB

if TYPE_CHECKING:  # pragma: no cover
    from repro.tcp.stack import TCPStack


@dataclass
class DefenseConfig:
    """Server-side defense configuration (the sysctl surface)."""

    mode: DefenseMode = DefenseMode.NONE
    puzzle_params: PuzzleParams = field(
        default_factory=lambda: PuzzleParams(k=2, m=17))
    scheme: Optional[JuelsBrainardScheme] = None
    backlog: int = DEFAULT_BACKLOG
    accept_backlog: int = DEFAULT_ACCEPT_BACKLOG
    synack_timeout: float = DEFAULT_SYNACK_TIMEOUT
    synack_retries: int = DEFAULT_SYNACK_RETRIES
    syncache: Optional[SynCache] = None
    #: Challenge every SYN regardless of queue pressure. Used by the
    #: Figure 6 connection-time measurements and the controller ablation;
    #: the paper's deployed configuration is opportunistic (False).
    always_challenge: bool = False
    #: Puzzle Fair Queuing (§7 extension): per-source difficulty
    #: escalation. None = the paper's uniform pricing.
    fairness: Optional["FairQueuingPolicy"] = None
    #: Seconds the *ACK discipline* (plain completions refused, §5's
    #: verify-only rule) outlives the last queue-full observation. The
    #: challenge trigger stays instantaneous — challenging SYNs only while
    #: a queue is exactly full preserves the stranded-half-open supply
    #: that locks the listen queue — but the completion rule must ride
    #: through the sub-millisecond occupancy dips that expiry and
    #: completion churn create, or in-flight plain ACKs chain through the
    #: transient gaps at the accept-drain rate (see DESIGN.md).
    ack_discipline_hold: float = 2.0
    #: Reap SYN-cache records older than this many seconds (BSD reaps a
    #: syncache entry once its SYN-ACK retries are exhausted). ``None``
    #: (the default) keeps the churn-only baseline the paper discusses;
    #: the chaos harness sets it so the "cache entries always expire"
    #: invariant is enforceable.
    syncache_lifetime: Optional[float] = None
    #: Syncache occupancy fraction at which the listener stops inserting
    #: and serves stateless cookies instead (the FreeBSD-style overload
    #: fallback). ``None`` (the default) disables the fallback rung
    #: entirely — the cache churns exactly as the paper describes.
    syncache_high_watermark: Optional[float] = None
    #: Occupancy fraction below which cache service re-arms. The gap to
    #: the high watermark is the hysteresis band that keeps the listener
    #: from flapping between cache and cookie service every few SYNs.
    syncache_low_watermark: float = 0.60


@dataclass
class ListenerStats:
    """Counters behind Figures 7–11's per-path analysis."""

    syns_received: int = 0
    synacks_plain: int = 0           # SYN-ACK without challenge/cookie
    synacks_challenge: int = 0       # SYN-ACK carrying a challenge
    synacks_cookie: int = 0
    #: Cookies served *because* the syncache crossed its high watermark
    #: (counted in addition to synacks_cookie, which covers all cookies).
    synacks_cookie_fallback: int = 0
    #: SYNs refused by the token-bucket admission control rung.
    syns_rejected_admission: int = 0
    syn_drops_queue_full: int = 0    # nodefense: SYN dropped, queue full
    established_normal: int = 0
    established_cookie: int = 0
    established_puzzle: int = 0
    established_syncache: int = 0
    acks_ignored_queue_full: int = 0  # the §5 deception path
    solutions_invalid: int = 0
    cookies_invalid: int = 0
    accept_drops_full: int = 0
    half_open_expired: int = 0

    def established_total(self) -> int:
        return (self.established_normal + self.established_cookie
                + self.established_puzzle + self.established_syncache)


class ListenSocket:
    """A passive-open socket with pluggable state-exhaustion defenses."""

    def __init__(self, stack: "TCPStack", port: int,
                 config: Optional[DefenseConfig] = None) -> None:
        self.stack = stack
        self.host = stack.host
        self.port = port
        self.config = config if config is not None else DefenseConfig()
        self.listen_queue = ListenQueue(self.config.backlog)
        self.accept_queue = AcceptQueue(self.config.accept_backlog)
        # The queues' containers are created once and never swapped
        # (resize mutates them in place), so the per-SYN fullness probes
        # can be plain len() calls instead of property frames. ``backlog``
        # is still read live — fault injectors retune it mid-run.
        self._lq_table = self.listen_queue._table
        self._aq_queue = self.accept_queue._queue
        self.stats = ListenerStats()
        # Observability: SNMP counters land in the host's MIB scope, and
        # handshake tracepoints go to the engine-wide tracer (default off).
        self.mib = self.host.mib
        self._mib_incr = self.mib.incr  # bound once: hot on every SYN
        self._mib_values = self.mib._values  # ...and the flood-rate
        # counters skip even that frame with plain dict updates.
        self._tracer = self.host.obs.tracer
        #: Optional bounded-memory per-source attribution
        #: (:class:`repro.obs.sketch.SourceAttribution`). None (the
        #: default) keeps every emit site a single attribute test.
        self.attribution = None
        #: Optional graceful-degradation rungs (:mod:`repro.tcp.overload`):
        #: the front-door SYN rate limiter and the state-machine watchdog.
        #: Both default to None so every emit site stays one attribute
        #: test and detached runs are byte-identical.
        self.admission = None
        self.watchdog = None
        # Syncookie-fallback hysteresis latch: set when syncache occupancy
        # crosses the high watermark, cleared below the low watermark.
        self._fallback_engaged = False
        self.listen_queue.mib = self.mib
        self.accept_queue.mib = self.mib
        if self.config.scheme is None:
            self.config.scheme = JuelsBrainardScheme()
        self._cookie_codec = fallback_codec(
            self.config.scheme.secret.current)
        if (self.config.mode is DefenseMode.SYNCACHE
                and self.config.syncache is None):
            self.config.syncache = SynCache()
        if self.config.syncache is not None:
            self.config.syncache.mib = self.mib
        self._syncache_reaper = None
        if (self.config.syncache is not None
                and self.config.syncache_lifetime is not None):
            self._arm_syncache_reaper()
        self._attack_until = 0.0
        # Flyweight reply pipeline for blackholed SYN-ACKs (see
        # repro.net.floodpath); resolved lazily on first use. None =
        # unresolved, False = unavailable (batched path off, or the host
        # has no fabric to shortcut through).
        self._fast_reply = None
        # (params, on-wire size) of the last challenge SYN-ACK shape —
        # fairness policies swap params per source, so key by identity.
        self._challenge_size = None
        #: Called whenever a connection lands in the accept queue.
        self.on_acceptable: Optional[Callable[[], None]] = None
        #: Observability hook: (remote_ip, path) on every establishment —
        #: how experiments measure the server-side effective attack rate.
        self.on_established_hook: Optional[
            Callable[[int, EstablishPath], None]] = None

    # ------------------------------------------------------------------
    # Tracepoints
    # ------------------------------------------------------------------
    def _trace(self, event: str, flow, **detail) -> None:
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(self.host.engine.now, self.host.name, event, flow,
                        **detail)

    # ------------------------------------------------------------------
    # sysctl-style tuning
    # ------------------------------------------------------------------
    def set_difficulty(self, k: int, m: int) -> None:
        """Dynamically retune (k, m) — the kernel patch's sysctl knobs."""
        old = self.config.puzzle_params
        self.config.puzzle_params = PuzzleParams(
            k=k, m=m, length_bytes=old.length_bytes)

    # ------------------------------------------------------------------
    # Controller predicates
    # ------------------------------------------------------------------
    @property
    def protection_active(self) -> bool:
        """Opportunistic challenge trigger: any *currently* full queue.

        Deliberately instantaneous (the paper's "enabled when the
        socket's queue is full"): SYNs arriving in momentary openings take
        the stock path, which is what keeps the listen queue supplied
        with strandable half-opens during an attack.
        """
        if self.config.mode is DefenseMode.NONE:
            return False
        if self.config.mode is DefenseMode.PUZZLES:
            pressured = (self.config.always_challenge
                         or self.listen_queue.full
                         or self.accept_queue.full)
            if pressured:
                self._attack_until = (self.host.engine.now
                                      + self.config.ack_discipline_hold)
            return pressured
        # Cookies/cache engage on listen-queue pressure only (stock Linux).
        return self.listen_queue.full

    @property
    def under_attack(self) -> bool:
        """Sticky attack state gating the ACK discipline (§5's "while
        under attack ... only performs the verification procedure").

        Refreshed by every queue-full observation; survives the
        sub-millisecond occupancy dips between an expiry/completion and
        the flood's refill — the window through which in-flight plain
        ACKs would otherwise cascade (completion opens a slot, the refill
        SYN's own ACK completes through another completion's gap, ad
        infinitum at the drain rate).
        """
        if self.protection_active:
            return True
        if self.config.mode is not DefenseMode.PUZZLES:
            return False
        return self.host.engine.now < self._attack_until

    # ------------------------------------------------------------------
    # SYN handling
    # ------------------------------------------------------------------
    def handle_syn(self, packet: Packet) -> None:
        stats = self.stats
        stats.syns_received += 1
        values = self._mib_values
        values["SynsRecv"] = values.get("SynsRecv", 0) + 1
        if self.attribution is not None:
            self.attribution.on_syn(packet.src_ip)
        # Tracer guards inlined on the flood-rate sites: when tracing is
        # off (the default) this skips building the flow tuple and the
        # _trace call frame for every SYN.
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(self.host.engine.now, self.host.name, "syn-in",
                        (packet.src_ip, packet.src_port, self.port))
        if self.admission is not None and not self.admission.admit(
                packet.src_ip, self.host.engine.now):
            # Degradation-ladder front door: over-rate SYNs are shed
            # before any state, hash, or reply is spent on them.
            stats.syns_rejected_admission += 1
            values["AdmissionDrops"] = values.get("AdmissionDrops", 0) + 1
            if self.attribution is not None:
                self.attribution.on_drop(packet.src_ip, "AdmissionDrops")
            if tracer.enabled:
                tracer.emit(self.host.engine.now, self.host.name, "drop",
                            (packet.src_ip, packet.src_port, self.port),
                            reason="admission")
            return
        config = self.config
        mode = config.mode

        if mode is DefenseMode.PUZZLES:
            # protection_active inlined (its property frame is measurable
            # at flood rates), as are both queue-full probes: any
            # currently full queue — or the always-challenge override —
            # triggers a challenge, and every such observation refreshes
            # the sticky attack window.
            if (config.always_challenge
                    or len(self._lq_table) >= self.listen_queue.backlog
                    or len(self._aq_queue) >= self.accept_queue.backlog):
                self._attack_until = (self.host.engine.now
                                      + config.ack_discipline_hold)
                self._send_challenge(packet)
                return
        elif (mode is DefenseMode.SYNCOOKIES
                and len(self._lq_table) >= self.listen_queue.backlog):
            self._send_cookie_synack(packet)
            return
        elif mode is DefenseMode.SYNCACHE:
            self._syncache_insert(packet)
            return

        # Stock path: allocate half-open state if the backlog allows.
        if len(self._lq_table) >= self.listen_queue.backlog:
            stats.syn_drops_queue_full += 1
            values["ListenOverflows"] = values.get("ListenOverflows", 0) + 1
            if self.attribution is not None:
                self.attribution.on_drop(packet.src_ip, "ListenOverflows")
            if tracer.enabled:
                tracer.emit(self.host.engine.now, self.host.name, "drop",
                            (packet.src_ip, packet.src_port, self.port),
                            reason="listen-overflow")
            return
        self._stock_half_open(packet)

    def _stock_half_open(self, packet: Packet) -> None:
        flow = (packet.src_ip, packet.src_port, self.port)
        existing = self.listen_queue.get(flow)
        if existing is not None:
            self._send_plain_synack(existing)
            return
        tcb = HalfOpenTCB(
            remote_ip=packet.src_ip, remote_port=packet.src_port,
            local_port=self.port, remote_isn=packet.seq,
            local_isn=self.stack.new_isn(),
            mss=packet.options.mss or DEFAULT_MSS,
            wscale=packet.options.wscale,
            created_at=self.host.engine.now,
            timeout_scale=self.host.rng.uniform(0.7, 1.3))
        if not self.listen_queue.try_add(tcb):
            # The queue's own mib hook counted the ListenOverflow.
            self.stats.syn_drops_queue_full += 1
            if self.attribution is not None:
                self.attribution.on_drop(tcb.remote_ip, "ListenOverflows")
            self._trace("drop", tcb.flow, reason="listen-overflow")
            return
        self._send_plain_synack(tcb)
        self._arm_synack_timer(tcb)

    def _resolve_fast_reply(self):
        """Resolve (once) the flyweight pipeline for blackholed replies.

        Returns the :class:`~repro.net.floodpath.ReplyFastPath`, or
        ``False`` when this host cannot use one (batched fast path
        disabled, a bare test host without a fabric, or a host the
        topology cannot route an uplink for)."""
        network = getattr(self.host, "network", None)
        fast = None
        if network is not None:
            try:
                fast = network.reply_fast_path(self.host)
            except NetworkError:
                fast = None
        fast = fast if fast is not None else False
        self._fast_reply = fast
        return fast

    def _send_plain_synack(self, tcb: HalfOpenTCB) -> None:
        self.stats.synacks_plain += 1
        self._mib_incr("SynAcksSent")
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(self.host.engine.now, self.host.name, "synack-out",
                        tcb.flow, retrans=tcb.retransmits)
        fast = self._fast_reply
        if fast is None:
            fast = self._resolve_fast_reply()
        if fast is not False and fast.sendable(tcb.remote_ip):
            # Spoofed peer, no packet observers: the SYN-ACK is pure
            # uplink bytes. Same counters and fold, no materialization.
            fast.send(plain_synack_size(tcb.wscale), tcb.remote_ip,
                      tcb.remote_port)
            return
        options = TCPOptions(mss=DEFAULT_MSS, wscale=tcb.wscale)
        packet = Packet(src_ip=self.host.address, dst_ip=tcb.remote_ip,
                        src_port=self.port, dst_port=tcb.remote_port,
                        seq=tcb.local_isn, ack=tcb.remote_isn + 1,
                        flags=FLAG_SYNACK, options=options)
        self.host.send(packet)

    def _arm_synack_timer(self, tcb: HalfOpenTCB) -> None:
        # Per-step ±10% jitter (timer wheel) on top of the entry's own
        # lifetime scale (see HalfOpenTCB.timeout_scale): together they
        # spread a burst-created cohort's expiries over tens of seconds,
        # so the listen queue's strand lock erodes as a trickle of
        # individually-refilled openings instead of periodic mass waves.
        jitter = tcb.timeout_scale * self.host.rng.uniform(0.9, 1.1)
        # Exponential backoff clamped at MAX_SYNACK_TIMEOUT (TCP_RTO_MAX):
        # past the cap every further retry waits the cap, not 2x more.
        base = min(self.config.synack_timeout * (2 ** tcb.retransmits),
                   MAX_SYNACK_TIMEOUT)
        tcb.timer = self.host.engine.schedule(
            base * jitter, self._synack_timeout, tcb)

    def _synack_timeout(self, tcb: HalfOpenTCB) -> None:
        if self.listen_queue.get(tcb.flow) is not tcb:
            return  # completed or already reaped
        if tcb.retransmits >= self.config.synack_retries:
            # The queue's mib hook counts HalfOpenExpired.
            self.listen_queue.expire(tcb.flow)
            self.stats.half_open_expired += 1
            if self.attribution is not None:
                self.attribution.on_drop(tcb.remote_ip, "HalfOpenExpired")
            self._trace("expire", tcb.flow, retrans=tcb.retransmits)
            return
        tcb.retransmits += 1
        self._mib_incr("SynAckRetrans")
        self._send_plain_synack(tcb)
        self._arm_synack_timer(tcb)

    def _arm_syncache_reaper(self) -> None:
        # Rotating shard sweep: each timer-wheel tick reaps one shard,
        # and every shard is visited once per quarter lifetime — so
        # entries overstay by at most lifetime/4 (within the invariant
        # checker's bound) while each tick touches only buckets/shards
        # buckets instead of stalling on the whole table.
        cache = self.config.syncache
        interval = self.config.syncache_lifetime / (4.0 * cache.shard_count)
        self._reap_shard = 0
        self._syncache_reaper = self.host.engine.schedule(
            interval, self._syncache_reap, interval)

    def _syncache_reap(self, interval: float) -> None:
        cache = self.config.syncache
        cutoff = self.host.engine.now - self.config.syncache_lifetime
        cache.expire_shard_older_than(self._reap_shard, cutoff)
        self._reap_shard = (self._reap_shard + 1) % cache.shard_count
        self._syncache_reaper = self.host.engine.schedule(
            interval, self._syncache_reap, interval)

    def _send_challenge(self, packet: Packet) -> None:
        config = self.config
        scheme = config.scheme
        params = config.puzzle_params
        if config.fairness is not None:
            params = config.fairness.difficulty_for(
                packet.src_ip, self.host.engine.now)
        fast = self._fast_reply
        if fast is None:
            fast = self._resolve_fast_reply()
        if fast is not False and fast.sendable(packet.src_ip):
            # Spoofed peer, no packet observers: the challenge block is
            # never read, so issue it from struct-packed material (same
            # hash and counter accounting, same ISN draw) and fold just
            # the response's bytes through the uplink.
            host = self.host
            scheme.issue_preimage(
                params, packet.src_ip, packet.dst_ip, packet.src_port,
                packet.dst_port, packet.seq, host.now,
                counter=host.hash_counter)
            host.cpu.consume(1)
            self.stats.synacks_challenge += 1
            values = self._mib_values
            values["PuzzlesIssued"] = values.get("PuzzlesIssued", 0) + 1
            tracer = self._tracer
            if tracer.enabled:
                tracer.emit(host.engine.now, host.name,
                            "challenge-out",
                            (packet.src_ip, packet.src_port, self.port),
                            k=params.k, m=params.m)
            # stack.new_isn() inlined — the same single getrandbits(32)
            # draw, minus two frames per challenge.
            host.rng.getrandbits(32)
            size = self._challenge_size
            if size is None or size[0] is not params:
                size = (params, challenge_synack_size(params))
                self._challenge_size = size
            fast.send(size[1], packet.src_ip, packet.src_port)
            return
        binding = FlowBinding(src_ip=packet.src_ip, dst_ip=packet.dst_ip,
                              src_port=packet.src_port,
                              dst_port=packet.dst_port, isn=packet.seq)
        # Timestamp reads go through the host's wall-clock view (engine
        # time plus injected skew) — timers elsewhere stay monotonic.
        challenge = scheme.make_challenge(
            params, binding, self.host.now,
            counter=self.host.hash_counter)
        self.host.cpu.consume(1)  # g(p) = 1 hash of server CPU time
        self.stats.synacks_challenge += 1
        self._mib_incr("PuzzlesIssued")
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(self.host.engine.now, self.host.name,
                        "challenge-out",
                        (packet.src_ip, packet.src_port, self.port),
                        k=params.k, m=params.m)
        options = TCPOptions(mss=DEFAULT_MSS, challenge=challenge)
        response = Packet(src_ip=self.host.address, dst_ip=packet.src_ip,
                          src_port=self.port, dst_port=packet.src_port,
                          seq=self.stack.new_isn(), ack=packet.seq + 1,
                          flags=FLAG_SYNACK, options=options)
        self.host.send(response)

    def _send_cookie_synack(self, packet: Packet) -> None:
        self.stats.synacks_cookie += 1
        self._mib_incr("SynCookiesSent")
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(self.host.engine.now, self.host.name, "cookie-out",
                        (packet.src_ip, packet.src_port, self.port))
        fast = self._fast_reply
        if fast is None:
            fast = self._resolve_fast_reply()
        if fast is not False and fast.sendable(packet.src_ip):
            # A spoofed peer will never echo the cookie, so only bytes
            # remain: the cookie is minted only for a SYN-ACK that is
            # materialized (encoding is pure, so skipping it here changes
            # no counter, trace or digest).
            fast.send(MSS_SYNACK_SIZE, packet.src_ip, packet.src_port)
            return
        cookie = self._cookie_codec.encode(
            self.host.now, packet.src_ip, packet.src_port,
            self.port, packet.seq, packet.options.mss or DEFAULT_MSS)
        # wscale is lost with cookies; the MSS-only shape is interned.
        options = mss_options(DEFAULT_MSS)
        response = Packet(src_ip=self.host.address, dst_ip=packet.src_ip,
                          src_port=self.port, dst_port=packet.src_port,
                          seq=cookie, ack=packet.seq + 1,
                          flags=FLAG_SYNACK, options=options)
        self.host.send(response)

    def _syncache_insert(self, packet: Packet) -> None:
        config = self.config
        cache = config.syncache
        if config.syncache_high_watermark is not None:
            # FreeBSD-style overload fallback with hysteresis: above the
            # high watermark the listener stops inserting and serves
            # stateless cookies; cache service re-arms only once
            # occupancy has drained below the low watermark.
            occupancy = cache.occupancy_fraction
            if self._fallback_engaged:
                if occupancy <= config.syncache_low_watermark:
                    self._fallback_engaged = False
            elif occupancy >= config.syncache_high_watermark:
                self._fallback_engaged = True
            if self._fallback_engaged:
                self.stats.synacks_cookie_fallback += 1
                self._mib_incr("SynCacheCookieFallback")
                self._send_cookie_synack(packet)
                return
        entry = CacheEntry(
            flow=(packet.src_ip, packet.src_port, self.port),
            remote_isn=packet.seq, local_isn=self.stack.new_isn(),
            mss=packet.options.mss or DEFAULT_MSS,
            wscale=packet.options.wscale,
            created_at=self.host.engine.now)
        if not cache.insert(entry):
            # reject-new policy: no record, no SYN-ACK — the client
            # retries into (hopefully) a less loaded cache. The cache's
            # own rejected counter / SynCacheRejects MIB carry the tally.
            if self.attribution is not None:
                self.attribution.on_drop(packet.src_ip, "SynCacheRejects")
            self._trace("drop", entry.flow, reason="syncache-reject")
            return
        tcb = HalfOpenTCB(
            remote_ip=packet.src_ip, remote_port=packet.src_port,
            local_port=self.port, remote_isn=packet.seq,
            local_isn=entry.local_isn, mss=entry.mss, wscale=entry.wscale,
            created_at=entry.created_at)
        self._send_plain_synack(tcb)

    # ------------------------------------------------------------------
    # ACK handling
    # ------------------------------------------------------------------
    def handle_ack(self, packet: Packet) -> bool:
        """Process a handshake-completing ACK; False → caller sends RST.

        §5 semantics: while the protection is in effect every completing
        ACK goes through the verification procedure — a plain ACK cannot
        complete **even an existing half-open**. This is what keeps the
        listen queue saturated with stranded half-opens during an attack
        (Figure 10) and limits attackers to the solving path.
        """
        flow = (packet.src_ip, packet.src_port, self.port)
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(self.host.engine.now, self.host.name, "ack-in",
                        flow,
                        solution=packet.options.solution is not None,
                        payload=packet.payload_bytes)

        tcb = self.listen_queue.get(flow)
        if tcb is not None:
            if (self.config.mode is DefenseMode.PUZZLES
                    and self.under_attack
                    and packet.options.solution is None):
                # Under attack, unverified completions are ignored; the
                # half-open is left stranded until its timer reaps it.
                self.stats.acks_ignored_queue_full += 1
                self._mib_incr("DeceptionAcksIgnored")
                if self.attribution is not None:
                    self.attribution.on_drop(packet.src_ip,
                                             "DeceptionAcksIgnored")
                self._trace("ignore", flow, reason="plain-ack-under-attack")
                return True
            return self._complete_stock(tcb)

        if packet.options.solution is not None and \
                self.config.mode is DefenseMode.PUZZLES:
            return self._complete_puzzle(packet)

        if self.config.mode is DefenseMode.SYNCACHE:
            entry = self.config.syncache.complete(flow)
            if entry is not None:
                return self._install(packet, EstablishPath.SYNCACHE,
                                     entry.mss, entry.wscale)
            if self.config.syncache_high_watermark is not None:
                # Fallback rung armed: this ACK may answer a cookie the
                # overloaded cache served instead of a record. Validate
                # statelessly before declaring a miss.
                state = self._cookie_codec.decode(
                    self.host.now, (packet.ack - 1) & 0xFFFFFFFF,
                    packet.src_ip, packet.src_port, self.port,
                    (packet.seq - 1) & 0xFFFFFFFF)
                if state is not None:
                    self._mib_incr("SynCookiesRecv")
                    return self._complete_cookie(packet, state)
            self._mib_incr("SynCacheMisses")
            if self.attribution is not None:
                self.attribution.on_drop(packet.src_ip, "SynCacheMisses")
            self._trace("reject", flow, reason="syncache-miss")
            return False

        if self.config.mode is DefenseMode.SYNCOOKIES:
            state = self._cookie_codec.decode(
                self.host.now, (packet.ack - 1) & 0xFFFFFFFF,
                packet.src_ip, packet.src_port, self.port,
                (packet.seq - 1) & 0xFFFFFFFF)
            if state is not None:
                self._mib_incr("SynCookiesRecv")
                return self._complete_cookie(packet, state)
            self.stats.cookies_invalid += 1
            self._mib_incr("SynCookiesFailed")
            if self.attribution is not None:
                self.attribution.on_drop(packet.src_ip, "SynCookiesFailed")
            self._trace("reject", flow, reason="bad-cookie")
            return False

        if self.config.mode is DefenseMode.PUZZLES \
                and packet.payload_bytes == 0 and self.under_attack:
            # Pure plain ACK while puzzles are demanded — e.g. an
            # unpatched host answering a challenge. Silently ignored: the
            # host believes it connected; data it sends later carries a
            # payload, falls through here, and draws an RST (§5).
            self.stats.solutions_invalid += 1
            self._mib_incr("PlainAcksIgnored")
            if self.attribution is not None:
                self.attribution.on_drop(packet.src_ip, "PlainAcksIgnored")
            self._trace("ignore", flow, reason="plain-ack")
            return True
        return False

    def _complete_stock(self, tcb: HalfOpenTCB) -> bool:
        if self.accept_queue.full:
            # Stock Linux: leave the connection half-open; the SYN-ACK
            # timer keeps running and may later find room.
            self.stats.accept_drops_full += 1
            self._mib_incr("AcceptOverflows")
            if self.attribution is not None:
                self.attribution.on_drop(tcb.remote_ip, "AcceptOverflows")
            self._trace("ignore", tcb.flow, reason="accept-overflow")
            return True
        self.listen_queue.complete(tcb.flow)
        self._install_tcb(tcb.remote_ip, tcb.remote_port,
                          EstablishPath.NORMAL, tcb.mss, tcb.wscale)
        return True

    def _complete_puzzle(self, packet: Packet) -> bool:
        flow = (packet.src_ip, packet.src_port, self.port)
        # §5: verify only when there is room; otherwise ignore the ACK.
        if self.accept_queue.full:
            self.stats.acks_ignored_queue_full += 1
            self._mib_incr("DeceptionAcksIgnored")
            if self.attribution is not None:
                self.attribution.on_drop(packet.src_ip,
                                         "DeceptionAcksIgnored")
            self._trace("ignore", flow, reason="accept-full-deception")
            return True
        solution = packet.options.solution
        binding = FlowBinding(src_ip=packet.src_ip, dst_ip=packet.dst_ip,
                              src_port=packet.src_port,
                              dst_port=packet.dst_port,
                              isn=(packet.seq - 1) & 0xFFFFFFFF)
        scheme = self.config.scheme
        expected = self.config.puzzle_params
        if self.config.fairness is not None:
            # Fair queuing: accept any difficulty at or above this
            # source's current requirement (the solution echoes its own
            # parameters; a requirement that rose mid-handshake just
            # costs the client a retry).
            required = self.config.fairness.difficulty_for(
                packet.src_ip, self.host.engine.now)
            if (solution.params.k != required.k
                    or solution.params.m < required.m
                    or solution.params.length_bytes
                    != required.length_bytes):
                self.stats.solutions_invalid += 1
                self._mib_incr("PuzzlesRejected")
                if self.attribution is not None:
                    self.attribution.on_drop(packet.src_ip,
                                             "PuzzlesRejected")
                    self.attribution.on_puzzle_failure(packet.src_ip)
                self._trace("reject", flow, reason="fairness-difficulty")
                return True
            expected = solution.params
        result = scheme.verify(
            solution, binding, self.host.now,
            expected, rng=self.host.rng,
            counter=self.host.hash_counter)
        self.host.cpu.consume(result.hashes_spent)
        if not result.ok:
            self.stats.solutions_invalid += 1
            # Stale/future timestamps are the replay window at work; the
            # rest are genuinely bad solutions.
            if result.status in (VerifyStatus.EXPIRED,
                                 VerifyStatus.FUTURE_TIMESTAMP):
                cause = "ReplaysBlocked"
            else:
                cause = "PuzzlesRejected"
            self._mib_incr(cause)
            if self.attribution is not None:
                self.attribution.on_drop(packet.src_ip, cause)
                self.attribution.on_puzzle_failure(packet.src_ip)
            self._trace("reject", flow, reason=result.status.value)
            return True  # silently dropped, no RST: stateless server
        self._mib_incr("PuzzlesVerified")
        return self._install(packet, EstablishPath.PUZZLE,
                             solution.mss, solution.wscale)

    def _complete_cookie(self, packet: Packet, state) -> bool:
        if self.accept_queue.full:
            self.stats.accept_drops_full += 1
            self._mib_incr("AcceptOverflows")
            if self.attribution is not None:
                self.attribution.on_drop(packet.src_ip, "AcceptOverflows")
            self._trace("ignore",
                        (packet.src_ip, packet.src_port, self.port),
                        reason="accept-overflow")
            return True
        return self._install(packet, EstablishPath.COOKIE, state.mss,
                             state.wscale)

    def _install(self, packet: Packet, path: EstablishPath, mss: int,
                 wscale) -> bool:
        return self._install_tcb(packet.src_ip, packet.src_port, path, mss,
                                 wscale)

    def _install_tcb(self, remote_ip: int, remote_port: int,
                     path: EstablishPath, mss: int, wscale) -> bool:
        connection = ServerConnection(
            self.stack, self.port, remote_ip, remote_port, path, mss,
            wscale)
        flow = (remote_ip, remote_port, self.port)
        if not self.accept_queue.try_add(connection):
            # The queue's mib hook counted the AcceptOverflow.
            self.stats.accept_drops_full += 1
            if self.attribution is not None:
                self.attribution.on_drop(remote_ip, "AcceptOverflows")
            self._trace("ignore", flow, reason="accept-overflow")
            return True
        self.stack.register_server(connection)
        if path is EstablishPath.NORMAL:
            self.stats.established_normal += 1
            self._mib_incr("EstabNormal")
        elif path is EstablishPath.COOKIE:
            self.stats.established_cookie += 1
            self._mib_incr("EstabCookie")
        elif path is EstablishPath.PUZZLE:
            self.stats.established_puzzle += 1
            self._mib_incr("EstabPuzzle")
        else:
            self.stats.established_syncache += 1
            self._mib_incr("EstabSynCache")
        self._trace("accept", flow, path=path.value)
        if self.config.fairness is not None:
            self.config.fairness.record_established(
                remote_ip, self.host.engine.now)
        if self.on_established_hook is not None:
            self.on_established_hook(remote_ip, path)
        if self.on_acceptable is not None:
            self.on_acceptable()
        return True

    # ------------------------------------------------------------------
    # Fault injection: memory pressure
    # ------------------------------------------------------------------
    def apply_memory_pressure(self, listen_backlog: Optional[int] = None,
                              accept_backlog: Optional[int] = None,
                              syncache_limit: Optional[int] = None
                              ) -> dict:
        """Resize queue capacities mid-run, reclaiming overflow.

        Passing a smaller bound evicts entries immediately (oldest
        half-opens, newest un-accepted connections, oldest cache records);
        a larger bound restores headroom without creating state. Returns
        ``{"listen": n, "accept": n, "syncache": n}`` eviction counts.
        """
        evicted = {"listen": 0, "accept": 0, "syncache": 0}
        if listen_backlog is not None:
            evicted["listen"] = self.listen_queue.resize(listen_backlog)
        if accept_backlog is not None:
            shed = self.accept_queue.resize(accept_backlog)
            for connection in shed:
                self.stack.forget_server(connection)
            evicted["accept"] = len(shed)
        if syncache_limit is not None and self.config.syncache is not None:
            evicted["syncache"] = self.config.syncache.set_bucket_limit(
                syncache_limit)
        return evicted

    # ------------------------------------------------------------------
    # App interface
    # ------------------------------------------------------------------
    def accept(self) -> Optional[ServerConnection]:
        """Dequeue the oldest established connection, or None."""
        connection = self.accept_queue.pop()
        if connection is not None:
            self.host.obs.hist.record(
                "accept_wait",
                self.host.engine.now - connection.established_at)
        return connection
