"""The discrete-event engine: a hierarchical timer wheel with batched dispatch.

Design notes
------------
* The scheduler is a **bucketed calendar queue** (timer wheel): a ring of
  ``WHEEL_SLOTS`` buckets, each one wheel *tick* (``wheel_granularity``
  seconds) wide, holding every event due in that tick. The TCP workload is
  dominated by near-future timers — SYN-ACK retransmission timeouts and
  syncache expiries a few (scaled) RTOs out — which land in the wheel for
  O(1) insert and true O(1) cancel (a dict ``del``, no heap surgery, no
  lazy deletion). Events beyond the wheel horizon (``WHEEL_SLOTS`` ticks)
  go to an **overflow tier**: a binary heap with the old lazy-deletion +
  compaction scheme, migrated into the wheel as the cursor approaches.
* **Determinism / total order.** Events fire in exact ``(time, seq)``
  order — `seq` is the monotonically increasing schedule counter — so
  runs are byte-identical to the original heap engine. The argument:
  ``tick(t) = int(t * inv_granularity)`` is monotone in ``t``, buckets
  are dispatched in tick order, and each bucket is sorted by
  ``(time, seq)`` before dispatch. Tick width therefore affects only
  *performance*, never event order. The overflow tier only holds events
  at least a full wheel span ahead of the cursor, so migration always
  happens before the cursor could reach them.
* **Batched dispatch.** :meth:`Engine.run` drains a whole tick's bucket
  per refill: the bucket is sorted once (C-speed list sort, descending,
  popped from the end) and per-event work is a list pop plus the
  callback. The profiler branch is hoisted out of the loop — with no
  profiler attached a run makes exactly two ``perf_counter`` calls
  (start/stop), never per event; this is pinned by a regression test.
* A compiled C core (:mod:`repro.sim.accel`, built on demand with the
  system compiler) implements the same algorithm behind the same API and
  replaces ``Engine`` when available; ``REPRO_ENGINE=py|c|auto`` selects.
  The Python classes below remain the reference semantics, and a
  differential self-test gates adoption of the compiled core at import.
* Observability: :meth:`Engine.stats` exposes processed/cancelled event
  counts, overflow compactions, the pending high-water mark, live vs raw
  pending (the overflow tier still holds lazily-deleted entries), and
  the wall time spent inside :meth:`run`. Attaching an
  :class:`~repro.obs.profile.EngineProfiler` via :meth:`attach_profiler`
  additionally times every dispatched callback.
* The engine knows nothing about networks or hosts; higher layers schedule
  plain callbacks.
"""

from __future__ import annotations

import gc
import os
from heapq import heapify, heappop, heappush
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

from repro.errors import SimulationError

#: Never compact an overflow heap smaller than this — rebuilding a few
#: dozen entries costs more bookkeeping than the dead entries do.
COMPACT_MIN_HEAP = 64

#: Wheel size: one full rotation covers WHEEL_SLOTS * granularity seconds
#: of simulated time. Power of two so the slot index is a mask, not a mod.
WHEEL_SLOTS = 256
_WHEEL_MASK = WHEEL_SLOTS - 1

#: Default tick width. At the default 1 ms the wheel spans 256 ms — wider
#: than every scaled RTO/expiry the fig workloads arm, so the overflow
#: tier only sees coarse experiment-level timers.
DEFAULT_GRANULARITY = 1e-3

#: Sentinel marking an event as living in the overflow heap (its `slot`
#: attribute); wheel residents point `slot` at their bucket dict instead.
_OVERFLOW = object()

#: Tick bound standing in for "no limit" (run without `until`).
_MAX_TICK = 1 << 62


class Event:
    """Handle for a scheduled callback.

    Returned by :meth:`Engine.schedule`; the only public operation is
    :meth:`cancel`. Instances are single-use: once the event has fired
    or been cancelled it drops ``callback`` and ``args`` (both read
    ``None``), so a handle kept by its owner never pins the owner.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "slot",
                 "engine")

    def __init__(self, time: float, seq: int,
                 callback: Callable[..., None], args: tuple):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.slot = None
        self.engine: Optional["Engine"] = None

    def cancel(self) -> None:
        """Prevent the callback from firing. Idempotent, O(1)."""
        if self.cancelled:
            return
        self.cancelled = True
        self.callback = self.args = None
        engine = self.engine
        if engine is not None:
            engine._note_cancelled(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} seq={self.seq} {state}>"


class Engine:
    """A discrete-event simulation engine.

    Typical use::

        engine = Engine()
        engine.schedule(1.0, lambda: print("one second in"))
        engine.run(until=10.0)

    The clock starts at ``0.0`` and only advances when events fire; *until*
    is inclusive (an event at exactly ``until`` still runs).
    """

    def __init__(self, wheel_granularity: float = DEFAULT_GRANULARITY) -> None:
        if wheel_granularity <= 0:
            raise SimulationError(
                f"wheel_granularity must be > 0, got {wheel_granularity!r}")
        self._gran = wheel_granularity
        self._inv_gran = 1.0 / wheel_granularity
        # The wheel: bucket dicts keyed by event seq (unique), valued by
        # (time, seq, event) tuples so the batch sort is pure C tuple
        # comparison. `_cursor` is the next tick to examine; every wheel
        # resident's tick is in [cursor, cursor + WHEEL_SLOTS).
        self._wheel: List[dict] = [{} for _ in range(WHEEL_SLOTS)]
        self._wheel_count = 0
        self._cursor = 0
        # Events >= a full wheel span ahead: lazy-deletion heap, migrated
        # into the wheel as the cursor approaches.
        self._overflow: List[tuple] = []
        self._overflow_dead = 0
        # The tick currently being dispatched: its entries, sorted
        # descending by (time, seq) and popped from the end. Mutated only
        # in place so mid-run aliases (and `drain`) stay valid.
        self._batch: List[tuple] = []
        self._active_tick = -1
        self._now = 0.0
        self._seq = 0
        self._running = False
        self._stopped = False
        self._events_processed = 0
        self._events_cancelled = 0
        self._compactions = 0
        self._pending = 0        # raw entries incl. lazily-deleted overflow
        self._live = 0           # entries that will actually fire
        self._high_water = 0
        self._wall_seconds = 0.0
        self._profiler = None
        # Per-key clock offsets for fault injection (empty in normal runs;
        # the read path special-cases the empty dict so un-faulted
        # simulations never pay for the lookup).
        self._clock_offsets: Dict[str, float] = {}

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # Per-key clock views (fault injection: clock skew)
    # ------------------------------------------------------------------
    def set_clock_offset(self, key: str, offset: float) -> None:
        """Skew the clock view of *key* (a host name) by *offset* seconds.

        Engine scheduling is unaffected — offsets only change what
        :meth:`now_for` reports, modelling a host whose wall clock reads
        (puzzle timestamps, cookie timestamps) have drifted while its
        monotonic timers keep firing on schedule. ``offset=0`` removes
        the entry.
        """
        if offset:
            self._clock_offsets[key] = offset
        else:
            self._clock_offsets.pop(key, None)

    def clock_offset(self, key: str) -> float:
        """The current clock offset for *key* (0.0 when unskewed)."""
        return self._clock_offsets.get(key, 0.0)

    def now_for(self, key: str) -> float:
        """*key*'s view of the current time: ``now`` plus any skew."""
        offsets = self._clock_offsets
        if not offsets:
            return self._now
        return self._now + offsets.get(key, 0.0)

    @property
    def events_scheduled(self) -> int:
        """Number of events ever scheduled."""
        return self._seq

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (cancelled events excluded)."""
        return self._events_processed

    @property
    def events_cancelled(self) -> int:
        """Number of events cancelled before they could fire."""
        return self._events_cancelled

    @property
    def compactions(self) -> int:
        """Overflow-heap rebuilds that purged lazily-deleted entries."""
        return self._compactions

    @property
    def pending(self) -> int:
        """Raw scheduled entries, including lazily-deleted overflow ones."""
        return self._pending

    @property
    def pending_live(self) -> int:
        """Pending entries that will actually fire (cancellations excluded).

        Wheel cancellations are removed eagerly, so the raw and live
        counts only diverge by dead entries awaiting overflow compaction
        or sitting cancelled in the active batch.
        """
        return self._live

    @property
    def profiler(self):
        """The attached :class:`EngineProfiler`, or None."""
        return self._profiler

    def attach_profiler(self, profiler) -> None:
        """Attach (or with ``None`` detach) a per-callback profiler.

        Takes effect at the next :meth:`run` call; anything with a
        ``record(callback, wall_seconds)`` method works.
        """
        self._profiler = profiler

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., None],
                 *args: Any) -> Event:
        """Schedule *callback(*args)* to run ``delay`` seconds from now.

        Raises :class:`SimulationError` for negative delays; a zero delay is
        allowed and runs after all events already scheduled for this instant.
        """
        if delay < 0:
            raise SimulationError(
                f"cannot schedule an event {delay!r}s in the past")
        # The body of `_insert`, inlined: this is the single hottest
        # function in the package and the call frame is measurable.
        time = self._now + delay
        seq = self._seq + 1
        self._seq = seq
        event = Event.__new__(Event)
        event.time = time
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event.engine = self
        tick = int(time * self._inv_gran)
        if tick <= self._active_tick:
            event.slot = None
            batch = self._batch
            lo, hi = 0, len(batch)
            while lo < hi:
                mid = (lo + hi) >> 1
                if batch[mid][0] > time:
                    lo = mid + 1
                else:
                    hi = mid
            batch.insert(lo, (time, seq, event))
        else:
            cursor = self._cursor
            if tick < cursor:
                tick = cursor
            if tick - cursor < WHEEL_SLOTS:
                bucket = self._wheel[tick & _WHEEL_MASK]
                bucket[seq] = (time, seq, event)
                event.slot = bucket
                self._wheel_count += 1
            else:
                event.slot = _OVERFLOW
                heappush(self._overflow, (time, seq, event))
        pending = self._pending + 1
        self._pending = pending
        if pending > self._high_water:
            self._high_water = pending
        self._live += 1
        return event

    def schedule_at(self, time: float, callback: Callable[..., None],
                    *args: Any) -> Event:
        """Schedule *callback(*args)* at absolute simulation time *time*."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time!r} before now={self._now!r}")
        return self._insert(time, callback, args)

    def _insert(self, time: float, callback: Callable[..., None],
                args: tuple) -> Event:
        """Shared scheduling hot path: place one event in the right tier."""
        seq = self._seq + 1
        self._seq = seq
        event = Event.__new__(Event)
        event.time = time
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event.engine = self
        tick = int(time * self._inv_gran)
        if tick <= self._active_tick:
            # Due in the tick currently being dispatched: insert into the
            # live batch (descending by (time, seq); `seq` is larger than
            # every resident, so equal times land before them and pop
            # later — exactly the heap engine's tie-break).
            event.slot = None
            batch = self._batch
            lo, hi = 0, len(batch)
            while lo < hi:
                mid = (lo + hi) >> 1
                if batch[mid][0] > time:
                    lo = mid + 1
                else:
                    hi = mid
            batch.insert(lo, (time, seq, event))
        else:
            cursor = self._cursor
            if tick < cursor:
                # A not-yet-rescanned tick (the clock sits mid-tick after
                # a dispatch): merge into the next examined bucket — the
                # per-bucket sort still fires it first.
                tick = cursor
            if tick - cursor < WHEEL_SLOTS:
                bucket = self._wheel[tick & _WHEEL_MASK]
                bucket[seq] = (time, seq, event)
                event.slot = bucket
                self._wheel_count += 1
            else:
                event.slot = _OVERFLOW
                heappush(self._overflow, (time, seq, event))
        pending = self._pending + 1
        self._pending = pending
        if pending > self._high_water:
            self._high_water = pending
        self._live += 1
        return event

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------
    def _note_cancelled(self, event: Event) -> None:
        """Called by :meth:`Event.cancel` while the entry is still queued."""
        self._events_cancelled += 1
        self._live -= 1
        slot = event.slot
        if slot is None:
            # In the active batch: the dispatch loop skips the flag.
            return
        event.slot = None
        event.engine = None
        if slot is _OVERFLOW:
            self._overflow_dead += 1
            overflow = self._overflow
            if (len(overflow) >= COMPACT_MIN_HEAP
                    and self._overflow_dead * 2 > len(overflow)):
                self._compact()
        else:
            # True O(1) removal from the wheel bucket.
            del slot[event.seq]
            self._wheel_count -= 1
            self._pending -= 1

    def _compact(self) -> None:
        """Rebuild the overflow heap without cancelled entries."""
        overflow = self._overflow
        live = [entry for entry in overflow if not entry[2].cancelled]
        heapify(live)
        self._pending -= len(overflow) - len(live)
        overflow[:] = live
        self._overflow_dead = 0
        self._compactions += 1

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _refill(self, until_tick: int) -> bool:
        """Advance to the next non-empty tick and load it as the batch.

        Returns False when no event at tick <= *until_tick* exists. The
        cursor advance persists across calls, so repeated short `run`
        windows never rescan the same empty buckets.
        """
        wheel = self._wheel
        overflow = self._overflow
        inv_gran = self._inv_gran
        while True:
            # First live overflow entry (purging dead heads as we go).
            htick = None
            while overflow:
                head = overflow[0]
                if head[2].cancelled:
                    heappop(overflow)
                    self._overflow_dead -= 1
                    self._pending -= 1
                    continue
                htick = int(head[0] * inv_gran)
                break
            cursor = self._cursor
            horizon = cursor + WHEEL_SLOTS
            # Migrate overflow entries that now fit the wheel window.
            while htick is not None and htick < horizon:
                head = heappop(overflow)
                if htick < cursor:
                    htick = cursor
                bucket = wheel[htick & _WHEEL_MASK]
                bucket[head[1]] = head
                head[2].slot = bucket
                self._wheel_count += 1
                htick = None
                while overflow:
                    head = overflow[0]
                    if head[2].cancelled:
                        heappop(overflow)
                        self._overflow_dead -= 1
                        self._pending -= 1
                        continue
                    htick = int(head[0] * inv_gran)
                    break
            if self._wheel_count:
                # Scan for the next non-empty bucket. Stop at the until
                # bound (nothing due) or at the overflow head's tick
                # (must migrate before stepping past it).
                limit = until_tick
                if htick is not None and htick < limit:
                    limit = htick
                bucket = wheel[cursor & _WHEEL_MASK]
                while not bucket and cursor < limit:
                    cursor += 1
                    bucket = wheel[cursor & _WHEEL_MASK]
                self._cursor = cursor
                if bucket:
                    # Found the due tick: sort once, dispatch from the end.
                    batch = self._batch
                    batch[:] = bucket.values()
                    batch.sort(reverse=True)
                    bucket.clear()
                    self._wheel_count -= len(batch)
                    for entry in batch:
                        entry[2].slot = None
                    return True
                if cursor >= until_tick:
                    return False
                # The scan hit the overflow head's tick: fall through and
                # migrate it at the advanced horizon.
                continue
            if htick is None or htick > until_tick:
                return False
            self._cursor = htick
            # Loop: migrate at the new horizon.

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run events in time order.

        Stops when the queues drain, when the next event is later than
        *until*, when *max_events* callbacks have run, or when
        :meth:`stop` is called from inside a callback. The clock is left at
        *until* (if given) even when the queues drain early, so that
        measurements covering the whole window see a consistent end time.
        """
        if self._running:
            raise SimulationError("engine is already running (reentrant run)")
        self._running = True
        self._stopped = False
        processed_this_run = 0
        event_limit = _MAX_TICK if max_events is None else max_events
        profiler = self._profiler
        run_started = perf_counter()
        if until is None:
            until_tick = _MAX_TICK
        else:
            scaled = until * self._inv_gran
            until_tick = int(scaled) if scaled < _MAX_TICK else _MAX_TICK
        # Local aliases: the loop body is the hottest code in the package.
        # The batch list is only ever mutated in place, so `batch` stays
        # valid across refills, drains, and re-entrant scheduling.
        batch = self._batch
        # Hold the cyclic GC for the dispatch loop: generational scans are
        # pure overhead at flood rates. The hold is safe because dead
        # simulation state is freed by refcounting alone: a fired or
        # cancelled event drops its callback and args (so an owner's
        # timer handle never keeps the owner alive), and a connection
        # drops its application hooks at end of life. Restored in the
        # `finally`; left alone if the caller already disabled it.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while not self._stopped:
                if not batch:
                    if not self._refill(until_tick):
                        break
                    self._active_tick = self._cursor
                # Entries at the until tick itself may still be past the
                # (inclusive) bound; earlier ticks never are.
                boundary = self._cursor >= until_tick
                halt = False
                if profiler is None:
                    while batch:
                        entry = batch[-1]
                        if boundary and entry[0] > until:
                            halt = True
                            break
                        del batch[-1]
                        self._pending -= 1
                        event = entry[2]
                        if event.cancelled:
                            continue
                        event.engine = None
                        self._now = entry[0]
                        callback = event.callback
                        args = event.args
                        event.callback = event.args = None
                        callback(*args)
                        self._events_processed += 1
                        self._live -= 1
                        processed_this_run += 1
                        if processed_this_run >= event_limit or self._stopped:
                            halt = True
                            break
                else:
                    while batch:
                        entry = batch[-1]
                        if boundary and entry[0] > until:
                            halt = True
                            break
                        del batch[-1]
                        self._pending -= 1
                        event = entry[2]
                        if event.cancelled:
                            continue
                        event.engine = None
                        self._now = entry[0]
                        callback = event.callback
                        args = event.args
                        event.callback = event.args = None
                        started = perf_counter()
                        callback(*args)
                        profiler.record(callback, perf_counter() - started)
                        self._events_processed += 1
                        self._live -= 1
                        processed_this_run += 1
                        if processed_this_run >= event_limit or self._stopped:
                            halt = True
                            break
                if halt:
                    break
                # Tick fully dispatched: advance past it.
                self._active_tick = -1
                self._cursor += 1
        finally:
            self._running = False
            if gc_was_enabled:
                gc.enable()
            self._wall_seconds += perf_counter() - run_started
        if until is not None and not self._stopped and self._now < until:
            self._now = until
        if not self._pending:
            # Idle fast-forward: with nothing queued, snap the cursor to
            # the clock so the next schedule lands the wheel window on
            # the present instead of overflowing from a stale origin.
            scaled = self._now * self._inv_gran
            tick = int(scaled) if scaled < _MAX_TICK else _MAX_TICK
            if tick > self._cursor:
                self._cursor = tick
                self._active_tick = -1

    def stop(self) -> None:
        """Stop the current :meth:`run` after the in-flight callback."""
        self._stopped = True

    def drain(self) -> int:
        """Discard all pending events; returns how many were discarded.

        Useful at the end of an experiment to release timer references.
        """
        count = 0
        for bucket in self._wheel:
            if bucket:
                for entry in bucket.values():
                    event = entry[2]
                    event.engine = None
                    event.slot = None
                count += len(bucket)  # wheel residents are always live
                bucket.clear()
        for entry in self._overflow:
            event = entry[2]
            event.engine = None
            event.slot = None
            if not event.cancelled:
                count += 1
        del self._overflow[:]
        batch = self._batch
        for entry in batch:
            event = entry[2]
            event.engine = None
            if not event.cancelled:
                count += 1
        del batch[:]
        self._wheel_count = 0
        self._overflow_dead = 0
        self._pending = 0
        self._live = 0
        return count

    def stats(self) -> Dict[str, float]:
        """Engine-level observability snapshot (all JSON-friendly).

        ``sim_wall_ratio`` is simulated seconds per wall second spent in
        :meth:`run` — the "how much faster than real time" figure.
        ``pending`` counts raw entries (the overflow tier and active
        batch keep lazily-deleted ones until touched); ``pending_live``
        counts the events that will actually fire.
        """
        wall = self._wall_seconds
        return {
            "events_scheduled": self._seq,
            "events_processed": self._events_processed,
            "events_cancelled": self._events_cancelled,
            "cancelled_pending": self._pending - self._live,
            "compactions": self._compactions,
            "heap_high_water": self._high_water,
            "pending": self._pending,
            "pending_live": self._live,
            "overflow_pending": len(self._overflow),
            "sim_seconds": self._now,
            "wall_seconds": wall,
            "sim_wall_ratio": (self._now / wall) if wall > 0 else 0.0,
        }


#: The pure-Python reference implementations, always importable under
#: these names regardless of which core `Engine` resolves to.
PyEngine = Engine
PyEvent = Event


def _differential_gate(cengine_cls) -> bool:
    """Adoption gate for a compiled core: a deterministic mixed workload
    (schedule / cancel / windowed runs / overflow-depth timers) must
    produce the identical fire order and bookkeeping as the Python
    reference, and release every fired or cancelled event's callback and
    args the same way, before the compiled class is allowed to replace
    it."""
    import random as _random

    def drive(engine_cls):
        rng = _random.Random(20260808)
        engine = engine_cls()
        order: List[tuple] = []
        handles: List = []
        scheduled: List = []
        for step in range(120):
            for _ in range(8):
                delay = rng.choice((0.0, 1e-4, 3e-3, 0.05, 0.3, 7.0))
                event = engine.schedule(
                    delay, lambda s=step: order.append(("f", s, engine.now)))
                handles.append(event)
                scheduled.append(event)
            rng.shuffle(handles)
            while len(handles) > 20:
                handles.pop().cancel()
            engine.run(until=engine.now + rng.choice((1e-3, 0.02, 0.5)),
                       max_events=rng.randint(1, 50))
        engine.run()
        stats = engine.stats()
        keys = ("events_scheduled", "events_processed", "events_cancelled",
                "pending_live", "sim_seconds")
        # Every event has now fired or been cancelled.
        released = all(event.callback is None and event.args is None
                       for event in scheduled)
        return order, [stats[k] for k in keys], released

    try:
        return drive(cengine_cls) == drive(PyEngine)
    except Exception:
        return False


CEngine = None
_ENGINE_MODE = os.environ.get("REPRO_ENGINE", "auto").strip().lower()
if _ENGINE_MODE not in ("py", "python"):
    try:
        from repro.sim.accel import load_cengine as _load_cengine

        _cmod = _load_cengine()
    except Exception:
        if _ENGINE_MODE == "c":
            raise
        _cmod = None
    if _cmod is not None:
        if _differential_gate(_cmod.Engine):
            CEngine = _cmod.Engine
            Engine = _cmod.Engine  # type: ignore[misc]
        elif _ENGINE_MODE == "c":
            raise SimulationError(
                "REPRO_ENGINE=c but the compiled engine failed the "
                "differential self-test against the Python reference")
