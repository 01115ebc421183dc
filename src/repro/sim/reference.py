"""Reference binary-heap scheduler, kept for differential testing.

This module preserves the original heap-for-everything `Engine` (lazy
deletion + periodic compaction) that shipped before the timer-wheel
rewrite in :mod:`repro.sim.engine`. It is **not** used by the simulator;
the property/differential suite in ``tests/sim/`` runs randomized
schedule/cancel/run workloads through both implementations and asserts
identical event order, so any behavioural drift in the wheel shows up as
a diff against this one.

The implementation is intentionally a verbatim copy of the pre-wheel
engine (same tie-breaking, same clock-jump semantics, same stop/drain
behaviour) rather than a simplified model: the differential tests are
only as strong as the fidelity of the oracle. The one addition is the
release rule every engine shares: a fired or cancelled event drops its
callback and args, which changes no event order.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

from repro.errors import SimulationError

#: Never compact a heap smaller than this (mirrors the engine's overflow
#: tier constant).
COMPACT_MIN_HEAP = 64


class ReferenceEvent:
    """Handle for a scheduled callback (lazy-deletion flavour).

    Like the wheel engine's events, a fired or cancelled event drops its
    ``callback`` and ``args`` (both read ``None`` afterwards).
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "engine")

    def __init__(self, time: float, seq: int,
                 callback: Callable[..., None], args: tuple):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.engine: Optional["ReferenceHeapEngine"] = None

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        self.callback = self.args = None
        engine = self.engine
        if engine is not None:
            engine._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<ReferenceEvent t={self.time:.6f} seq={self.seq} {state}>"


class ReferenceHeapEngine:
    """The pre-wheel discrete-event engine: one binary heap for everything.

    Events are ``(time, seq, event)`` tuples on a heap; cancellation is a
    flag (lazy deletion) and the heap is compacted — rebuilt without dead
    entries — whenever cancelled entries exceed half of it.
    """

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        self._now = 0.0
        self._seq = 0
        self._running = False
        self._stopped = False
        self._events_processed = 0
        self._events_cancelled = 0
        self._cancelled_pending = 0
        self._compactions = 0
        self._heap_high_water = 0
        self._wall_seconds = 0.0
        self._profiler = None
        self._clock_offsets: Dict[str, float] = {}

    @property
    def now(self) -> float:
        return self._now

    def set_clock_offset(self, key: str, offset: float) -> None:
        if offset:
            self._clock_offsets[key] = offset
        else:
            self._clock_offsets.pop(key, None)

    def clock_offset(self, key: str) -> float:
        return self._clock_offsets.get(key, 0.0)

    def now_for(self, key: str) -> float:
        offsets = self._clock_offsets
        if not offsets:
            return self._now
        return self._now + offsets.get(key, 0.0)

    @property
    def events_scheduled(self) -> int:
        return self._seq

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def events_cancelled(self) -> int:
        return self._events_cancelled

    @property
    def compactions(self) -> int:
        return self._compactions

    @property
    def pending(self) -> int:
        """Number of heap entries, including lazily-deleted ones."""
        return len(self._heap)

    @property
    def pending_live(self) -> int:
        """Heap entries that will actually fire."""
        return len(self._heap) - self._cancelled_pending

    @property
    def profiler(self):
        return self._profiler

    def attach_profiler(self, profiler) -> None:
        self._profiler = profiler

    def schedule(self, delay: float, callback: Callable[..., None],
                 *args: Any) -> ReferenceEvent:
        if delay < 0:
            raise SimulationError(
                f"cannot schedule an event {delay!r}s in the past")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., None],
                    *args: Any) -> ReferenceEvent:
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time!r} before now={self._now!r}")
        self._seq += 1
        event = ReferenceEvent(time, self._seq, callback, args)
        event.engine = self
        heapq.heappush(self._heap, (time, self._seq, event))
        if len(self._heap) > self._heap_high_water:
            self._heap_high_water = len(self._heap)
        return event

    def _note_cancelled(self) -> None:
        self._events_cancelled += 1
        self._cancelled_pending += 1
        heap = self._heap
        if (len(heap) >= COMPACT_MIN_HEAP
                and self._cancelled_pending * 2 > len(heap)):
            self._compact()

    def _compact(self) -> None:
        live = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(live)
        self._heap[:] = live
        self._cancelled_pending = 0
        self._compactions += 1

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        if self._running:
            raise SimulationError("engine is already running (reentrant run)")
        self._running = True
        self._stopped = False
        processed_this_run = 0
        profiler = self._profiler
        run_started = perf_counter()
        heap = self._heap
        heappop, heappush = heapq.heappop, heapq.heappush
        try:
            while heap:
                if self._stopped:
                    break
                entry = heappop(heap)
                if until is not None and entry[0] > until:
                    heappush(heap, entry)
                    break
                event = entry[2]
                event.engine = None
                if event.cancelled:
                    self._cancelled_pending -= 1
                    continue
                self._now = event.time
                # A fired event releases its callback and args, like the
                # wheel engine's (see `ReferenceEvent`).
                callback = event.callback
                args = event.args
                event.callback = event.args = None
                if profiler is None:
                    callback(*args)
                else:
                    started = perf_counter()
                    callback(*args)
                    profiler.record(callback, perf_counter() - started)
                self._events_processed += 1
                processed_this_run += 1
                if max_events is not None and processed_this_run >= max_events:
                    break
        finally:
            self._running = False
            self._wall_seconds += perf_counter() - run_started
        if until is not None and not self._stopped and self._now < until:
            self._now = until

    def stop(self) -> None:
        self._stopped = True

    def drain(self) -> int:
        count = 0
        for entry in self._heap:
            event = entry[2]
            event.engine = None
            if not event.cancelled:
                count += 1
        self._heap.clear()
        self._cancelled_pending = 0
        return count

    def stats(self) -> Dict[str, float]:
        wall = self._wall_seconds
        return {
            "events_scheduled": self._seq,
            "events_processed": self._events_processed,
            "events_cancelled": self._events_cancelled,
            "cancelled_pending": self._cancelled_pending,
            "compactions": self._compactions,
            "heap_high_water": self._heap_high_water,
            "pending": len(self._heap),
            "pending_live": len(self._heap) - self._cancelled_pending,
            "sim_seconds": self._now,
            "wall_seconds": wall,
            "sim_wall_ratio": (self._now / wall) if wall > 0 else 0.0,
        }
