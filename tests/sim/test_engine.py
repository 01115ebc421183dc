"""Unit tests for the discrete-event engine."""

import gc
import weakref

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim.engine import (COMPACT_MIN_HEAP, CEngine, Engine, PyEngine,
                              _differential_gate)
from repro.sim.reference import ReferenceHeapEngine

#: Every engine the release rule binds: the compiled core, the Python
#: wheel and the reference heap.
ALL_ENGINES = [
    pytest.param(CEngine, id="c", marks=pytest.mark.skipif(
        CEngine is None, reason="compiled core unavailable")),
    pytest.param(PyEngine, id="py"),
    pytest.param(ReferenceHeapEngine, id="reference"),
]


class TestScheduling:
    def test_clock_starts_at_zero(self, engine):
        assert engine.now == 0.0

    def test_callback_runs_at_scheduled_time(self, engine):
        seen = []
        engine.schedule(1.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [1.5]

    def test_args_are_passed(self, engine):
        seen = []
        engine.schedule(0.1, seen.append, 42)
        engine.run()
        assert seen == [42]

    def test_negative_delay_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.schedule(-0.01, lambda: None)

    def test_schedule_in_past_rejected(self, engine):
        engine.schedule(5.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(1.0, lambda: None)

    def test_zero_delay_runs_after_already_scheduled_same_instant(
            self, engine):
        order = []
        engine.schedule(0.0, lambda: order.append("first"))
        engine.schedule(0.0, lambda: order.append("second"))
        engine.run()
        assert order == ["first", "second"]

    def test_events_run_in_time_order(self, engine):
        order = []
        engine.schedule(3.0, lambda: order.append(3))
        engine.schedule(1.0, lambda: order.append(1))
        engine.schedule(2.0, lambda: order.append(2))
        engine.run()
        assert order == [1, 2, 3]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, engine):
        seen = []
        handle = engine.schedule(1.0, lambda: seen.append(1))
        handle.cancel()
        engine.run()
        assert seen == []
        assert engine.events_processed == 0

    def test_cancel_is_idempotent(self, engine):
        handle = engine.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        engine.run()

    def test_cancel_from_inside_callback(self, engine):
        seen = []
        later = engine.schedule(2.0, lambda: seen.append("later"))
        engine.schedule(1.0, later.cancel)
        engine.run()
        assert seen == []


class TestRunControl:
    def test_until_is_inclusive(self, engine):
        seen = []
        engine.schedule(5.0, lambda: seen.append(1))
        engine.run(until=5.0)
        assert seen == [1]

    def test_until_leaves_later_events_pending(self, engine):
        seen = []
        engine.schedule(5.0, lambda: seen.append(1))
        engine.schedule(6.0, lambda: seen.append(2))
        engine.run(until=5.5)
        assert seen == [1]
        assert engine.pending == 1

    def test_clock_advances_to_until_when_heap_drains(self, engine):
        engine.schedule(1.0, lambda: None)
        engine.run(until=10.0)
        assert engine.now == 10.0

    def test_stop_halts_run(self, engine):
        seen = []
        engine.schedule(1.0, lambda: (seen.append(1), engine.stop()))
        engine.schedule(2.0, lambda: seen.append(2))
        engine.run()
        assert seen == [1]
        assert engine.pending == 1

    def test_max_events_limit(self, engine):
        seen = []
        for i in range(10):
            engine.schedule(float(i + 1), seen.append, i)
        engine.run(max_events=3)
        assert seen == [0, 1, 2]

    def test_reentrant_run_rejected(self, engine):
        def inner():
            with pytest.raises(SimulationError):
                engine.run()

        engine.schedule(1.0, inner)
        engine.run()

    def test_drain_discards_and_counts(self, engine):
        a = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        a.cancel()
        assert engine.drain() == 1
        assert engine.pending == 0

    def test_events_scheduled_during_run_execute(self, engine):
        seen = []
        engine.schedule(
            1.0, lambda: engine.schedule(1.0, lambda: seen.append(2)))
        engine.run()
        assert seen == [2]
        assert engine.now == 2.0


class TestCompaction:
    def test_mass_cancellation_compacts_heap(self, engine):
        handles = [engine.schedule(float(i + 1), lambda: None)
                   for i in range(4 * COMPACT_MIN_HEAP)]
        for handle in handles[:-1]:
            handle.cancel()
        # More than half the heap was dead at some point: it was rebuilt.
        assert engine.compactions >= 1
        assert engine.pending < len(handles)
        engine.run()
        assert engine.events_processed == 1

    def test_small_heaps_never_compact(self, engine):
        handles = [engine.schedule(float(i + 1), lambda: None)
                   for i in range(COMPACT_MIN_HEAP // 2)]
        for handle in handles:
            handle.cancel()
        assert engine.compactions == 0

    def test_cancel_after_fire_is_not_counted(self, engine):
        handle = engine.schedule(1.0, lambda: None)
        engine.run()
        handle.cancel()  # already popped: must not corrupt the books
        assert engine.events_cancelled == 0
        assert engine.stats()["cancelled_pending"] == 0

    def test_compaction_preserves_order(self, engine):
        n = 4 * COMPACT_MIN_HEAP
        order = []
        handles = []
        for i in range(n):
            handles.append(engine.schedule(float(i + 1), order.append, i))
        cutoff = 2 * n // 3
        for handle in handles[:cutoff]:
            handle.cancel()
        assert engine.compactions >= 1
        engine.run()
        assert order == list(range(cutoff, n))


class TestStats:
    def test_stats_counts_and_ratio(self, engine):
        cancelled = engine.schedule(0.5, lambda: None)
        engine.schedule(1.0, lambda: None)
        cancelled.cancel()
        engine.run()
        stats = engine.stats()
        assert stats["events_processed"] == 1
        assert stats["events_cancelled"] == 1
        assert stats["sim_seconds"] == 1.0
        assert stats["heap_high_water"] == 2
        assert stats["pending"] == 0
        assert stats["wall_seconds"] > 0.0
        assert stats["sim_wall_ratio"] == pytest.approx(
            1.0 / stats["wall_seconds"])

    def test_fresh_engine_ratio_is_zero(self):
        assert Engine().stats()["sim_wall_ratio"] == 0.0

    def test_profiler_buckets_by_callback_kind(self, engine):
        from repro.obs import EngineProfiler

        profiler = EngineProfiler()
        engine.attach_profiler(profiler)
        seen = []
        for i in range(3):
            engine.schedule(float(i + 1), seen.append, i)
        engine.run()
        assert profiler.events == 3
        snapshot = profiler.snapshot()
        assert list(snapshot) == ["list.append"]
        assert snapshot["list.append"]["count"] == 3
        assert profiler.wall_seconds >= 0.0

    def test_detached_profiler_sees_nothing(self, engine):
        from repro.obs import EngineProfiler

        profiler = EngineProfiler()
        engine.attach_profiler(profiler)
        engine.attach_profiler(None)
        engine.schedule(1.0, lambda: None)
        engine.run()
        assert profiler.events == 0


class TestDeterminism:
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                              allow_nan=False), min_size=1, max_size=50))
    def test_processing_order_is_nondecreasing_time(self, delays):
        engine = Engine()
        observed = []
        for delay in delays:
            engine.schedule(delay, lambda: observed.append(engine.now))
        engine.run()
        assert observed == sorted(observed)
        assert len(observed) == len(delays)

    @given(st.lists(st.floats(min_value=0.0, max_value=10.0,
                              allow_nan=False), min_size=2, max_size=20))
    def test_ties_break_by_insertion_order(self, delays):
        engine = Engine()
        order = []
        for i, delay in enumerate(delays):
            engine.schedule(0.5, order.append, i)
        engine.run()
        assert order == list(range(len(delays)))


class _Owner:
    """Holds its own timer handles, like a connection or a request does:
    owner -> event -> bound method -> owner is a reference cycle until
    the event releases its callback."""

    timer = None

    def tick(self, *args):
        pass

    def cancel_timer(self):
        self.timer.cancel()


@pytest.fixture
def gc_held():
    """Keep the cyclic GC off for the test body so only refcounting
    can free anything."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("engine_cls", ALL_ENGINES)
class TestReleaseRule:
    """A fired or cancelled event drops its callback and args."""

    def test_fired_event_releases_callback_and_args(self, engine_cls):
        engine = engine_cls()
        seen = []
        handle = engine.schedule(1.0, seen.append, "payload")
        assert handle.callback is not None
        engine.run()
        assert seen == ["payload"]
        assert handle.callback is None
        assert handle.args is None

    @pytest.mark.parametrize("delay", [1e-4, 1.0, 1000.0],
                             ids=["batch", "wheel", "overflow"])
    def test_cancelled_event_releases_callback_and_args(self, engine_cls,
                                                        delay):
        engine = engine_cls()
        engine.schedule(1e-4, lambda: None)
        handle = engine.schedule(delay, lambda x: None, 1)
        if delay == 1e-4:
            # Cancel while the handle sits in the batch being dispatched.
            engine.run(max_events=1)
        handle.cancel()
        assert handle.callback is None
        assert handle.args is None
        engine.run()
        assert engine.events_processed == 1

    def test_callback_cancelling_its_own_event(self, engine_cls):
        from repro.obs import EngineProfiler

        engine = engine_cls()
        profiler = EngineProfiler()
        engine.attach_profiler(profiler)
        owner = _Owner()
        owner.timer = engine.schedule(1.0, owner.cancel_timer)
        engine.run()
        assert owner.timer.callback is None
        # The profiler is handed the callback that ran, not the cleared
        # slot.
        assert list(profiler.snapshot()) == ["_Owner.cancel_timer"]

    def test_fired_owner_freed_by_refcount(self, engine_cls, gc_held):
        engine = engine_cls()
        owner = _Owner()
        owner.timer = engine.schedule(1.0, owner.tick, "x")
        ref = weakref.ref(owner)
        del owner
        assert ref() is not None
        engine.run()
        assert ref() is None

    def test_cancelled_owner_freed_by_refcount(self, engine_cls, gc_held):
        engine = engine_cls()
        owner = _Owner()
        owner.timer = engine.schedule(5.0, owner.tick)
        # The owner's other timer cancels the first one mid-run.
        owner.other = engine.schedule(1.0, owner.cancel_timer)
        ref = weakref.ref(owner)
        del owner
        engine.run()
        assert ref() is None


class _RetainedHandle:
    """An event handle that keeps its callback after end of life."""

    def __init__(self, event, callback, args):
        self._event = event
        self.callback = callback
        self.args = args

    def cancel(self):
        self._event.cancel()


class _RetainingEngine(ReferenceHeapEngine):
    """Same event order as the reference, but without the release rule."""

    def schedule(self, delay, callback, *args):
        event = super().schedule(delay, callback, *args)
        return _RetainedHandle(event, callback, args)


def test_adoption_gate_requires_release_rule():
    assert _differential_gate(ReferenceHeapEngine)
    assert not _differential_gate(_RetainingEngine)
