"""Unit tests for the calendar queue, the simulator's event engine.

The queue's contract is *bit-identical simulation* with the binary-heap
EventQueue oracle: the same total order of firings for any mix of
pushes, cancels and bounded drains, the same counter semantics, the
same exception behaviour.  These tests exercise the queue both directly
(with a minimal stand-in sim for ``drain``) and through two full
Simulators running the same program, one on each queue.
"""

import pytest
from hypothesis import given, strategies as st

from repro.kernel import SimulationError, Simulator
from repro.kernel.calendar import CalendarQueue
from repro.kernel.event import EventQueue


class FakeSim:
    """The two attributes an unguarded ``drain`` touches on a Simulator."""

    def __init__(self):
        self._now = 0
        self._events_fired = 0


def record(order, label):
    return lambda: order.append(label)


class TestCalendarBasics:
    def test_empty_queue(self):
        queue = CalendarQueue()
        assert queue.peek_time() is None
        assert len(queue) == 0

    def test_len_tracks_pushes(self):
        queue = CalendarQueue()
        for i in range(5):
            queue.push(i, lambda: None)
        assert len(queue) == 5

    def test_drain_orders_by_time(self):
        queue, order = CalendarQueue(), []
        for time in (30, 10, 20):
            queue.push(time, record(order, time))
        queue.drain(FakeSim())
        assert order == [10, 20, 30]

    def test_same_time_is_fifo(self):
        queue, order = CalendarQueue(), []
        for i in range(10):
            queue.push(7, record(order, i))
        queue.drain(FakeSim())
        assert order == list(range(10))

    def test_drain_sets_clock_and_counts_events(self):
        queue, sim = CalendarQueue(), FakeSim()
        queue.push(4, lambda: None)
        queue.push(9, lambda: None)
        queue.drain(sim)
        assert sim._now == 9
        assert sim._events_fired == 2

    def test_cancelled_event_is_skipped(self):
        queue, order = CalendarQueue(), []
        victim = queue.push(1, record(order, "victim"))
        queue.push(2, record(order, "keeper"))
        victim.cancel()
        assert len(queue) == 1
        assert queue.tombstones == 1
        queue.drain(FakeSim())
        assert order == ["keeper"]
        assert queue.tombstones == 0

    def test_cancelled_singleton_does_not_advance_clock(self):
        """An all-tombstone bucket must leave ``now`` untouched, exactly
        like the oracle heap skipping a cancelled pop."""
        queue, sim = CalendarQueue(), FakeSim()
        queue.push(3, lambda: None).cancel()
        queue.push(100, lambda: None).cancel()
        queue.push(5, lambda: None)
        queue.drain(sim)
        assert sim._now == 5
        assert sim._events_fired == 1

    def test_double_cancel_counts_once(self):
        queue = CalendarQueue()
        victim = queue.push(10, lambda: None)
        victim.cancel()
        victim.cancel()
        assert len(queue) == 0
        assert queue.events_cancelled == 1

    def test_tombstone_sweep_counts_as_compaction(self):
        queue = CalendarQueue()
        for _ in range(3):
            queue.push(7, lambda: None).cancel()
        queue.push(7, lambda: None)
        queue.drain(FakeSim())
        assert queue.compactions == 1
        assert queue.tombstones == 0

    def test_peek_skips_cancelled_head(self):
        queue = CalendarQueue()
        queue.push(1, lambda: None).cancel()
        queue.push(2, lambda: None)
        assert queue.peek_time() == 2

    def test_peek_skips_all_tombstone_multi_bucket(self):
        queue = CalendarQueue()
        queue.push(1, lambda: None).cancel()
        queue.push(1, lambda: None).cancel()
        queue.push(4, lambda: None)
        assert queue.peek_time() == 4
        assert queue.tombstones == 0  # the peek swept them

    def test_process_negative_yield_raises(self):
        sim = Simulator()

        def bad():
            yield -1

        sim.spawn(bad())
        with pytest.raises(SimulationError):
            sim.run()


class TestPeakSize:
    @staticmethod
    def _sleepers(sim):
        def sleeper():
            for _ in range(50):
                yield 3

        for pid in range(8):
            sim.spawn(sleeper(), name=f"p{pid}")

    def test_drain_and_bounded_run_report_the_same_peak(self):
        """A bounded run goes through the same drain as an unbounded
        one, so it samples the high-water mark the same way."""
        drained = Simulator()
        self._sleepers(drained)
        drained.run()
        bounded = Simulator()
        self._sleepers(bounded)
        bounded.run(until=10 ** 9)
        assert bounded.events_fired == drained.events_fired == 408
        assert bounded.peak_heap_size == drained.peak_heap_size == 8


class TestExceptionSafety:
    def test_multi_bucket_raise_keeps_unfired_tail(self):
        queue, order = CalendarQueue(), []

        def boom():
            raise RuntimeError("boom")

        queue.push(5, record(order, "before"))
        queue.push(5, boom)
        queue.push(5, record(order, "after"))
        sim = FakeSim()
        with pytest.raises(RuntimeError):
            queue.drain(sim)
        assert order == ["before"]
        assert len(queue) == 1
        queue.drain(sim)  # a later run() resumes exactly where it stopped
        assert order == ["before", "after"]
        assert len(queue) == 0

    def test_singleton_raise_consumes_the_entry(self):
        queue = CalendarQueue()

        def boom():
            raise RuntimeError("boom")

        queue.push(5, boom)
        queue.push(9, lambda: None)
        sim = FakeSim()
        with pytest.raises(RuntimeError):
            queue.drain(sim)
        assert len(queue) == 1
        queue.drain(sim)
        assert len(queue) == 0
        assert sim._now == 9

    def test_events_fired_includes_the_raiser(self):
        queue = CalendarQueue()

        def boom():
            raise RuntimeError("boom")

        queue.push(5, boom)
        sim = FakeSim()
        with pytest.raises(RuntimeError):
            queue.drain(sim)
        assert sim._events_fired == 1


# ----------------------------------------------------- oracle equivalence

def _apply_ops(queue, ops):
    """Drive a queue through pushes/cancels, then drain; returns the
    firing order as (label) list."""
    order = []
    handles = []
    for op in ops:
        if op[0] == "push":
            label = len(handles)
            handles.append(queue.push(op[1], record(order, label)))
        else:  # cancel
            if handles:
                handles[op[1] % len(handles)].cancel()
    queue.drain(FakeSim())
    return order


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 40)),
        st.tuples(st.just("cancel"), st.integers(0, 10_000)),
    ),
    max_size=200,
)


class TestClassicEquivalence:
    """The engine against the heap oracle (once the "classic" engine)."""

    @given(_OPS)
    def test_same_firing_order_as_event_queue(self, ops):
        assert _apply_ops(CalendarQueue(), ops) \
            == _apply_ops(EventQueue(), ops)

    @given(st.lists(st.integers(0, 8), max_size=60))
    def test_same_simulation_as_classic_backend(self, delays):
        """Two full Simulators running the same generator program."""
        def run(queue):
            sim = Simulator(queue=queue)
            trace = []

            def proc(pid):
                for delay in delays:
                    trace.append((pid, sim.now))
                    yield delay + (pid % 2)

            for pid in range(3):
                sim.spawn(proc(pid), name=f"p{pid}")
            sim.run()
            return trace, sim.now, sim.events_fired

        assert run(EventQueue()) == run(CalendarQueue())

    def test_signal_wakeups_match_classic(self):
        def run(queue):
            sim = Simulator(queue=queue)
            sig = sim.signal("s")
            wakes = []

            def waiter(wid):
                for _ in range(4):
                    yield sig
                    wakes.append((wid, sim.now))

            def notifier():
                for _ in range(4):
                    yield 2
                    sig.notify()

            for wid in range(3):
                sim.spawn(waiter(wid), name=f"w{wid}")
            sim.spawn(notifier(), name="n")
            sim.run()
            return wakes, sim.now, sim.events_fired

        assert run(EventQueue()) == run(CalendarQueue())

    def test_run_until_and_step_match_classic(self):
        """Bounded runs, including a one-cycle step, stop at the same
        place on both queues."""
        def run(queue):
            sim = Simulator(queue=queue)

            def ticker():
                while True:
                    yield 3

            sim.spawn(ticker(), name="t")
            checkpoints = [sim.run(until=7)]
            checkpoints.append(sim.run(until=sim.now + 1))
            checkpoints.append(sim.run(until=20))
            return checkpoints, sim.events_fired

        assert run(EventQueue()) == run(CalendarQueue())
