"""Queue conformance: the engine and the heap oracle, one contract.

The simulator drives its event queue through a narrow interface (see
:class:`~repro.kernel.simulator.Simulator`).  This suite runs the same
operation sequences against the :class:`CalendarQueue` engine and the
:class:`EventQueue` oracle and asserts identical observable behaviour —
firing order, peek/len semantics, counter meanings, and the
``pending_entries`` snapshot hook (kind classification and global firing
order), so the engine cannot silently diverge from the contract
checkpointing depends on.  The parameter ids are the names the two had
when the engine was selectable.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.kernel import CalendarQueue, LivelockError, Simulator
from repro.kernel.event import EventQueue, PendingEntry
from repro.kernel.simulator import timeout


pytestmark = pytest.mark.parametrize("make_queue",
                                     [EventQueue, CalendarQueue],
                                     ids=["classic", "fast"])


class TestQueuePrimitives:

    def test_simulator_drives_the_given_queue(self, make_queue):
        queue = make_queue()
        assert Simulator(queue=queue)._queue is queue
        assert isinstance(Simulator()._queue, CalendarQueue)

    def test_push_fires_in_time_priority_seq_order(self, make_queue):
        """Events fire in ``(time, seq)`` order (the total order was
        ``(time, priority, seq)`` until event priorities were removed)."""
        sim = Simulator(queue=make_queue())
        fired = []
        sim.schedule_at(5, lambda: fired.append("t5a"))
        sim.schedule_at(3, lambda: fired.append("t3"))
        sim.schedule_at(5, lambda: fired.append("t5b"))
        sim.run()
        assert fired == ["t3", "t5a", "t5b"]

    def test_push_fn_and_push_resume_interleave_with_push(self, make_queue):
        sim = Simulator(queue=make_queue())
        queue = sim._queue
        fired = []
        queue.push(4, lambda: fired.append("push"))
        queue.push_fn(4, lambda: fired.append("push_fn"))

        def proc():
            fired.append("resume")
            yield 0

        process = sim.spawn(proc(), name="p", delay=4)
        assert process is not None
        sim.run()
        # same cycle: seq (insertion) order decides
        assert fired == ["push", "push_fn", "resume"]

    def test_len_counts_live_entries_only(self, make_queue):
        queue = make_queue()
        events = [queue.push(time, lambda: None)
                  for time in (1, 2, 3)]
        assert len(queue) == 3
        events[1].cancel()
        assert len(queue) == 2
        assert queue.events_cancelled == 1

    def test_peek_time_skips_cancelled(self, make_queue):
        queue = make_queue()
        first = queue.push(1, lambda: None)
        queue.push(7, lambda: None)
        assert queue.peek_time() == 1
        first.cancel()
        assert queue.peek_time() == 7

    def test_peek_time_empty_is_none(self, make_queue):
        assert make_queue().peek_time() is None

    def test_drain_dispatches_everything(self, make_queue):
        sim = Simulator(queue=make_queue())
        fired = []
        for time in (6, 1, 3):
            sim.schedule_at(time, lambda t=time: fired.append(t))
        sim._queue.drain(sim)
        assert fired == [1, 3, 6]
        assert len(sim._queue) == 0

    def test_events_fired_counts_a_raising_event(self, make_queue):
        sim = Simulator(queue=make_queue())

        def boom():
            raise RuntimeError("boom")

        sim.schedule_at(3, boom)
        sim.schedule_at(5, lambda: None)
        with pytest.raises(RuntimeError):
            sim.run()
        assert (sim.events_fired, sim.now) == (1, 3)
        assert sim.run() == 5
        assert sim.events_fired == 2

    def test_counter_surface(self, make_queue):
        queue = make_queue()
        for name in ("tombstones", "events_cancelled", "compactions",
                     "peak_size"):
            assert isinstance(getattr(queue, name), int), name


class TestPendingEntries:
    """The snapshot hook: classification and firing order."""

    def test_firing_order_and_times(self, make_queue):
        sim = Simulator(queue=make_queue())
        queue = sim._queue
        queue.push(8, lambda: None)
        queue.push(2, lambda: None)
        queue.push(5, lambda: None)
        assert [entry.time for entry in queue.pending_entries()] \
            == [2, 5, 8]

    def test_process_resume_is_claimable(self, make_queue):
        sim = Simulator(queue=make_queue())

        def proc():
            yield 10

        process = sim.spawn(proc(), name="sleeper")
        sim.run(until=0)
        entries = sim._queue.pending_entries()
        assert len(entries) == 1
        entry = entries[0]
        assert isinstance(entry, PendingEntry)
        assert entry.time == 10
        assert entry.process is process
        assert entry.fn is None

    def test_payload_resume_is_opaque(self, make_queue):
        sim = Simulator(queue=make_queue())

        def proc():
            yield 1

        process = sim.spawn(proc(), name="p")
        sim._queue.pending_entries()        # spawn resume is claimable
        sim.run(until=0)
        sim._queue.push_resume(5, process, "payload")
        entries = [e for e in sim._queue.pending_entries()
                   if e.time == 5]
        assert len(entries) == 1
        assert entries[0].process is None
        assert entries[0].fn is None

    def test_bare_callback_exposes_fn_identity(self, make_queue):
        queue = make_queue()

        def callback():
            pass

        queue.push_fn(3, callback)
        entries = queue.pending_entries()
        assert len(entries) == 1
        assert entries[0].process is None
        assert entries[0].fn is callback

    def test_event_callback_exposes_fn_identity(self, make_queue):
        sim = Simulator(queue=make_queue())

        def callback():
            pass

        sim.schedule_after(4, callback)
        entries = sim._queue.pending_entries()
        assert len(entries) == 1
        assert entries[0].fn is callback

    def test_cancelled_events_not_listed(self, make_queue):
        queue = make_queue()
        keep = queue.push(1, lambda: None)
        drop = queue.push(2, lambda: None)
        drop.cancel()
        assert [e.time for e in queue.pending_entries()] == [1]
        assert keep is not None

    def test_read_only(self, make_queue):
        sim = Simulator(queue=make_queue())
        fired = []
        sim.schedule_at(1, lambda: fired.append(1))
        sim.schedule_at(2, lambda: fired.append(2))
        before = [e.time for e in sim._queue.pending_entries()]
        after = [e.time for e in sim._queue.pending_entries()]
        assert before == after == [1, 2]
        sim.run()
        assert fired == [1, 2]


class TestCrossBackendParity:
    """The same schedule produces the same pending view on either queue."""

    def test_pending_parity_after_identical_schedule(self, make_queue):
        def build(make):
            sim = Simulator(queue=make())

            def proc():
                yield 10
                yield 20

            sim.spawn(proc(), name="tg")
            sim.schedule_after(7, _marker)
            sim.run(until=0)
            return sim

        reference = build(EventQueue)
        candidate = build(make_queue)
        ref_view = [(e.time, e.process is not None,
                     e.fn is not None)
                    for e in reference._queue.pending_entries()]
        cand_view = [(e.time, e.process is not None,
                      e.fn is not None)
                     for e in candidate._queue.pending_entries()]
        assert cand_view == ref_view

    def test_event_counters_after_identical_run(self, make_queue):
        def run(make):
            sim = Simulator(queue=make())
            fired = []

            def proc():
                for _ in range(5):
                    yield 3
                fired.append(sim.now)

            sim.spawn(proc(), name="p")
            handle = sim.schedule_at(100, lambda: fired.append(-1))
            handle.cancel()
            sim.run()
            return sim.events_fired, sim.now, fired

        assert run(make_queue) == run(EventQueue)

    def test_signal_waits_park_identically(self, make_queue):
        """A process that yields a Signal is parked on it (``waiting_on``
        set, counted, removable by kill) and woken in wait order whichever
        path resumed it: a lone wake-up, one of several in a cycle, or
        one of several payload-carrying wake-ups."""
        sim = Simulator(queue=make_queue())
        gate = sim.signal("gate")
        park = sim.signal("park")
        woke = []

        def sleeper(tag, delay):
            yield delay
            got = yield park
            woke.append((tag, sim.now, got))

        def relay(tag):
            got = yield gate
            woke.append((tag, sim.now, got))
            got = yield park
            woke.append((tag, sim.now, got))

        parked = [sim.spawn(sleeper("lone", 3)),
                  sim.spawn(sleeper("pair0", 5)),
                  sim.spawn(sleeper("pair1", 5)),
                  sim.spawn(relay("relay0")),
                  sim.spawn(relay("relay1"))]
        sim.schedule_after(7, lambda: gate.notify("go"))
        sim.run()
        assert [p.waiting_on for p in parked] == [park] * 5
        assert park.waiter_count == 5
        parked[0].kill()
        assert park.waiter_count == 4
        park.notify("done")
        sim.run()
        assert woke == [("relay0", 7, "go"), ("relay1", 7, "go"),
                        ("pair0", 7, "done"), ("pair1", 7, "done"),
                        ("relay0", 7, "done"), ("relay1", 7, "done")]
        assert [p.waiting_on for p in parked] == [None] * 5


def _marker():
    pass


# ------------------------------------------------------ one dispatch loop

#: one step of a random process program: a sleep (0 included), a wait on
#: a shared signal, a notify of one, or a ``timeout()`` wait whose owner
#: gives up after ``patience`` cycles, cancelling it when still pending
_STEP = st.one_of(
    st.tuples(st.just("sleep"), st.integers(0, 4)),
    st.tuples(st.just("wait"), st.integers(0, 1)),
    st.tuples(st.just("notify"), st.integers(0, 1)),
    st.tuples(st.just("timeout"), st.integers(1, 6), st.integers(0, 8)),
)
_PROGRAMS = st.lists(st.lists(_STEP, max_size=10), min_size=1, max_size=4)


def _run_program(make_queue, programs, cuts=()):
    """Run ``programs`` to completion, first in ``run(until=cut)`` slices
    when ``cuts`` are given; returns what a run must not change."""
    sim = Simulator(queue=make_queue())
    signals = [sim.signal("s0"), sim.signal("s1")]
    log = []

    def timed_wait(pid, step, sig):
        yield sig
        log.append((pid, step, "timed out", sim.now))

    def body(pid, steps):
        for step, (kind, *args) in enumerate(steps):
            log.append((pid, step, kind, sim.now))
            if kind == "sleep":
                yield args[0]
            elif kind == "wait":
                log.append((pid, step, "woke", (yield signals[args[0]])))
            elif kind == "notify":
                log.append(signals[args[0]].notify((pid, step)))
            else:
                cycles, patience = args
                waiter = sim.spawn(
                    timed_wait(pid, step, timeout(sim, cycles)),
                    name=f"t{pid}.{step}")
                yield patience
                waiter.kill()

    for pid, steps in enumerate(programs):
        sim.spawn(body(pid, steps), name=f"p{pid}")
    for cut in cuts:
        sim.run(until=cut, progress_window=10 ** 6)
    sim.run()
    return log, sim.now, sim.events_fired, sim.events_cancelled


class TestOneDispatchLoop:
    """Every ``run()`` goes through the queue's ``drain``: cutting a run
    into ``run(until=...)`` slices changes nothing it computes."""

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(_PROGRAMS, st.lists(st.integers(0, 1000), max_size=6))
    def test_sliced_run_equals_one_run(self, make_queue, programs, cuts):
        whole = _run_program(make_queue, programs)
        end = whole[1]
        # cuts inside the run's span, so the final clock is comparable
        sliced = _run_program(make_queue, programs,
                              sorted(cut % (end + 1) for cut in cuts))
        assert sliced == whole

    def test_zero_delay_spinner_raises_livelock(self, make_queue):
        sim = Simulator(queue=make_queue())

        def spinner():
            while True:
                yield 0

        sim.spawn(spinner(), name="spinner")
        with pytest.raises(LivelockError, match="spinner"):
            sim.run(until=10, progress_window=32)
        # every resume is its own batch: the check fires at the boundary
        # after the window's 32nd stagnant event
        assert sim.events_fired == 32
        assert sim.now == 0

    def test_same_cycle_burst_raises_livelock(self, make_queue):
        """A burst longer than the window raises even when time moves on
        after it, at the first batch boundary past the window."""
        sim = Simulator(queue=make_queue())
        for _ in range(40):
            sim.schedule_at(5, lambda: None)
        sim.schedule_at(9, lambda: None)
        with pytest.raises(LivelockError):
            sim.run(progress_window=32)
        assert sim.now == 5
