"""Run-loop guard rails: deadlock gating, blocked-on reporting, and the
cancellable timeout (no leaked events when a waiter dies early)."""

import pytest

from repro.kernel import (
    CalendarQueue,
    DeadlockError,
    EventQueue,
    SimulationError,
    Simulator,
    TimeoutSignal,
)
from repro.kernel.simulator import timeout


def waiter_on(sim, signal, name="waiter"):
    def body():
        yield signal
    return sim.spawn(body(), name=name)


class TestDeadlockGating:
    def test_true_drain_reports_deadlock(self):
        sim = Simulator()
        sig = sim.signal("never_notified")
        waiter_on(sim, sig)
        with pytest.raises(DeadlockError) as excinfo:
            sim.run(check_deadlock=True)
        # the report names the blocked process AND what it waits on
        assert "waiter" in str(excinfo.value)
        assert "never_notified" in str(excinfo.value)

    def test_until_stop_is_not_a_deadlock(self):
        """Work still queued past ``until`` must not be called a deadlock."""
        sim = Simulator()
        waiter_on(sim, sim.signal("pending"))
        sim.schedule_at(100, lambda: None)
        assert sim.run(until=50, check_deadlock=True) == 50

    def test_refused_spawn_leaves_no_process(self):
        """A spawn refused for its negative delay must not leave a
        process behind for the deadlock check to name."""
        sim = Simulator()

        def body():
            yield 1

        with pytest.raises(SimulationError):
            sim.spawn(body(), name="bad", delay=-1)
        assert sim.live_processes == []
        assert sim.run(check_deadlock=True) == 0

    def test_drain_without_processes_is_clean(self):
        sim = Simulator()
        sim.schedule_at(5, lambda: None)
        assert sim.run(check_deadlock=True) == 5

    def test_blocked_report_formats(self):
        sim = Simulator()
        waiter_on(sim, sim.signal("sigA"), name="procA")
        sim.run(until=0)
        report = sim.blocked_report()
        assert "procA (on sigA)" in report
        assert Simulator().blocked_report() == "(none)"


class TestReentrancyGuard:
    def test_run_inside_run_raises(self):
        """A run() fired from inside run() would drain the queue behind
        the outer loop's back: it is refused, and a later run() resumes
        where the outer one stopped."""
        sim = Simulator()
        fired = []
        sim.schedule_at(5, sim.run)
        sim.schedule_at(7, lambda: fired.append(sim.now))
        with pytest.raises(SimulationError, match="already running"):
            sim.run()
        assert sim.now == 5
        assert sim.run() == 7
        assert fired == [7]


class TestSequentialRuns:
    """One Simulator, several run() calls after an `until` stop."""

    def test_resume_after_until_stop(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(10, lambda: fired.append(10))
        sim.schedule_at(100, lambda: fired.append(100))
        assert sim.run(until=50) == 50
        assert fired == [10]
        assert sim.run() == 100
        assert fired == [10, 100]

    def test_time_never_goes_backward(self):
        """Regression: run(until=earlier) after a later stop used to
        rewind _now to the new `until`."""
        sim = Simulator()
        sim.schedule_at(100, lambda: None)
        assert sim.run(until=50) == 50
        assert sim.run(until=30) == 50
        assert sim.now == 50

    def test_event_at_exactly_until_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(50, lambda: fired.append(sim.now))
        assert sim.run(until=50) == 50
        assert fired == [50]

    def test_schedule_at_until_boundary_then_resume(self):
        sim = Simulator()
        sim.schedule_at(100, lambda: None)
        sim.run(until=50)
        fired = []
        sim.schedule_at(50, lambda: fired.append(sim.now))
        assert sim.run(until=50) == 50
        assert fired == [50]
        assert sim.run() == 100


class TestUntilAdvancesOnDrain:
    """run(until=T) reports T whether the stop came from a later event or
    from the queue draining first (the old code only advanced on the
    peek-later break, so an empty queue returned 0 but one event at T+1
    returned T)."""

    def test_empty_queue_advances_to_until(self):
        sim = Simulator()
        assert sim.run(until=100) == 100
        assert sim.now == 100

    def test_drain_before_until_advances_to_until(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(10, lambda: fired.append(sim.now))
        assert sim.run(until=100) == 100
        assert fired == [10]

    def test_matches_peek_later_semantics(self):
        """The satellite's exact inconsistency: 0 vs 100 for one event's
        difference.  Both shapes must now report 100."""
        drained_sim = Simulator()
        later_sim = Simulator()
        later_sim.schedule_at(101, lambda: None)
        assert drained_sim.run(until=100) == later_sim.run(until=100) == 100

    def test_drained_advance_respects_no_rewind(self):
        sim = Simulator()
        sim.schedule_at(60, lambda: None)
        assert sim.run() == 60
        assert sim.run(until=30) == 60  # empty queue, earlier until: no-op
        assert sim.now == 60

    def test_drained_advance_then_new_event_before_until(self):
        sim = Simulator()
        sim.run(until=100)
        with pytest.raises(SimulationError):
            sim.schedule_at(50, lambda: None)  # the clock really moved


class TestMassKillBookkeeping:
    """Killing N waiters on a popular signal is O(N) total (dict-based
    waiter removal), and never disturbs the wake order of the survivors."""

    def test_survivor_wake_order_unchanged_after_mass_kill(self):
        sim = Simulator()
        sig = sim.signal("popular")
        woke = []

        def waiter(tag):
            yield sig
            woke.append(tag)

        processes = {tag: sim.spawn(waiter(tag), name=f"w{tag}")
                     for tag in range(20)}
        sim.run(until=0)
        assert sig.waiter_count == 20
        # kill every third waiter, scattered through the wait order
        killed = [tag for tag in processes if tag % 3 == 0]
        for tag in killed:
            processes[tag].kill()
        assert sig.waiter_count == 20 - len(killed)
        sig.notify()
        sim.run()
        assert woke == [tag for tag in range(20) if tag % 3 != 0]

    def test_waiter_count_drops_per_kill(self):
        sim = Simulator()
        sig = sim.signal("s")
        spawned = [waiter_on(sim, sig, name=f"w{i}") for i in range(5)]
        sim.run(until=0)
        for expected, process in enumerate(spawned):
            assert sig.waiter_count == 5 - expected
            process.kill()
        assert sig.waiter_count == 0


class TestCancellableTimeout:
    def test_timeout_fires_normally(self):
        sim = Simulator()
        times = []

        def body():
            yield timeout(sim, 40)
            times.append(sim.now)

        sim.spawn(body())
        assert sim.run() == 40
        assert times == [40]

    def test_killed_waiter_cancels_pending_timeout(self):
        """The satellite bug: a killed waiter used to leave the timeout
        event in the queue, dragging the run out to the full deadline."""
        sim = Simulator()
        sig = timeout(sim, 1000)
        proc = waiter_on(sim, sig)
        sim.run(until=1)
        proc.kill()
        # the backing event is cancelled, so the queue is now empty and the
        # clock must NOT advance to 1000
        assert sim.run() == 1
        assert sig.event is None or sig.event.cancelled

    def test_explicit_cancel(self):
        sim = Simulator()
        sig = timeout(sim, 30)
        fired = []
        sim.spawn(self._recorder(sig, fired))
        sig.cancel()
        assert sim.run() == 0
        assert fired == []

    @staticmethod
    def _recorder(sig, fired):
        def body():
            yield sig
            fired.append(True)
        return body()

    def test_shared_timeout_survives_one_leaver(self):
        """Cancel-on-empty must only trigger when the LAST waiter leaves."""
        sim = Simulator()
        sig = timeout(sim, 60)
        leaver = waiter_on(sim, sig, name="leaver")
        stayer_done = []

        def stayer():
            yield sig
            stayer_done.append(sim.now)

        sim.spawn(stayer(), name="stayer")
        sim.run(until=1)
        leaver.kill()
        assert sim.run() == 60          # still fires for the stayer
        assert stayer_done == [60]

    def test_is_a_timeout_signal(self):
        sim = Simulator()
        assert isinstance(timeout(sim, 5), TimeoutSignal)


class TestClockMonotonicityProperty:
    """Property form of the clock rule of ``run(until=T)``.

    Any interleaving of ``run()`` and ``run(until=T)`` must keep time
    monotonic, never pass a pending event, and land a drained
    ``run(until=T)`` exactly on ``max(T, last event)``.
    """

    from hypothesis import given as _given, strategies as _st

    _CALLS = _st.lists(
        _st.one_of(
            _st.tuples(_st.just("run_until"), _st.integers(0, 120)),
            _st.tuples(_st.just("run"),),
        ),
        min_size=1, max_size=20,
    )

    @_given(_CALLS, _st.lists(_st.integers(1, 9), min_size=1, max_size=12),
            _st.sampled_from([CalendarQueue, EventQueue]))
    def test_interleaved_runs_never_rewind(self, calls, delays, make_queue):
        sim = Simulator(queue=make_queue())

        def proc():
            for delay in delays:
                yield delay

        sim.spawn(proc(), name="p")
        last_event_time = sum(delays)
        observed = [0]
        for call in calls:
            before = sim.now
            if call[0] == "run_until":
                now = sim.run(until=call[1])
                # a drained bounded run lands on max(until, last event
                # already fired); it never stops short of `until` and
                # never overshoots past the next pending event
                assert now == sim.now
                pending = sim._queue.peek_time()
                if pending is None:
                    assert now == max(call[1], before, observed[-1])
                else:
                    assert now <= call[1] or now == before
            else:
                sim.run()
            assert sim.now >= before, "clock went backward"
            observed.append(sim.now)
        assert observed == sorted(observed)
        sim.run()
        assert sim.now == max(last_event_time, sim.now)
        assert sim.now >= last_event_time  # every event has fired by now

    @_given(_st.integers(0, 50), _st.lists(_st.integers(1, 9),
                                           min_size=1, max_size=10))
    def test_drained_until_lands_on_max(self, until, delays):
        """With everything drained, run(until=T) == max(T, last event)."""
        for queue in (CalendarQueue(), EventQueue()):
            sim = Simulator(queue=queue)

            def proc():
                for delay in delays:
                    yield delay

            sim.spawn(proc(), name="p")
            sim.run()                      # drain completely
            last = sim.now
            assert sim.run(until=until) == max(until, last)
