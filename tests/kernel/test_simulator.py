"""Unit tests for the Simulator event loop and process scheduling."""

import pytest

from repro.kernel import (
    CalendarQueue,
    DeadlockError,
    EventQueue,
    SimulationError,
    Simulator,
)
from repro.kernel.simulator import CYCLE_NS, timeout


class TestScheduling:
    def test_time_starts_at_zero(self):
        assert Simulator().now == 0

    def test_schedule_after_advances_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_after(7, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [7]
        assert sim.now == 7

    def test_schedule_at_absolute(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(12, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [12]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_after(-1, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule_after(5, lambda: sim.schedule_at(2, lambda: None))
        with pytest.raises(SimulationError):
            sim.run()

    def test_now_ns_uses_5ns_cycles(self):
        sim = Simulator()
        sim.schedule_after(11, lambda: None)
        sim.run()
        assert CYCLE_NS == 5
        assert sim.now_ns == 55

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        seen = []
        sim.schedule_after(5, lambda: seen.append(5))
        sim.schedule_after(50, lambda: seen.append(50))
        sim.run(until=10)
        assert seen == [5]
        assert sim.now == 10

    def test_run_until_fires_events_at_boundary(self):
        sim = Simulator()
        seen = []
        sim.schedule_after(10, lambda: seen.append(10))
        sim.run(until=10)
        assert seen == [10]

    def test_run_resumes_after_until(self):
        sim = Simulator()
        seen = []
        sim.schedule_after(50, lambda: seen.append(50))
        sim.run(until=10)
        sim.run()
        assert seen == [50]

    def test_max_events_cap(self):
        sim = Simulator()
        count = []
        for _ in range(10):
            sim.schedule_after(1, lambda: count.append(1))
        sim.run(max_events=3)
        assert len(count) == 3

    def test_events_fired_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule_after(i, lambda: None)
        sim.run()
        assert sim.events_fired == 4

    def test_step_single_event(self):
        sim = Simulator()
        seen = []
        sim.schedule_after(1, lambda: seen.append(1))
        sim.schedule_after(2, lambda: seen.append(2))
        assert sim.step() is True
        assert seen == [1]
        assert sim.step() is True
        assert sim.step() is False


class TestProcesses:
    def test_process_waits_cycles(self):
        sim = Simulator()
        log = []

        def proc():
            log.append(sim.now)
            yield 3
            log.append(sim.now)
            yield 4
            log.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert log == [0, 3, 7]

    def test_spawn_delay(self):
        sim = Simulator()
        log = []

        def proc():
            log.append(sim.now)
            yield 0

        sim.spawn(proc(), delay=9)
        sim.run()
        assert log == [9]

    def test_process_return_value(self):
        sim = Simulator()

        def proc():
            yield 1
            return 42

        p = sim.spawn(proc())
        sim.run()
        assert p.result == 42
        assert not p.alive

    def test_result_before_done_raises(self):
        sim = Simulator()

        def proc():
            yield 100

        p = sim.spawn(proc())
        with pytest.raises(SimulationError):
            p.result

    def test_join_child_process(self):
        sim = Simulator()
        log = []

        def child():
            yield 5
            return "done"

        def parent():
            c = sim.spawn(child(), name="child")
            value = yield c
            log.append((sim.now, value))

        sim.spawn(parent(), name="parent")
        sim.run()
        assert log == [(5, "done")]

    def test_join_already_finished_child(self):
        sim = Simulator()
        log = []

        def child():
            yield 1
            return "early"

        def parent(c):
            yield 10
            value = yield c
            log.append((sim.now, value))

        c = sim.spawn(child())
        sim.spawn(parent(c))
        sim.run()
        assert log == [(10, "early")]

    def test_yield_from_subroutine(self):
        sim = Simulator()

        def subroutine():
            yield 2
            return 7

        def proc():
            value = yield from subroutine()
            return value + 1

        p = sim.spawn(proc())
        sim.run()
        assert p.result == 8
        assert sim.now == 2

    def test_negative_yield_raises(self):
        sim = Simulator()

        def proc():
            yield -5

        sim.spawn(proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_bad_yield_type_raises(self):
        sim = Simulator()

        def proc():
            yield "nope"

        sim.spawn(proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_kill_process(self):
        sim = Simulator()
        log = []

        def proc():
            log.append("start")
            yield 100
            log.append("never")

        p = sim.spawn(proc())
        sim.run(until=10)
        p.kill()
        sim.run()
        assert log == ["start"]
        assert not p.alive

    def test_two_processes_interleave_deterministically(self):
        sim = Simulator()
        log = []

        def proc(tag, period):
            for _ in range(3):
                yield period
                log.append((sim.now, tag))

        sim.spawn(proc("a", 2))
        sim.spawn(proc("b", 3))
        sim.run()
        # at t=6 both wake; "b" scheduled its resume earlier (at t=3) so it
        # fires first — insertion-order determinism
        assert log == [(2, "a"), (3, "b"), (4, "a"), (6, "b"), (6, "a"), (9, "b")]


class TestSignalsInSim:
    def test_signal_wakes_waiter_with_payload(self):
        sim = Simulator()
        sig = sim.signal("s")
        log = []

        def waiter():
            payload = yield sig
            log.append((sim.now, payload))

        def notifier():
            yield 5
            sig.notify("hello")

        sim.spawn(waiter())
        sim.spawn(notifier())
        sim.run()
        assert log == [(5, "hello")]

    def test_notify_wakes_all_waiters_in_order(self):
        sim = Simulator()
        sig = sim.signal()
        log = []

        def waiter(tag):
            yield sig
            log.append(tag)

        for tag in "abc":
            sim.spawn(waiter(tag))
        sim.schedule_after(3, sig.notify)
        sim.run()
        assert log == ["a", "b", "c"]

    def test_notify_without_waiters_is_lost(self):
        sim = Simulator()
        sig = sim.signal()
        log = []

        def late_waiter():
            yield 10
            yield sig  # notified at t=5; never fires again
            log.append("woke")

        sim.spawn(late_waiter())
        sim.schedule_after(5, sig.notify)
        sim.run()
        assert log == []

    def test_timeout_helper(self):
        sim = Simulator()
        log = []

        def proc():
            yield timeout(sim, 8)
            log.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert log == [8]

    def test_deadlock_detection(self):
        sim = Simulator()
        sig = sim.signal()

        def stuck():
            yield sig

        sim.spawn(stuck(), name="stuck")
        with pytest.raises(DeadlockError):
            sim.run(check_deadlock=True)

    def test_no_deadlock_when_all_finish(self):
        sim = Simulator()

        def fine():
            yield 1

        sim.spawn(fine())
        sim.run(check_deadlock=True)  # must not raise


class TestKernelPerfCounters:
    def test_fresh_simulator_counters_are_zero(self):
        counters = Simulator().kernel_counters()
        assert counters == {
            "events_fired": 0,
            "events_cancelled": 0,
            "heap_compactions": 0,
            "peak_heap_size": 0,
            "queued_live": 0,
            "queued_tombstones": 0,
        }

    def test_cancelled_timeout_drops_queue_len_and_counts(self):
        """The satellite regression: a cancelled watchdog used to keep
        counting as queued work in len(queue) / Simulator.__repr__."""
        sim = Simulator()
        guard = timeout(sim, 1_000)
        assert len(sim._queue) == 1
        assert "queued=1" in repr(sim)
        guard.cancel()
        assert len(sim._queue) == 0
        assert "queued=0" in repr(sim)
        assert sim.events_cancelled == 1
        assert sim.kernel_counters()["queued_tombstones"] == 1

    def test_counters_track_watchdog_churn(self):
        """Schedule-and-cancel per transaction (the resilient-TG pattern):
        every guard is reclaimed — as its bucket comes due on the
        calendar queue, by compaction on the heap oracle."""
        for queue in (CalendarQueue(), EventQueue()):
            sim = Simulator(queue=queue)

            def master():
                for _ in range(500):
                    guard = sim.schedule_after(1_000, lambda: None)
                    yield 1
                    guard.cancel()

            sim.spawn(master())
            sim.run()
            counters = sim.kernel_counters()
            assert counters["events_cancelled"] == 500
            assert counters["queued_live"] == 0
            assert counters["queued_tombstones"] < 64
            assert counters["events_fired"] == sim.events_fired
        assert counters["heap_compactions"] >= 1  # the oracle's heap

    def test_events_fired_counts_only_fired_events(self):
        sim = Simulator()
        live = sim.schedule_after(1, lambda: None)
        dead = sim.schedule_after(2, lambda: None)
        dead.cancel()
        sim.run()
        assert live is not None
        assert sim.events_fired == 1
        assert sim.events_cancelled == 1

    def test_spawn_churn_prunes_dead_processes(self):
        """Per-transaction process spawns must not grow the bookkeeping
        list (and live_processes scans) without bound."""
        sim = Simulator()

        def short_lived():
            yield 1

        def spawner():
            for i in range(5_000):
                yield 1
                sim.spawn(short_lived(), name=f"txn{i}")

        sim.spawn(spawner())
        sim.run()
        assert len(sim._processes) < 1_000
        assert sim.live_processes == []
