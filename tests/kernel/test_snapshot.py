"""Unit tests for the checkpoint protocol layer (repro.kernel.snapshot)."""

import pytest

from repro.artifacts.errors import EXIT_SNAPSHOT, SnapshotError
from repro.kernel import CalendarQueue, EventQueue, Simulator
from repro.kernel.snapshot import (
    advance_to_quiescence,
    capture,
    quiescence_check,
    restore,
    state_get,
)


#: Every test runs on the heap oracle and on the calendar-queue engine
#: (ids: the names the two had when the engine was selectable).
QUEUES = pytest.mark.parametrize("make_queue", [EventQueue, CalendarQueue],
                                 ids=["classic", "fast"])


class Ticker:
    """Minimal checkpointable component: a process that wakes every N."""

    def __init__(self, sim, period=10, name="ticker"):
        self.sim = sim
        self.period = period
        self.name = name
        self.ticks = 0
        self._process = sim.spawn(self._run(), name=name)

    def _run(self):
        # work happens AT the wake cycle, so a freshly-spawned generator
        # re-armed at the next wake continues identically (the same
        # structure the TG interpreters use)
        while True:
            self.ticks += 1
            yield self.period

    def state_dict(self):
        return {"ticks": self.ticks}

    def load_state(self, state):
        self.ticks = state_get(state, "ticks", self.name)

    def claim_entry(self, entry):
        if entry.process is self._process:
            return {"kind": "tick", "at": entry.time}
        return None

    def rearm(self, sim, slot):
        at = state_get(slot, "at", self.name)
        self._process = sim.spawn(self._run(), name=self.name,
                                  delay=at - sim.now)


class Blocked:
    """A component that always reports a blocker."""

    def __init__(self, reason="stuck"):
        self.reason = reason

    def state_dict(self):
        return {}

    def load_state(self, state):
        pass

    def checkpoint_blockers(self):
        return [self.reason]


@QUEUES
class TestQuiescence:

    def test_claimed_wakeup_is_quiescent(self, make_queue):
        sim = Simulator(queue=make_queue())
        ticker = Ticker(sim)
        sim.run(until=0)
        blockers, claims = quiescence_check(sim, {"ticker": ticker})
        assert blockers == []
        assert claims == [{"owner": "ticker",
                           "slot": {"kind": "tick", "at": 10}}]

    def test_unclaimed_entry_blocks(self, make_queue):
        sim = Simulator(queue=make_queue())
        sim.schedule_after(5, lambda: None)
        blockers, _ = quiescence_check(sim, {})
        assert any("unclaimed queue entry" in reason
                   for reason in blockers)

    def test_unclaimed_live_process_blocks(self, make_queue):
        sim = Simulator(queue=make_queue())

        def waiter():
            yield 3

        sim.spawn(waiter(), name="waiter")
        sim.run(until=0)
        blockers, _ = quiescence_check(sim, {})
        # entry unclaimed AND its process unowned: both reported
        assert any("unclaimed queue entry" in r for r in blockers)

    def test_component_blocker_reported_with_name(self, make_queue):
        sim = Simulator(queue=make_queue())
        blockers, _ = quiescence_check(
            sim, {"dev": Blocked("transaction in flight")})
        assert "dev: transaction in flight" in blockers

    def test_advance_reaches_first_quiescent_cycle(self, make_queue):
        sim = Simulator(queue=make_queue())
        ticker = Ticker(sim)
        blocker = Blocked()
        done = []
        sim.schedule_at(25, lambda: done.append(True))

        class Until25(Blocked):
            def checkpoint_blockers(self):
                return [] if done else ["warming up"]

            def claim_entry(self, entry):
                return None

        gate = Until25()
        claims = advance_to_quiescence(
            sim, {"ticker": ticker, "gate": gate})
        assert sim.now == 25
        assert claims[0]["owner"] == "ticker"
        assert blocker is not None

    def test_scan_limit_raises_typed_error(self, make_queue):
        sim = Simulator(queue=make_queue())
        ticker = Ticker(sim)
        with pytest.raises(SnapshotError) as excinfo:
            advance_to_quiescence(
                sim, {"ticker": ticker, "wall": Blocked()},
                scan_limit=50)
        assert "no quiescent cycle within 50" in str(excinfo.value)
        assert excinfo.value.exit_code == EXIT_SNAPSHOT

    def test_drained_queue_with_blockers_raises(self, make_queue):
        sim = Simulator(queue=make_queue())
        with pytest.raises(SnapshotError) as excinfo:
            advance_to_quiescence(sim, {"wall": Blocked()})
        assert "drained" in str(excinfo.value)


@QUEUES
class TestCaptureRestore:

    def _capture(self, make_queue, until=35):
        sim = Simulator(queue=make_queue())
        ticker = Ticker(sim)
        sim.run(until=until)
        payload = capture(sim, {"ticker": ticker}, {"recipe": True})
        return sim, ticker, payload

    def test_payload_shape(self, make_queue):
        sim, ticker, payload = self._capture(make_queue)
        assert payload["cycle"] == sim.now
        assert "backend" not in payload       # there is one engine
        assert payload["kernel"]["events_fired"] == sim.events_fired
        assert payload["components"] == {"ticker": {"ticks": 4}}
        assert payload["platform"] == {"recipe": True}
        assert len(payload["pending"]) == 1

    def test_restore_is_bit_identical_continuation(self, make_queue):
        _, _, payload = self._capture(make_queue)

        # uninterrupted twin
        sim_a = Simulator(queue=make_queue())
        ticker_a = Ticker(sim_a)
        sim_a.run(until=100)

        sim_b = Simulator(queue=make_queue())
        ticker_b = Ticker(sim_b)
        # restore requires an untouched target: throw away the fresh
        # process (restore re-arms from the snapshot)
        ticker_b._process.kill()
        restore(sim_b, {"ticker": ticker_b}, payload)
        assert sim_b.now == payload["cycle"]
        assert ticker_b.ticks == 4
        sim_b.run(until=100)
        assert sim_b.now == sim_a.now
        assert ticker_b.ticks == ticker_a.ticks
        assert sim_b.events_fired == sim_a.events_fired

    def test_restore_refuses_dirty_target(self, make_queue):
        _, _, payload = self._capture(make_queue)
        sim = Simulator(queue=make_queue())
        ticker = Ticker(sim)
        sim.run(until=12)
        with pytest.raises(SnapshotError) as excinfo:
            restore(sim, {"ticker": ticker}, payload)
        assert "not fresh" in str(excinfo.value)

    def test_restore_refuses_missing_component_state(self, make_queue):
        _, _, payload = self._capture(make_queue)
        sim = Simulator(queue=make_queue())
        ticker = Ticker(sim)
        ticker._process.kill()
        other = Ticker(sim, name="other")
        other._process.kill()
        with pytest.raises(SnapshotError) as excinfo:
            restore(sim, {"ticker": ticker, "other": other}, payload)
        assert "no state for component" in str(excinfo.value)

    def test_restore_refuses_extra_component_state(self, make_queue):
        _, _, payload = self._capture(make_queue)
        sim = Simulator(queue=make_queue())
        with pytest.raises(SnapshotError) as excinfo:
            restore(sim, {}, payload)
        assert "unknown component" in str(excinfo.value)

    def test_fresh_exempts_both_directions(self, make_queue):
        _, _, payload = self._capture(make_queue)
        # extra state tolerated when named fresh (branch disarming)
        sim = Simulator(queue=make_queue())
        with pytest.raises(SnapshotError):
            restore(sim, {}, payload)
        sim = Simulator(queue=make_queue())
        restore(sim, {}, dict(payload, pending=[]),
                fresh=["ticker"])
        assert sim.now == payload["cycle"]
        # missing state tolerated when the fresh component is new
        sim2 = Simulator(queue=make_queue())
        ticker2 = Ticker(sim2)
        ticker2._process.kill()
        extra = Blocked()
        restore(sim2, {"ticker": ticker2, "extra": extra}, payload,
                fresh=["extra"])
        assert ticker2.ticks == 4

    def test_restore_refuses_unknown_pending_owner(self, make_queue):
        _, _, payload = self._capture(make_queue)
        forged = dict(payload)
        forged["pending"] = [{"owner": "ghost", "slot": {}}]
        sim = Simulator(queue=make_queue())
        ticker = Ticker(sim)
        ticker._process.kill()
        with pytest.raises(SnapshotError) as excinfo:
            restore(sim, {"ticker": ticker}, forged)
        assert "ghost" in str(excinfo.value)

    def test_cross_backend_restore(self, make_queue):
        _, _, payload = self._capture(EventQueue)
        sim = Simulator(queue=make_queue())
        ticker = Ticker(sim)
        ticker._process.kill()
        restore(sim, {"ticker": ticker}, payload)
        sim.run(until=100)
        assert ticker.ticks == 11         # wakes at 0, 10, ..., 100


class TestStateGet:

    def test_missing_key_is_typed(self):
        with pytest.raises(SnapshotError) as excinfo:
            state_get({}, "regs", "tg0")
        assert "tg0" in str(excinfo.value)
        assert "regs" in str(excinfo.value)
        assert excinfo.value.exit_code == EXIT_SNAPSHOT

    def test_non_dict_is_typed(self):
        with pytest.raises(SnapshotError):
            state_get(["not", "a", "dict"], "regs", "tg0")

    def test_present_key_returned(self):
        assert state_get({"regs": [1, 2]}, "regs", "tg0") == [1, 2]
