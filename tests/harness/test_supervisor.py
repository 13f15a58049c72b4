"""Supervised sweep execution: worker-crash recovery, hang detection,
retry/quarantine, journalled resume through the engine."""

import os
import signal
import threading
import time

import pytest

from repro.harness import (
    SweepInterrupted,
    SweepJournal,
    SweepPointFailure,
    SweepSpec,
    run_sweep_parallel,
)
from repro.harness import parallel as parallel_module
from repro.harness import supervisor as supervisor_module
from repro.harness.cache import repro_version

pytestmark = pytest.mark.sweep


def small_spec():
    return SweepSpec("cacheloop", [1, 2], interconnects=["ahb", "tlm"],
                     app_params={"iters": 40})


def one_point_task(iters):
    """The pool task of a one-point cacheloop grid (no warm-up)."""
    point = parallel_module.expand_grid(
        SweepSpec("cacheloop", [1], app_params={"iters": iters}))[0]
    return point, None, False


class TestFailureTaxonomy:
    def test_kinds_and_transience(self):
        crash = SweepPointFailure("worker-crash", "died")
        assert crash.transient
        timeout = SweepPointFailure("timeout", "slow")
        assert timeout.transient
        sim = SweepPointFailure("simulation-error", "raised")
        assert not sim.transient
        stop = SweepPointFailure("interrupted", "ctrl-c")
        assert not stop.transient

    def test_as_dict(self):
        failure = SweepPointFailure("timeout", "slow", attempts=3)
        data = failure.as_dict()
        assert data["kind"] == "timeout"
        assert data["transient"] is True
        assert data["attempts"] == 3


class TestWorkerCrashRecovery:
    def test_sigkilled_worker_fails_only_its_point(self, tmp_path,
                                                   monkeypatch):
        # the first worker to claim the marker dies mid-point with
        # os._exit — the moral equivalent of an OOM SIGKILL
        monkeypatch.setenv(supervisor_module._TEST_CRASH_ONCE_ENV,
                           str(tmp_path / "crashed"))
        results = run_sweep_parallel(small_spec(), jobs=2)
        statuses = [r.status for r in results]
        assert statuses.count("failed") == 1
        assert statuses.count("ok") == 3      # the pool recovered
        failed = [r for r in results if r.status == "failed"][0]
        assert failed.failure.kind == "worker-crash"
        assert failed.quarantined

    def test_crashed_point_recovers_with_retries(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv(supervisor_module._TEST_CRASH_ONCE_ENV,
                           str(tmp_path / "crashed"))
        results = run_sweep_parallel(small_spec(), jobs=2, retries=1,
                                     retry_backoff_s=0.05)
        assert [r.status for r in results] == ["ok"] * 4
        assert max(r.attempts for r in results) == 2
        assert os.path.exists(tmp_path / "crashed")

    def test_always_crashing_point_is_quarantined(self, monkeypatch,
                                                  tmp_path):
        # every worker handed point 0 dies; the others sail through
        monkeypatch.setenv(supervisor_module._TEST_CRASH_INDEX_ENV, "0")
        journal = SweepJournal.create(tmp_path, small_spec().to_dict(), 4,
                                      repro_version())
        results = run_sweep_parallel(small_spec(), jobs=2, retries=2,
                                     retry_backoff_s=0.05,
                                     journal=journal)
        journal.close()
        assert results[0].status == "failed"
        assert results[0].quarantined
        assert results[0].attempts == 3
        assert [r.status for r in results[1:]] == ["ok"] * 3
        state = SweepJournal.read_state(tmp_path)
        assert state.quarantined == {0}
        assert 0 in state.failed


class TestHangDetection:
    def test_silent_worker_is_killed_and_point_fails(self, monkeypatch):
        import multiprocessing
        # workers skip their heartbeat thread and sleep forever: only
        # heartbeat-based hang detection can end this sweep
        monkeypatch.setenv(supervisor_module._TEST_NO_HEARTBEAT_ENV, "1")
        monkeypatch.setenv(parallel_module._TEST_SLEEP_ENV, "60.0")
        spec = SweepSpec("cacheloop", [1, 2], app_params={"iters": 40})
        start = time.monotonic()
        results = run_sweep_parallel(spec, jobs=2,
                                     heartbeat_timeout_s=0.5)
        assert time.monotonic() - start < 30.0
        assert results[0].status == "failed"
        assert results[0].failure.kind == "worker-crash"
        assert "heartbeat" in results[0].traceback
        assert not [p for p in multiprocessing.active_children()
                    if p.name.startswith("repro-sweep-worker")]


class TestInterrupt:
    def test_cancel_mid_sweep_journals_in_flight(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv(parallel_module._TEST_SLEEP_ENV, "5.0")
        spec = small_spec()
        journal = SweepJournal.create(tmp_path, spec.to_dict(), 4,
                                      repro_version())
        cancel = threading.Event()
        timer = threading.Timer(1.0, cancel.set)
        timer.start()
        try:
            with pytest.raises(SweepInterrupted) as stop:
                run_sweep_parallel(spec, jobs=2, journal=journal,
                                   cancel=cancel)
        finally:
            timer.cancel()
            journal.close()
        results = stop.value.results
        assert len(results) == 4
        assert all(r.status == "failed" for r in results)
        assert all(r.failure.kind == "interrupted" for r in results)
        state = SweepJournal.read_state(tmp_path)
        # the two picked-up points carry interrupted records
        assert state.in_flight
        assert state.unfinished_of(4) == {0, 1, 2, 3}

    def test_interrupted_results_render(self, monkeypatch):
        monkeypatch.setenv(parallel_module._TEST_SLEEP_ENV, "5.0")
        cancel = threading.Event()
        cancel.set()
        from repro.harness import sweep_csv, sweep_table
        with pytest.raises(SweepInterrupted) as stop:
            run_sweep_parallel(small_spec(), jobs=2, cancel=cancel)
        table = sweep_table(stop.value.results)
        assert "FAILED:interrupted" in table
        assert ",failed:interrupted" in sweep_csv(stop.value.results)


class TestJournalledResume:
    def test_resume_runs_exactly_the_unfinished_points(self, tmp_path,
                                                       monkeypatch):
        spec = small_spec()
        # first run: interrupt after the first two points complete
        journal = SweepJournal.create(tmp_path, spec.to_dict(), 4,
                                      repro_version())
        cancel = threading.Event()
        executed_first = []
        real = parallel_module._execute_point

        def first_run(point, *rest):
            executed_first.append(point.interconnect)
            if len(executed_first) == 2:
                cancel.set()
            return real(point, *rest)

        monkeypatch.setattr(parallel_module, "_execute_point", first_run)
        with pytest.raises(SweepInterrupted):
            run_sweep_parallel(spec, jobs=1, journal=journal,
                               cancel=cancel)
        journal.close()
        state = SweepJournal.read_state(tmp_path)
        assert set(state.ok) == {0, 1}

        # resume: only the two unfinished points may simulate
        executed_second = []

        def second_run(point, *rest):
            executed_second.append(point.interconnect)
            return real(point, *rest)

        monkeypatch.setattr(parallel_module, "_execute_point", second_run)
        resumed = SweepJournal.resume(tmp_path, spec.to_dict())
        results = run_sweep_parallel(spec, jobs=1, journal=resumed)
        resumed.close()
        assert executed_second == ["tlm", "tlm"]
        assert [r.status for r in results] == ["ok"] * 4
        assert [r.journaled for r in results] == [True, True, False,
                                                  False]

    def test_resumed_results_bit_identical_to_uninterrupted(
            self, tmp_path, monkeypatch):
        spec = small_spec()
        reference = run_sweep_parallel(spec, jobs=1)

        journal = SweepJournal.create(tmp_path, spec.to_dict(), 4,
                                      repro_version())
        cancel = threading.Event()
        count = [0]
        real = parallel_module._execute_point

        def interrupt_after_two(payload, *rest):
            count[0] += 1
            if count[0] == 3:
                raise KeyboardInterrupt
            return real(payload, *rest)

        monkeypatch.setattr(parallel_module, "_execute_point",
                            interrupt_after_two)
        with pytest.raises(SweepInterrupted):
            run_sweep_parallel(spec, jobs=1, journal=journal,
                               cancel=cancel)
        journal.close()
        monkeypatch.setattr(parallel_module, "_execute_point", real)
        resumed = SweepJournal.resume(tmp_path, spec.to_dict())
        results = run_sweep_parallel(spec, jobs=1, journal=resumed)
        resumed.close()
        assert [r.tg_cycles for r in results] == \
            [r.tg_cycles for r in reference]
        assert [r.ref_cycles for r in results] == \
            [r.ref_cycles for r in reference]

    def test_resume_seeds_attempt_counts_from_journal(self, tmp_path):
        import json
        from repro.harness import journal_path
        spec = SweepSpec("cacheloop", [1], app_params={"iters": 40})
        journal = SweepJournal.create(tmp_path, spec.to_dict(), 1,
                                      repro_version())
        journal.record_started(0, 0)
        journal.record_failed(0, 0, "worker-crash", "died", final=False)
        journal.record_started(0, 1)
        journal.record_interrupted(0, 1)
        journal.close()
        resumed = SweepJournal.resume(tmp_path, spec.to_dict())
        results = run_sweep_parallel(spec, jobs=1, journal=resumed)
        resumed.close()
        assert results[0].status == "ok"
        assert results[0].attempts == 3      # two prior tries + this one
        state = SweepJournal.read_state(tmp_path)
        assert state.attempts[0] == 3
        # the resumed run continues the attempt numbering instead of
        # journalling a duplicate (index, attempt=0) record
        records = [json.loads(line) for line in
                   journal_path(tmp_path).read_text().splitlines()]
        started = [r["attempt"] for r in records if r["type"] == "started"]
        assert started == [0, 1, 2]

    def test_resume_does_not_reset_retry_budget(self, tmp_path,
                                                monkeypatch):
        # point 0 always crashes its worker; two attempts are already
        # journalled, so with --retries 2 the resumed run gets exactly
        # one more try, not a fresh budget of three
        monkeypatch.setenv(supervisor_module._TEST_CRASH_INDEX_ENV, "0")
        spec = small_spec()
        journal = SweepJournal.create(tmp_path, spec.to_dict(), 4,
                                      repro_version())
        journal.record_started(0, 0)
        journal.record_failed(0, 0, "worker-crash", "died", final=False)
        journal.record_started(0, 1)
        journal.record_failed(0, 1, "worker-crash", "died", final=False)
        journal.close()
        resumed = SweepJournal.resume(tmp_path, spec.to_dict())
        results = run_sweep_parallel(spec, jobs=2, retries=2,
                                     retry_backoff_s=0.05,
                                     journal=resumed)
        resumed.close()
        assert results[0].status == "failed"
        assert results[0].quarantined
        assert results[0].attempts == 3      # 2 journalled + 1 here
        # the terminal failure continues the attempt numbering (a reset
        # budget would have journalled attempts 0..2 again)
        state = SweepJournal.read_state(tmp_path)
        assert state.failed[0]["attempt"] == 2
        assert state.quarantined == {0}

    def test_version_mismatch_resume_keeps_one_cache_record_per_point(
            self, tmp_path):
        import json
        from repro.harness import journal_path
        from repro.harness.cache import ResultCache
        spec = small_spec()
        cache = ResultCache(tmp_path / "cache")
        run_sweep_parallel(spec, jobs=1, cache=cache)   # warm the cache
        run_dir = tmp_path / "run"
        # a journal written by an older repro version: its results are
        # not trusted, but cache hits must not be re-journalled on
        # every subsequent resume
        SweepJournal.create(run_dir, spec.to_dict(), 4,
                            "0.0.0-stale").close()
        for _ in range(2):
            resumed = SweepJournal.resume(run_dir, spec.to_dict())
            results = run_sweep_parallel(spec, jobs=1, cache=cache,
                                         journal=resumed)
            resumed.close()
            assert all(r.cached for r in results)
        records = [json.loads(line) for line in
                   journal_path(run_dir).read_text().splitlines()]
        ok_records = [r for r in records if r["type"] == "ok"]
        assert len(ok_records) == 4          # one per point, not per resume

    def test_quarantined_points_stay_failed_unless_requeued(
            self, tmp_path, monkeypatch):
        spec = SweepSpec("cacheloop", [1, 2], app_params={"iters": 40})
        journal = SweepJournal.create(tmp_path, spec.to_dict(), 2,
                                      repro_version())
        journal.record_started(0, 0)
        journal.record_failed(0, 0, "worker-crash", "died", final=True)
        journal.record_quarantined(0, attempts=1)
        journal.close()

        ran = []
        real = parallel_module._execute_point

        def spy(point, *rest):
            ran.append(point.n_cores)
            return real(point, *rest)

        monkeypatch.setattr(parallel_module, "_execute_point", spy)
        resumed = SweepJournal.resume(tmp_path, spec.to_dict())
        results = run_sweep_parallel(spec, jobs=1, journal=resumed)
        resumed.close()
        assert ran == [2]                    # quarantined point skipped
        assert results[0].status == "failed"
        assert results[0].quarantined
        assert results[0].journaled

        ran.clear()
        resumed = SweepJournal.resume(tmp_path, spec.to_dict())
        results = run_sweep_parallel(spec, jobs=1, journal=resumed,
                                     requeue_failed=True)
        resumed.close()
        assert ran == [1]                    # re-queued; point 1 is ok now
        assert results[0].status == "ok"


class TestSupervisorShutdown:
    def test_shutdown_kills_stuck_workers(self, monkeypatch):
        from repro.harness.supervisor import WorkerSupervisor
        monkeypatch.setenv(parallel_module._TEST_SLEEP_ENV, "60.0")
        supervisor = WorkerSupervisor(2, heartbeat_timeout_s=None)
        supervisor.dispatch(0, one_point_task(iters=10))
        time.sleep(0.3)
        pids = supervisor.pids
        assert pids
        supervisor.shutdown(graceful=False)
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_dispatch_replaces_worker_that_died_idle(self):
        from repro.harness.supervisor import WorkerSupervisor
        supervisor = WorkerSupervisor(1, heartbeat_timeout_s=None)
        try:
            victim = next(iter(supervisor._workers.values()))
            victim.process.kill()
            victim.process.join(timeout=5.0)
            # poll() has not run, so the corpse still counts as idle;
            # dispatch must not queue the point into it (the point
            # would be misclassified worker-crash without ever running)
            assert supervisor.idle_count == 1
            supervisor.dispatch(0, one_point_task(iters=10))
            holders = [h for h in supervisor._workers.values()
                       if h.index == 0]
            assert holders and holders[0].process.is_alive()
            events = []
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and not any(
                    e.kind == "result" for e in events):
                events.extend(supervisor.poll(timeout=0.05))
            assert any(e.kind == "result" for e in events)
            assert not any(e.kind == "crashed" for e in events)
        finally:
            supervisor.shutdown(graceful=False)

    def test_sigkilled_worker_is_detected_and_replaced(self, monkeypatch):
        from repro.harness.supervisor import WorkerSupervisor
        # keep the point running long enough to SIGKILL its worker
        monkeypatch.setenv(parallel_module._TEST_SLEEP_ENV, "30.0")
        supervisor = WorkerSupervisor(2, heartbeat_timeout_s=None)
        try:
            supervisor.dispatch(0, one_point_task(iters=40))
            deadline = time.monotonic() + 10.0
            victim = None
            while time.monotonic() < deadline and victim is None:
                supervisor.poll(timeout=0.05)
                for handle in supervisor._workers.values():
                    if handle.busy and handle.started_at is not None:
                        victim = handle.process.pid
                        break
            assert victim is not None
            os.kill(victim, signal.SIGKILL)
            events = []
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and not any(
                    e.kind == "crashed" for e in events):
                events.extend(supervisor.poll(timeout=0.05))
            crashed = [e for e in events if e.kind == "crashed"]
            assert crashed and crashed[0].index == 0
            # the pool healed itself back to two live workers
            assert len(supervisor._workers) == 2
            assert all(h.process.is_alive()
                       for h in supervisor._workers.values())
        finally:
            supervisor.shutdown(graceful=False)
