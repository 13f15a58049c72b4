"""Parallel sweep engine: grid expansion, determinism, crash isolation,
per-point timeouts, and progress reporting."""

import pytest

from repro.core import ReplayMode
from repro.harness import (
    SweepSpec,
    expand_grid,
    run_sweep_parallel,
    sweep_csv,
    sweep_table,
)
from repro.harness import parallel as parallel_module

pytestmark = pytest.mark.sweep

#: CSV column indices of the wall-clock-derived values (ref_wall,
#: tg_wall, gain) — the only columns allowed to differ between an
#: in-process (``jobs=1``) and a pooled run of the same grid.
WALL_COLUMNS = (7, 8, 9)


def normalised_csv(results):
    lines = []
    for line in sweep_csv(results).strip().splitlines():
        cells = line.split(",")
        for index in WALL_COLUMNS:
            cells[index] = "WALL"
        lines.append(",".join(cells))
    return "\n".join(lines)


def small_spec():
    return SweepSpec("cacheloop", [1, 2], interconnects=["ahb", "tlm"],
                     app_params={"iters": 50})


class TestExpandGrid:
    def test_canonical_order_matches_serial_sweep(self):
        points = expand_grid(SweepSpec(
            "cacheloop", [1, 2], interconnects=["ahb", "tlm"],
            modes=["reactive", "cloning"]))
        assert [p.index for p in points] == list(range(8))
        assert [p.interconnect for p in points] == ["ahb"] * 4 + ["tlm"] * 4
        assert [p.mode for p in points] == (
            ["reactive"] * 2 + ["cloning"] * 2) * 2
        assert [p.n_cores for p in points] == [1, 2] * 4

    def test_points_do_not_share_app_params(self):
        spec = SweepSpec("cacheloop", [1, 2],
                         app_params={"iters": 50, "nest": {"deep": []}})
        points = expand_grid(spec)
        points[0].app_params["nest"]["deep"].append("poison")
        assert points[1].app_params["nest"]["deep"] == []
        assert spec.app_params["nest"]["deep"] == []

    def test_payload_is_plain_data(self):
        import pickle
        point = expand_grid(small_spec())[0]
        assert pickle.loads(pickle.dumps(point.payload())) == point.payload()


class TestParallelMatchesSerial:
    def test_csv_identical_modulo_wall_columns(self):
        spec = small_spec()
        serial = run_sweep_parallel(spec, jobs=1)
        parallel = run_sweep_parallel(spec, jobs=2)
        assert normalised_csv(serial) == normalised_csv(parallel)

    def test_results_in_grid_order(self):
        results = run_sweep_parallel(small_spec(), jobs=2)
        assert [r.interconnect for r in results] == ["ahb", "ahb",
                                                     "tlm", "tlm"]
        assert [r.n_cores for r in results] == [1, 2, 1, 2]
        assert all(r.status == "ok" for r in results)
        assert all(isinstance(r.mode, ReplayMode) for r in results)

    def test_jobs_one_runs_in_process(self, monkeypatch):
        ran = []
        real = parallel_module._execute_point

        def spy(payload, *rest):
            ran.append(payload["n_cores"])
            return real(payload, *rest)

        monkeypatch.setattr(parallel_module, "_execute_point", spy)
        results = run_sweep_parallel(
            SweepSpec("cacheloop", [1], app_params={"iters": 40}), jobs=1)
        assert ran == [1]
        assert results[0].status == "ok"


class TestCrashIsolation:
    def test_exploding_point_marks_row_failed(self):
        # an unknown app parameter raises TypeError inside the worker
        spec = SweepSpec("cacheloop", [1, 2], app_params={"bogus": 1})
        results = run_sweep_parallel(spec, jobs=2)
        assert [r.status for r in results] == ["failed", "failed"]
        assert all("bogus" in r.traceback for r in results)

    def test_failed_rows_render(self):
        spec = SweepSpec("cacheloop", [1], app_params={"bogus": 1})
        results = run_sweep_parallel(spec, jobs=1)
        assert "FAILED:simulation-error" in sweep_table(results)
        assert sweep_csv(results).strip().splitlines()[1].endswith(
            ",failed:simulation-error")
        assert results[0].failure is not None
        assert not results[0].failure.transient

    def test_failed_point_is_never_cached(self, tmp_path):
        from repro.harness import ResultCache
        cache = ResultCache(tmp_path / "cache")
        spec = SweepSpec("cacheloop", [1], app_params={"bogus": 1})
        run_sweep_parallel(spec, jobs=1, cache=cache)
        assert len(cache) == 0
        # the retry still simulates (and still fails) instead of hitting
        results = run_sweep_parallel(spec, jobs=1, cache=cache)
        assert results[0].status == "failed"
        assert not results[0].cached


class TestPointTimeout:
    # a lone pending point is supervised too: jobs=2 must not fall back
    # to the unprotected in-process path for a one-point grid
    @pytest.mark.parametrize("cores", [[1], [1, 2]],
                             ids=["one-point", "two-point"])
    def test_slow_point_marked_failed(self, monkeypatch, cores):
        monkeypatch.setenv(parallel_module._TEST_SLEEP_ENV, "2.0")
        spec = SweepSpec("cacheloop", cores, app_params={"iters": 40})
        results = run_sweep_parallel(spec, jobs=2, point_timeout_s=0.2)
        assert [r.status for r in results] == ["failed"] * len(cores)
        assert all("timeout" in r.traceback for r in results)
        assert all(r.failure.kind == "timeout" for r in results)
        assert all(r.failure.transient for r in results)

    def test_clock_starts_at_pickup_not_submission(self, monkeypatch):
        # 6 points over 2 workers = 3 waves; by the time the last wave
        # runs, more wall time has passed since *submission* (~1.2s)
        # than the whole budget — the old submission-based clock marked
        # queued points failed before they ever executed.  Each point
        # itself (~0.4s) comfortably fits the budget, so all must pass.
        monkeypatch.setenv(parallel_module._TEST_SLEEP_ENV, "0.4")
        spec = SweepSpec("cacheloop", [1],
                         interconnects=["ahb", "tlm", "stbus"],
                         modes=["reactive", "cloning"],
                         app_params={"iters": 30})
        results = run_sweep_parallel(spec, jobs=2, point_timeout_s=1.0)
        assert [r.status for r in results] == ["ok"] * 6

    def test_timed_out_worker_is_killed_not_abandoned(self, monkeypatch):
        import multiprocessing
        monkeypatch.setenv(parallel_module._TEST_SLEEP_ENV, "30.0")
        spec = SweepSpec("cacheloop", [1, 2], app_params={"iters": 40})
        results = run_sweep_parallel(spec, jobs=2, point_timeout_s=0.3)
        assert [r.status for r in results] == ["failed", "failed"]
        # the 30s-sleeping worker must not survive the sweep
        assert not [p for p in multiprocessing.active_children()
                    if p.name.startswith("repro-sweep-worker")]


class TestProgressReporting:
    def test_progress_lines(self):
        lines = []
        results = run_sweep_parallel(small_spec(), jobs=1,
                                     progress=lines.append)
        assert len(results) == 4
        assert lines[-1].startswith("[sweep] 4/4 done")
        assert "(0 cached, 0 failed)" in lines[-1]
        # one line up front plus one per completed point
        assert len(lines) == 5


class TestSummaryValidation:
    """A summary without a trustworthy status must never report ok."""

    def point(self):
        from repro.harness import expand_grid
        return expand_grid(SweepSpec("cacheloop", [1]))[0]

    def test_missing_status_is_failed_with_diagnostic(self):
        from repro.harness import PointResult
        # e.g. a stale cache entry written by an older result schema
        stale = {"ref_cycles": 100, "tg_cycles": 100}
        result = PointResult.from_summary(self.point(), stale, "cache")
        assert result.status == "failed"
        assert result.failure is not None
        assert "invalid status" in result.failure.message
        assert "stale cache entry" in result.traceback
        # the bogus numbers must not leak into the row
        assert result.ref_cycles == 0 and result.tg_cycles == 0

    def test_unknown_status_is_failed(self):
        from repro.harness import PointResult
        result = PointResult.from_summary(
            self.point(), {"status": "maybe", "ref_cycles": 7})
        assert result.status == "failed"
        assert "'maybe'" in result.failure.message

    def test_ok_status_still_ok(self):
        from repro.harness import PointResult
        result = PointResult.from_summary(
            self.point(), {"status": "ok", "ref_cycles": 7})
        assert result.status == "ok"
        assert result.ref_cycles == 7


class TestNoWorkerLeak:
    """Every child the pool spawned must be reaped before returning."""

    def leaked_workers(self):
        import multiprocessing
        return [p for p in multiprocessing.active_children()
                if p.name.startswith("repro-sweep-worker")]

    def test_normal_sweep_leaves_no_children(self):
        run_sweep_parallel(small_spec(), jobs=2)
        assert self.leaked_workers() == []

    def test_failed_sweep_leaves_no_children(self):
        spec = SweepSpec("cacheloop", [1, 2], app_params={"bogus": 1})
        run_sweep_parallel(spec, jobs=2)
        assert self.leaked_workers() == []

    def test_interrupted_sweep_leaves_no_children(self, monkeypatch):
        import threading
        from repro.harness import SweepInterrupted
        monkeypatch.setenv(parallel_module._TEST_SLEEP_ENV, "30.0")
        cancel = threading.Event()
        cancel.set()                 # cancel before the first dispatch
        spec = SweepSpec("cacheloop", [1, 2], app_params={"iters": 40})
        with pytest.raises(SweepInterrupted):
            run_sweep_parallel(spec, jobs=2, cancel=cancel)
        assert self.leaked_workers() == []
