"""Warm-up-shared sweep machinery: spec validation, equivalence
classes, the snapshot cache, journal provenance and the engine's
class-failure/identity guarantees (the end-to-end byte-compare plus
speedup gate lives in ``tests/harness/warmup_smoke.py``)."""

import os

import pytest

from repro.artifacts.snap import dump_snap
from repro.harness import (
    ResultCache,
    SweepJournal,
    SweepSpec,
    expand_grid,
    run_sweep_parallel,
)
from repro.harness import parallel as parallel_module
from repro.harness import supervisor as supervisor_module
from repro.harness.cache import repro_version, warmup_digest
from repro.harness.supervisor import (
    SIMULATION_ERROR,
    WORKER_CRASH,
    WorkerSupervisor,
)

pytestmark = pytest.mark.sweep

TRAFFIC = {"pattern": "uniform", "load": 0.3, "transactions": 8,
           "seed": 7}

#: summary fields that must be identical between a warm-up-shared and a
#: per-worker-warm-up run (everything except the wall columns)
COMPARABLE = ("benchmark", "n_cores", "interconnect", "status",
              "tg_cycles", "tg_events", "offered_load", "pattern",
              "realised_load", "latency_avg", "latency_max", "issued",
              "words", "throughput_wpkc")


def warm_spec(**extra):
    return SweepSpec.from_dict({
        "benchmark": "synthetic", "cores": [2],
        "interconnects": ["ahb", "tlm"], "modes": ["reactive"],
        "traffic": dict(TRAFFIC), "warmup_cycles": 60,
        "warmup_fabric": "tlm", **extra})


def comparable(results):
    return [tuple(getattr(r, name, None) for name in COMPARABLE)
            for r in results]


class TestSpecValidation:
    def test_rejects_bad_warmup_cycles(self):
        for bad in (0, -5, True, "2000", 1.5):
            with pytest.raises(ValueError, match="warmup_cycles"):
                SweepSpec("cacheloop", [2], warmup_cycles=bad)

    def test_rejects_unknown_warmup_fabric(self):
        with pytest.raises(ValueError, match="warmup_fabric"):
            SweepSpec("cacheloop", [2], warmup_cycles=100,
                      warmup_fabric="hyperbus")

    def test_warmup_fabric_ignored_without_cycles(self):
        # only armed warm-ups validate the fabric name
        spec = SweepSpec("cacheloop", [2])
        assert spec.warmup_cycles is None

    def test_jobs_auto_means_all_cpus(self):
        assert SweepSpec("cacheloop", [2], jobs="auto").jobs == 0

    def test_rejects_bad_jobs(self):
        for bad in (-1, True, "four", 2.5):
            with pytest.raises(ValueError, match="jobs"):
                SweepSpec("cacheloop", [2], jobs=bad)

    def test_dict_round_trip_keeps_warmup_and_jobs(self):
        spec = warm_spec(jobs=3)
        again = SweepSpec.from_dict(spec.to_dict())
        assert again.warmup_cycles == 60
        assert again.warmup_fabric == "tlm"
        assert again.jobs == 3

    def test_cold_spec_dict_has_no_warmup_keys(self):
        data = SweepSpec("cacheloop", [2]).to_dict()
        assert "warmup_cycles" not in data
        assert "jobs" not in data


class TestEquivalenceClasses:
    def test_synthetic_class_spans_fabrics(self):
        points = expand_grid(warm_spec())
        keys = {p.warmup_key() for p in points}
        assert len(points) == 2
        assert len(keys) == 1
        assert keys == {warmup_digest(points[0].warmup_material())}

    def test_cold_points_have_no_class(self):
        spec = SweepSpec.from_dict({
            "benchmark": "synthetic", "cores": [2],
            "interconnects": ["ahb"], "traffic": dict(TRAFFIC)})
        assert [p.warmup_key() for p in expand_grid(spec)] == [None]

    def test_classic_points_warm_per_fabric(self):
        # classic benchmarks have no fabric-independent warm-up: the
        # class material includes the interconnect, so nothing is shared
        spec = SweepSpec("cacheloop", [2],
                         interconnects=["ahb", "tlm"],
                         app_params={"iters": 40}, warmup_cycles=60)
        keys = [p.warmup_key() for p in expand_grid(spec)]
        assert None not in keys
        assert len(set(keys)) == 2

    def test_warmup_changes_the_cache_key(self):
        warm = expand_grid(warm_spec())[0]
        cold_spec = warm_spec().to_dict()
        del cold_spec["warmup_cycles"], cold_spec["warmup_fabric"]
        cold = expand_grid(SweepSpec.from_dict(cold_spec))[0]
        assert warm.cache_key() != cold.cache_key()


class TestSnapCache:
    def payload(self):
        from repro.apps.synthetic import TrafficSpec, synthetic_programs
        from repro.harness import platform_recipe, warmup_snapshot
        spec = TrafficSpec.from_dict({"n_cores": 2, **TRAFFIC})
        recipe = platform_recipe(synthetic_programs(spec)[0], 2, "tlm")
        return warmup_snapshot(recipe, 60, "tlm")

    def test_put_then_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        payload = self.payload()
        path = cache.put_snap("d" * 16, dump_snap(payload))
        assert path.name == "dddddddddddddddd.snap"
        assert cache.get_snap("d" * 16) == payload

    def test_damage_is_a_miss_and_a_verify_finding(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put_snap("e" * 16, dump_snap(self.payload()))
        path.write_text(path.read_text()[:-40])
        assert cache.get_snap("e" * 16) is None
        assert any("snapshot" in issue.detail
                   for issue in cache.verify())

    def test_clear_removes_snapshots(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_snap("f" * 16, dump_snap(self.payload()))
        cache.clear()
        assert not list(tmp_path.glob("*.snap"))


class TestJournalProvenance:
    def test_ok_record_carries_the_warmup_digest(self, tmp_path):
        spec = warm_spec().to_dict()
        journal = SweepJournal.create(tmp_path, spec, 2, repro_version())
        journal.record_started(0, 0)
        journal.record_ok(0, 0, {"status": "ok", "tg_cycles": 5},
                          wall=0.1, warmup="a" * 16)
        journal.record_started(1, 0)
        journal.record_ok(1, 0, {"status": "ok", "tg_cycles": 5},
                          wall=0.1)
        journal.close()
        state = SweepJournal.read_state(tmp_path)
        assert state.ok[0]["warmup"] == "a" * 16
        assert "warmup" not in state.ok[1]


class TestEngine:
    """Warm-up sharing guarantees, run in-process (``jobs=1``)."""

    jobs = 1

    def test_shared_equals_per_worker_warmup(self):
        shared = run_sweep_parallel(warm_spec(), jobs=self.jobs)
        report: dict = {}
        cold = run_sweep_parallel(warm_spec(), jobs=self.jobs,
                                  warmup_share=False,
                                  warmup_report=report)
        assert comparable(shared) == comparable(cold)
        assert all(r.status == "ok" for r in shared)
        assert all(r.warm_restored for r in shared)
        # sharing off: no class warm-up ran as a task of its own
        assert report["classes"] == []
        assert report["simulated"] == 0

    def test_one_warmup_simulation_per_class(self):
        report: dict = {}
        results = run_sweep_parallel(warm_spec(), jobs=self.jobs,
                                     warmup_report=report)
        assert report["simulated"] == 1
        assert report["cached"] == 0
        assert [c["points"] for c in report["classes"]] == [2]
        assert all(r.warm_restored for r in results)

    def test_cached_snapshot_is_reused(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep_parallel(warm_spec(), jobs=self.jobs, cache=cache)
        assert len(list(tmp_path.glob("*.snap"))) == 1
        # drop the cached *results* but keep the snapshot: the re-run
        # must re-simulate every point yet not the warm-up
        for entry in tmp_path.glob("*.json"):
            entry.unlink()
        report: dict = {}
        run_sweep_parallel(warm_spec(), jobs=self.jobs, cache=cache,
                           warmup_report=report)
        assert report["simulated"] == 0
        assert report["cached"] == 1

    def test_class_failure_fails_every_member(self, monkeypatch):
        def explode(*args):
            raise RuntimeError("fabric melted")

        # the warm-up task calls this; fork carries the patch into the
        # pool's workers
        monkeypatch.setattr(parallel_module, "_shared_warmup_payload",
                            explode)
        results = run_sweep_parallel(warm_spec(), jobs=self.jobs)
        assert [r.status for r in results] == ["failed", "failed"]
        for result in results:
            assert result.failure.kind == SIMULATION_ERROR
            assert "warm-up" in result.failure.message
            assert "fabric melted" in result.traceback


class TestEngineOnPool(TestEngine):
    """The same guarantees with class warm-ups as worker-pool tasks."""

    jobs = 2


class TestPoolWarmupSupervision:
    """A warm-up task is supervised like a point: the first worker to
    claim the crash marker is the one running the class warm-up."""

    def test_crashed_warmup_fails_every_member(self, tmp_path,
                                               monkeypatch):
        monkeypatch.setenv(supervisor_module._TEST_CRASH_ONCE_ENV,
                           str(tmp_path / "crashed"))
        journal = SweepJournal.create(tmp_path / "journal",
                                      warm_spec().to_dict(), 2,
                                      repro_version())
        results = run_sweep_parallel(warm_spec(), jobs=2, journal=journal)
        journal.close()
        assert [r.status for r in results] == ["failed", "failed"]
        for result in results:
            assert result.failure.kind == WORKER_CRASH
            assert "warm-up task" in result.failure.message
            assert result.quarantined
        state = SweepJournal.read_state(tmp_path / "journal")
        assert state.quarantined == {0, 1}

    def test_crashed_warmup_is_retried(self, tmp_path, monkeypatch):
        monkeypatch.setenv(supervisor_module._TEST_CRASH_ONCE_ENV,
                           str(tmp_path / "crashed"))
        report: dict = {}
        results = run_sweep_parallel(warm_spec(), jobs=2, retries=1,
                                     retry_backoff_s=0.05,
                                     warmup_report=report)
        assert all(r.status == "ok" and r.warm_restored for r in results)
        assert report["simulated"] == 1
        assert (tmp_path / "crashed").exists()


def totals(calls):
    return {name: sum(n for (kind, _), n in calls.items() if kind == name)
            for name in ("generate", "to_tgp")}


class TestOneBuildPerClass:
    def test_one_generation_and_formatting_per_class(self, build_calls):
        spec = SweepSpec.from_dict({
            "benchmark": "synthetic", "cores": [4],
            "interconnects": ["ahb", "stbus", "tlm", "xpipes"],
            "traffic": {"pattern": "uniform", "transactions": 250,
                        "seed": 7},
            "loads": [0.3, 0.6], "warmup_cycles": 2000})
        report: dict = {}
        results = run_sweep_parallel(spec, jobs=1, warmup_report=report)
        assert all(r.status == "ok" and r.warm_restored for r in results)
        assert report["simulated"] == 2
        # one generation per class, one formatting per program per class
        assert totals(build_calls()) == {"generate": 2, "to_tgp": 8}

    def test_more_classes_than_the_limit(self, build_calls):
        """jobs=1 runs each class's members right after its warm-up, so
        the grid's fabric-major order never evicts a class it needs."""
        classes = parallel_module._CLASS_PROGRAMS_LIMIT + 1
        spec = warm_spec(loads=[0.1 * (k + 1) for k in range(classes)])
        report: dict = {}
        results = run_sweep_parallel(spec, jobs=1, warmup_report=report)
        assert all(r.status == "ok" and r.warm_restored for r in results)
        assert report["simulated"] == classes
        assert totals(build_calls()) == {"generate": classes,
                                         "to_tgp": 2 * classes}

    def test_pool_worker_generates_a_class_once(self, build_calls):
        """1 class, 4 points, -j 2: the driver generates nothing and
        each worker at most once, warm-up included."""
        results = run_sweep_parallel(
            warm_spec(interconnects=["ahb", "stbus", "tlm", "xpipes"]),
            jobs=2)
        assert all(r.status == "ok" and r.warm_restored for r in results)
        generated = {pid: n for (name, pid), n in build_calls().items()
                     if name == "generate"}
        assert str(os.getpid()) not in generated
        assert 1 <= len(generated) <= 2
        assert set(generated.values()) == {1}

    def test_pool_keeps_its_workers_while_members_wait(self, monkeypatch):
        """1 class, 4 points, -j 2: 2 workers for the whole sweep."""
        sizes, spawns = [], []
        original_init = WorkerSupervisor.__init__
        original_spawn = WorkerSupervisor._spawn

        def recording_init(self, workers, **kwargs):
            sizes.append(workers)
            original_init(self, workers, **kwargs)

        def recording_spawn(self):
            spawns.append(self._next_id)
            return original_spawn(self)

        monkeypatch.setattr(parallel_module.WorkerSupervisor,
                            "__init__", recording_init)
        monkeypatch.setattr(parallel_module.WorkerSupervisor,
                            "_spawn", recording_spawn)
        results = run_sweep_parallel(
            warm_spec(interconnects=["ahb", "stbus", "tlm", "xpipes"]),
            jobs=2)
        assert all(r.status == "ok" and r.warm_restored for r in results)
        assert sizes == [2]
        assert spawns == [0, 1]           # no replacement worker forked


class TestCLIGuards:
    def test_resume_refuses_warmup_overrides(self, tmp_path, capsys):
        from repro.cli import sweep_main
        with pytest.raises(SystemExit):
            sweep_main(["--resume", str(tmp_path),
                        "--warmup-cycles", "100"])
        assert "--resume" in capsys.readouterr().err

    def test_experiment_refuses_warmup_plus_checkpoint(self, capsys):
        from repro.cli import experiment_main
        with pytest.raises(SystemExit):
            experiment_main(["cacheloop", "-n", "2",
                             "--warmup-cycles", "100",
                             "--checkpoint-every", "50"])
        assert "--warmup-cycles" in capsys.readouterr().err
