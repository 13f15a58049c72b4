"""On-disk result cache: keys, hits/misses, invalidation, zero-sim warm
re-runs."""

import hashlib
import json

import pytest

import repro
from repro.harness import (
    ResultCache,
    SweepSpec,
    default_cache_dir,
    point_cache_key,
    run_sweep_parallel,
)
from repro.harness import parallel as parallel_module

pytestmark = pytest.mark.sweep


BASE_KEY_ARGS = dict(benchmark="cacheloop", n_cores=2, interconnect="ahb",
                     mode="reactive", app_params={"iters": 50})


class TestCacheKey:
    def test_stable(self):
        assert point_cache_key(**BASE_KEY_ARGS) == \
            point_cache_key(**BASE_KEY_ARGS)

    @pytest.mark.parametrize("field,value", [
        ("benchmark", "des"),
        ("n_cores", 4),
        ("interconnect", "tlm"),
        ("mode", "cloning"),
        ("app_params", {"iters": 51}),
    ])
    def test_each_field_participates(self, field, value):
        changed = dict(BASE_KEY_ARGS)
        changed[field] = value
        assert point_cache_key(**changed) != point_cache_key(**BASE_KEY_ARGS)

    def test_version_bump_changes_key(self):
        base = point_cache_key(**BASE_KEY_ARGS, version="1.0.0")
        assert point_cache_key(**BASE_KEY_ARGS, version="1.0.1") != base

    def test_fault_spec_and_seed_change_key(self):
        base = point_cache_key(**BASE_KEY_ARGS)
        spec = {"slave_errors": [{"slave": "shared", "nth": 7}]}
        with_faults = point_cache_key(**BASE_KEY_ARGS, fault_spec=spec)
        assert with_faults != base
        assert point_cache_key(**BASE_KEY_ARGS, fault_spec=spec,
                               fault_seed=1) != with_faults

    def test_default_version_is_package_version(self):
        assert point_cache_key(**BASE_KEY_ARGS) == \
            point_cache_key(**BASE_KEY_ARGS, version=repro.__version__)


class TestResultCache:
    def test_miss_returns_none(self, tmp_path):
        assert ResultCache(tmp_path / "cache").get("nope") is None

    def test_put_get_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        provenance = {"benchmark": "des"}
        # an entry is served only under the key its provenance hashes to
        key = hashlib.sha256(json.dumps(
            provenance, sort_keys=True,
            separators=(",", ":")).encode("utf-8")).hexdigest()
        cache.put(key, {"ref_cycles": 10}, provenance=provenance)
        assert cache.get(key) == {"ref_cycles": 10}
        entry = json.loads(cache.path_for(key).read_text())
        assert entry["provenance"] == provenance

    def test_corrupted_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put("k1", {"ref_cycles": 10})
        cache.path_for("k1").write_text("{not json")
        assert cache.get("k1") is None
        cache.path_for("k1").write_text(json.dumps({"result": "not-a-dict"}))
        assert cache.get("k1") is None

    def test_len_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert len(cache) == 0
        cache.put("a", {})
        cache.put("b", {})
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_default_dir_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro" / "sweeps"


def counting_executor(monkeypatch):
    """Stub the point executor with a cheap fake that counts calls."""
    calls = []

    def fake(point, *rest):
        calls.append(point)
        return {"status": "ok", "benchmark": point.benchmark,
                "n_cores": point.n_cores,
                "interconnect": point.interconnect,
                "mode": point.mode, "ref_cycles": 100,
                "tg_cycles": 100, "ref_wall": 0.5, "tg_wall": 0.1,
                "ref_events": 1000, "tg_events": 100}

    monkeypatch.setattr(parallel_module, "_execute_point", fake)
    return calls


class TestSweepCaching:
    def spec(self, **overrides):
        kwargs = dict(benchmark="cacheloop", cores=[1, 2],
                      app_params={"iters": 50})
        kwargs.update(overrides)
        return SweepSpec(**kwargs)

    def test_warm_rerun_performs_zero_simulations(self, tmp_path,
                                                  monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        calls = counting_executor(monkeypatch)
        cold = run_sweep_parallel(self.spec(), jobs=1, cache=cache)
        assert len(calls) == 2
        assert all(not r.cached for r in cold)
        warm = run_sweep_parallel(self.spec(), jobs=1, cache=cache)
        assert len(calls) == 2, "warm run must not simulate"
        assert all(r.cached for r in warm)
        assert [(r.ref_cycles, r.tg_cycles) for r in warm] == \
            [(r.ref_cycles, r.tg_cycles) for r in cold]

    def test_version_bump_invalidates(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        calls = counting_executor(monkeypatch)
        run_sweep_parallel(self.spec(), jobs=1, cache=cache)
        assert len(calls) == 2
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        rerun = run_sweep_parallel(self.spec(), jobs=1, cache=cache)
        assert len(calls) == 4, "new package version must miss"
        assert all(not r.cached for r in rerun)

    def test_fault_spec_change_invalidates(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        calls = counting_executor(monkeypatch)
        run_sweep_parallel(self.spec(), jobs=1, cache=cache)
        assert len(calls) == 2
        faulty = self.spec(fault_spec={
            "slave_errors": [{"slave": "shared", "nth": 7}]})
        rerun = run_sweep_parallel(faulty, jobs=1, cache=cache)
        assert len(calls) == 4, "changed fault spec must miss"
        assert all(not r.cached for r in rerun)
        # same seed + spec again: hit
        run_sweep_parallel(faulty, jobs=1, cache=cache)
        assert len(calls) == 4
        # new seed: miss
        run_sweep_parallel(self.spec(fault_spec={
            "slave_errors": [{"slave": "shared", "nth": 7}]},
            fault_seed=3), jobs=1, cache=cache)
        assert len(calls) == 6

    def test_app_param_change_invalidates(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        calls = counting_executor(monkeypatch)
        run_sweep_parallel(self.spec(), jobs=1, cache=cache)
        run_sweep_parallel(self.spec(app_params={"iters": 51}),
                           jobs=1, cache=cache)
        assert len(calls) == 4

    def test_real_simulation_cold_then_warm(self, tmp_path):
        """End-to-end (no stubs): cached rows reproduce the cycle counts."""
        cache = ResultCache(tmp_path / "cache")
        spec = SweepSpec("cacheloop", [1], app_params={"iters": 40})
        cold = run_sweep_parallel(spec, jobs=1, cache=cache)
        warm = run_sweep_parallel(spec, jobs=1, cache=cache)
        assert warm[0].cached and not cold[0].cached
        assert warm[0].ref_cycles == cold[0].ref_cycles
        assert warm[0].tg_cycles == cold[0].tg_cycles
        assert warm[0].cache_key == cold[0].cache_key
