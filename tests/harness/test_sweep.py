"""Sweep utility and repro-sweep CLI tests."""

import json

import pytest

from repro.cli import sweep_main
from repro.core import ReplayMode
from repro.harness import (
    SweepSpec,
    run_sweep_parallel,
    sweep_csv,
    sweep_table,
)
from repro.harness import parallel as parallel_module


class TestSweepSpec:
    def test_validates_benchmark(self):
        with pytest.raises(ValueError):
            SweepSpec("quake", [2])

    def test_requires_cores(self):
        with pytest.raises(ValueError):
            SweepSpec("cacheloop", [])

    def test_defaults(self):
        spec = SweepSpec("cacheloop", [2])
        assert spec.interconnects == ["ahb"]
        assert spec.modes == [ReplayMode.REACTIVE]
        assert spec.points == 1

    def test_points_product(self):
        spec = SweepSpec("cacheloop", [2, 4],
                         interconnects=["ahb", "tlm"],
                         modes=["reactive", "cloning"])
        assert spec.points == 8

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            SweepSpec.from_dict({"benchmark": "cacheloop", "cores": [2],
                                 "bogus": 1})

    def test_from_dict(self):
        spec = SweepSpec.from_dict({
            "benchmark": "mp_matrix", "cores": [2],
            "interconnects": ["tlm"], "app_params": {"n": 4}})
        assert spec.benchmark == "mp_matrix"
        assert spec.app_params == {"n": 4}

    def test_from_dict_accepts_fault_keys(self):
        spec = SweepSpec.from_dict({
            "benchmark": "cacheloop", "cores": [2],
            "fault_spec": {"slave_errors": [{"slave": "shared", "nth": 7}]},
            "fault_seed": 3})
        assert spec.fault_spec["slave_errors"][0]["slave"] == "shared"
        assert spec.fault_seed == 3

    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError, match="core counts must be >= 1"):
            SweepSpec("cacheloop", [0])

    def test_rejects_negative_cores(self):
        with pytest.raises(ValueError, match="core counts must be >= 1"):
            SweepSpec("cacheloop", [2, -4])

    def test_rejects_non_integer_cores(self):
        with pytest.raises(ValueError, match="core counts must be integers"):
            SweepSpec("cacheloop", ["2"])
        with pytest.raises(ValueError, match="core counts must be integers"):
            SweepSpec("cacheloop", [True])

    def test_duplicate_axis_values_collapse_in_order(self):
        spec = SweepSpec("cacheloop", [4, 2, 4, 2],
                         interconnects=["tlm", "ahb", "tlm"],
                         modes=["cloning", "reactive", "cloning"])
        assert spec.cores == [4, 2]
        assert spec.interconnects == ["tlm", "ahb"]
        assert [m.value for m in spec.modes] == ["cloning", "reactive"]
        assert spec.points == 8

    def test_rejects_bad_fault_seed(self):
        with pytest.raises(ValueError, match="fault_seed"):
            SweepSpec("cacheloop", [2], fault_seed="zero")

    def test_spec_owns_its_app_params(self):
        params = {"n": 4, "nest": [1]}
        spec = SweepSpec("mp_matrix", [2], app_params=params)
        params["nest"].append(2)
        assert spec.app_params == {"n": 4, "nest": [1]}


class TestRunSweep:
    @pytest.fixture(scope="class")
    def results(self):
        spec = SweepSpec("cacheloop", [1, 2],
                         interconnects=["ahb", "tlm"],
                         app_params={"iters": 60})
        return run_sweep_parallel(spec, jobs=1)

    def test_grid_size(self, results):
        assert len(results) == 4

    def test_all_accurate(self, results):
        for result in results:
            assert result.error < 0.01

    def test_grid_order(self, results):
        fabrics = [result.interconnect for result in results]
        assert fabrics == ["ahb", "ahb", "tlm", "tlm"]
        cores = [result.n_cores for result in results]
        assert cores == [1, 2, 1, 2]

    def test_table_render(self, results):
        text = sweep_table(results, title="demo")
        assert "demo" in text
        assert "cacheloop" in text
        assert "1P" in text and "2P" in text

    def test_csv_render(self, results):
        text = sweep_csv(results)
        lines = text.strip().splitlines()
        assert lines[0].startswith("benchmark,")
        assert lines[0].endswith(",status")
        assert len(lines) == 5
        assert all(line.endswith(",ok") for line in lines[1:])


class TestAppParamIsolation:
    def test_mutating_app_cannot_poison_later_points(self, monkeypatch):
        """Regression: every grid point used to receive the *same*
        app_params dict, so nested-value mutations leaked across points."""
        from repro.apps import cacheloop

        seen_lengths = []

        class MutatingApp:
            __name__ = "cacheloop"

            @staticmethod
            def source(core_id, n_cores, iters=60, history=None):
                history.append(core_id)
                seen_lengths.append(len(history))
                return cacheloop.source(core_id, n_cores, iters=iters)

        spec = SweepSpec("cacheloop", [1, 2],
                         app_params={"iters": 40, "history": []})
        monkeypatch.setattr(parallel_module, "_resolve_app",
                            lambda name: MutatingApp)
        results = run_sweep_parallel(spec, jobs=1)
        assert [r.status for r in results] == ["ok", "ok"]
        # with a shared dict the second point would start at length 2
        assert seen_lengths == [1, 1, 2]
        assert spec.app_params["history"] == []


class TestSweepCli:
    def test_end_to_end(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "benchmark": "cacheloop",
            "cores": [2],
            "app_params": {"iters": 50},
        }))
        csv_path = tmp_path / "out.csv"
        assert sweep_main([str(spec_path), "--csv", str(csv_path),
                           "--jobs", "1",
                           "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "Sweep: cacheloop" in out
        assert csv_path.exists()
        assert "cacheloop" in csv_path.read_text()

    @pytest.mark.sweep
    def test_cold_then_warm_cache(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "benchmark": "cacheloop",
            "cores": [1, 2],
            "app_params": {"iters": 40},
        }))
        cache_args = ["--jobs", "1", "--cache-dir", str(tmp_path / "cache")]
        assert sweep_main([str(spec_path)] + cache_args) == 0
        cold_err = capsys.readouterr().err
        assert "2 simulated, 0 cached, 0 failed" in cold_err
        assert sweep_main([str(spec_path)] + cache_args) == 0
        warm_err = capsys.readouterr().err
        assert "0 simulated, 2 cached, 0 failed" in warm_err

    @pytest.mark.sweep
    def test_no_cache_always_simulates(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "benchmark": "cacheloop",
            "cores": [1],
            "app_params": {"iters": 40},
        }))
        for _ in range(2):
            assert sweep_main([str(spec_path), "--jobs", "1",
                               "--no-cache"]) == 0
            assert "1 simulated, 0 cached" in capsys.readouterr().err

    @pytest.mark.sweep
    def test_failed_points_exit_nonzero(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "benchmark": "cacheloop",
            "cores": [1],
            "app_params": {"bogus": 1},
        }))
        assert sweep_main([str(spec_path), "--jobs", "1",
                           "--no-cache"]) == 1
        captured = capsys.readouterr()
        assert "FAILED" in captured.out
        assert "1 failed" in captured.err
        assert "TypeError" in captured.err

    def test_bad_spec(self, tmp_path, capsys):
        # a defective spec is an input error: one stderr line and the
        # parse exit code, never a traceback
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"benchmark": "nope",
                                         "cores": [1]}))
        from repro.artifacts import EXIT_PARSE
        assert sweep_main([str(spec_path)]) == EXIT_PARSE
        assert "unknown benchmark" in capsys.readouterr().err

    def test_unparsable_spec_json(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("{broken")
        from repro.artifacts import EXIT_PARSE
        assert sweep_main([str(spec_path)]) == EXIT_PARSE
