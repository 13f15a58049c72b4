"""Synthetic-traffic sweeps: axes, parity, determinism, CSV quoting."""

import pytest

from repro.core.modes import ReplayMode
from repro.harness import SweepSpec, run_sweep_parallel
from repro.harness.parallel import expand_grid
from repro.harness.sweep import resolve_traffic, sweep_csv, sweep_table

pytestmark = pytest.mark.sweep


def synthetic_spec(**overrides):
    data = {
        "benchmark": "synthetic",
        "cores": [4],
        "interconnects": ["tlm"],
        "modes": ["reactive"],
        "traffic": {"transactions": 20, "seed": 5},
        "loads": [0.2, 0.8],
        "patterns": ["uniform"],
    }
    data.update(overrides)
    return SweepSpec.from_dict(data)


class TestSpecValidation:
    def test_classic_benchmark_rejects_traffic_axes(self):
        for extra in ({"traffic": {"transactions": 5}},
                      {"loads": [0.5]}, {"patterns": ["uniform"]}):
            data = {"benchmark": "cacheloop", "cores": [1]}
            data.update(extra)
            with pytest.raises(ValueError):
                SweepSpec.from_dict(data)

    def test_synthetic_requires_traffic(self):
        with pytest.raises(ValueError):
            SweepSpec.from_dict({"benchmark": "synthetic", "cores": [4]})

    def test_invalid_load_axis_rejected(self):
        with pytest.raises(ValueError):
            synthetic_spec(loads=[0.5, 1.5])
        with pytest.raises(ValueError):
            synthetic_spec(loads=[0.0])

    def test_unknown_pattern_axis_rejected(self):
        with pytest.raises(ValueError):
            synthetic_spec(patterns=["tornado"])

    def test_bad_combo_rejected_up_front(self):
        # transpose is invalid for 8 cores; the spec must fail at
        # construction, not at point 37 of an overnight sweep
        with pytest.raises(ValueError):
            synthetic_spec(cores=[8], patterns=["transpose"])

    def test_points_multiplies_axes(self):
        spec = synthetic_spec(loads=[0.1, 0.5, 0.9],
                              patterns=["uniform", "neighbor"])
        assert spec.points == 6

    def test_round_trips_through_dict(self):
        spec = synthetic_spec()
        again = SweepSpec.from_dict(spec.to_dict())
        assert again.to_dict() == spec.to_dict()
        assert again.loads == spec.loads
        assert again.patterns == spec.patterns

    def test_classic_to_dict_has_no_traffic_keys(self):
        spec = SweepSpec.from_dict({"benchmark": "cacheloop",
                                    "cores": [1]})
        data = spec.to_dict()
        assert "traffic" not in data
        assert "loads" not in data
        assert "patterns" not in data


class TestGridExpansion:
    def test_grid_matches_serial_order(self):
        spec = synthetic_spec(loads=[0.2, 0.8],
                              patterns=["uniform", "neighbor"])
        points = expand_grid(spec)
        assert [(p.traffic["pattern"], p.traffic["load"])
                for p in points] == [
            ("uniform", 0.2), ("uniform", 0.8),
            ("neighbor", 0.2), ("neighbor", 0.8)]
        assert [p.index for p in points] == [0, 1, 2, 3]

    def test_traffic_in_cache_key(self):
        spec = synthetic_spec(loads=[0.2, 0.8])
        keys = {p.cache_key() for p in expand_grid(spec)}
        assert len(keys) == 2      # different loads, different keys

    def test_resolve_traffic_pins_axes(self):
        resolved = resolve_traffic({"transactions": 9}, 4, "reactive",
                                   pattern="neighbor", load=0.3)
        assert resolved == {"transactions": 9, "n_cores": 4,
                            "mode": "reactive", "pattern": "neighbor",
                            "load": 0.3}


class TestExecution:
    def test_serial_parallel_parity(self):
        spec = synthetic_spec()
        serial = run_sweep_parallel(spec, jobs=1)
        parallel = run_sweep_parallel(spec, jobs=2)
        assert len(serial) == len(parallel) == 2
        for s, p in zip(serial, parallel):
            assert p.status == "ok"
            assert (s.pattern, s.offered_load, s.tg_cycles, s.issued,
                    s.latency_max, s.words) \
                == (p.pattern, p.offered_load, p.tg_cycles, p.issued,
                    p.latency_max, p.words)

    def test_jobs_count_does_not_change_results(self):
        spec = synthetic_spec(loads=[0.3, 0.6, 0.9])
        one = run_sweep_parallel(spec, jobs=1)
        three = run_sweep_parallel(spec, jobs=3)
        assert [(r.tg_cycles, r.latency_avg) for r in one] \
            == [(r.tg_cycles, r.latency_avg) for r in three]

    def test_load_curve_saturates_monotonically(self):
        spec = synthetic_spec(
            traffic={"transactions": 60, "seed": 5,
                     "pattern": "hotspot", "hot_weight": 8.0},
            loads=[0.1, 0.3, 0.5, 0.7, 0.9], patterns=None)
        results = run_sweep_parallel(spec, jobs=1)
        latencies = [r.latency_avg for r in results]
        assert latencies == sorted(latencies)
        # realised load tracks offered load until (and beyond) the knee
        # on this small fabric — it must never exceed it
        for r in results:
            assert r.realised_load <= r.offered_load * 1.05


class TestRenderers:
    def test_synthetic_table_layout(self):
        results = run_sweep_parallel(synthetic_spec(), jobs=1)
        text = sweep_table(results, title="t")
        assert "load" in text and "avg lat" in text
        assert "uniform" in text
        assert "ARM cycles" not in text

    def test_csv_has_synthetic_columns(self):
        results = run_sweep_parallel(synthetic_spec(), jobs=1)
        text = sweep_csv(results)
        header = text.splitlines()[0]
        assert header.endswith(
            "pattern,offered_load,scheduled_load,realised_load,issued,"
            "latency_avg,latency_max,throughput_wpkc")
        assert len(text.splitlines()) == 3


class _Row:
    """Duck-typed sweep row with hostile (comma/quote) field values."""

    def __init__(self):
        self.benchmark = 'cache,loop "v2"'
        self.interconnect = "ahb"
        self.mode = ReplayMode.REACTIVE
        self.n_cores = 2
        self.ref_cycles = 100
        self.tg_cycles = 101
        self.error = 0.01
        self.ref_wall = 1.0
        self.tg_wall = 0.5
        self.gain = 2.0
        self.event_gain = 3.0
        self.status = "ok"
        self.failure = None


class TestCsvQuoting:
    def test_comma_bearing_values_are_quoted(self):
        import csv
        import io

        text = sweep_csv([_Row()])
        rows = list(csv.reader(io.StringIO(text)))
        assert len(rows) == 2
        # the comma inside the benchmark name must not split the row
        assert len(rows[1]) == len(rows[0]) == 12
        assert rows[1][0] == 'cache,loop "v2"'

    def test_plain_rows_unchanged(self):
        row = _Row()
        row.benchmark = "cacheloop"
        line = sweep_csv([row]).splitlines()[1]
        assert line == ("cacheloop,ahb,reactive,2,100,101,0.01,"
                        "1.0,0.5,2.0,3.0,ok")


class TestMixedGridRendering:
    """Regression: grids mixing synthetic and trace-benchmark rows used
    to crash the renderers (the synthetic layout indexed columns that
    classic rows lack, and the CSV emitted ragged rows).  Mixed lists
    must render with one union header and per-kind "-"/empty padding."""

    @pytest.fixture(scope="class")
    def mixed_results(self):
        classic = run_sweep_parallel(SweepSpec.from_dict(
            {"benchmark": "cacheloop", "cores": [2],
             "app_params": {"iters": 40}}), jobs=1)
        synthetic = run_sweep_parallel(synthetic_spec(), jobs=1)
        return classic + synthetic

    def test_table_renders_union_layout(self, mixed_results):
        text = sweep_table(mixed_results, title="mixed")
        # union header: classic columns AND synthetic columns coexist
        assert "ARM cycles" in text
        assert "load" in text and "avg lat" in text
        lines = [line for line in text.splitlines() if line.strip()]
        # every data row has the same column count as the header
        header_cols = len(lines[1].split("|"))
        for line in lines[1:]:
            assert len(line.split("|")) == header_cols
        assert "cacheloop" in text and "uniform" in text
        # padding: classic rows have no load column, synthetic no ARM
        assert "-" in text

    def test_csv_rows_are_rectangular(self, mixed_results):
        import csv
        import io

        text = sweep_csv(mixed_results)
        rows = list(csv.reader(io.StringIO(text)))
        width = len(rows[0])
        assert all(len(row) == width for row in rows)
        # synthetic extras present in the header, empty on classic rows
        assert "offered_load" in rows[0]
        load_col = rows[0].index("offered_load")
        classic_row = next(r for r in rows[1:] if r[0] == "cacheloop")
        synthetic_row = next(r for r in rows[1:] if r[0] == "synthetic")
        assert classic_row[load_col] == ""
        assert synthetic_row[load_col] != ""

    def test_pure_grids_unaffected(self, mixed_results):
        classic = [r for r in mixed_results if r.benchmark == "cacheloop"]
        synthetic = [r for r in mixed_results if r.benchmark == "synthetic"]
        classic_text = sweep_table(classic, title="c")
        synthetic_text = sweep_table(synthetic, title="s")
        assert "load" not in classic_text.splitlines()[1]
        assert "ARM cycles" not in synthetic_text


class TestFailedSyntheticRows:
    """Regression: a failed synthetic point lost its pattern and load,
    so the renderers took it for a Table-2 row — one failure switched
    the table to the mixed layout, and an all-failed grid rendered as a
    Table-2 sweep whose rows could not be told apart."""

    def test_one_failure_keeps_the_synthetic_layout(self, monkeypatch):
        import repro.apps.synthetic as synthetic
        real = synthetic.synthetic_flow

        def flaky(spec, *args, **kwargs):
            if spec.load == 0.8:
                raise RuntimeError("fabric melted")
            return real(spec, *args, **kwargs)

        monkeypatch.setattr(synthetic, "synthetic_flow", flaky)
        results = run_sweep_parallel(synthetic_spec(), jobs=1)
        assert [r.status for r in results] == ["ok", "failed"]
        assert (results[1].pattern, results[1].offered_load) \
            == ("uniform", 0.8)
        lines = sweep_table(results).splitlines()
        assert lines[0].split()[:5] == ["pattern", "fabric", "mode",
                                        "#IPs", "load"]
        assert lines[-1].split()[:5] == ["uniform", "tlm", "reactive",
                                         "4P", "0.80"]
        assert "FAILED:simulation-error" in lines[-1]

    def test_all_failed_grid_renders_as_synthetic(self, monkeypatch):
        import csv
        import io

        from repro.harness import parallel as parallel_module
        monkeypatch.setenv(parallel_module._TEST_SLEEP_ENV, "1.0")
        results = run_sweep_parallel(synthetic_spec(loads=[0.3, 0.6]),
                                     jobs=2, point_timeout_s=0.2)
        assert [r.failure.kind for r in results] == ["timeout", "timeout"]
        assert [(r.pattern, r.offered_load) for r in results] \
            == [("uniform", 0.3), ("uniform", 0.6)]
        table = sweep_table(results)
        assert "ARM cycles" not in table and "avg lat" in table
        assert "0.30" in table and "0.60" in table
        rows = list(csv.reader(io.StringIO(sweep_csv(results))))
        assert rows[0][12:14] == ["pattern", "offered_load"]
        assert [row[12:14] for row in rows[1:]] \
            == [["uniform", "0.3"], ["uniform", "0.6"]]
