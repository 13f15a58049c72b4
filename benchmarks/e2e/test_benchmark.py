"""Self-tests of the end-to-end benchmark.

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import compare, layers, run, workloads

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def declared():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


# ---------------------------------------------------------------- schema

def test_top_level_keys(declared):
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert declared["paths"] == ["benchmarks/e2e"]
    assert declared["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert declared["run_seconds"] == run.DEFAULT_SECONDS


def test_workloads_match_the_code(declared):
    entries = declared["workloads"]
    assert [w["name"] for w in entries] == list(workloads.WORKLOADS)
    for entry in entries:
        assert set(entry) == {"name", "why"}
        assert "\n" not in entry["why"] and len(entry["why"]) <= 200


def test_metric_names_and_units(declared):
    end_to_end, per_layer = declared["end_to_end"], declared["per_layer"]
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    names = [m["name"] for m in end_to_end + per_layer]
    assert len(names) == len(set(names))
    for metric in end_to_end + per_layer:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    for metric in per_layer:
        assert set(metric) == {"name", "unit", "better"}


def test_end_to_end_metrics_have_bounds(declared):
    bounds = {}
    for metric in declared["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        bounds[metric["name"]] = metric["bound"]
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert bounds["setup_s"] == max(bounds.values())


def test_every_layer_is_reported(declared):
    names = {m["name"] for m in declared["per_layer"]}
    for layer in layers.LAYERS:
        assert {f"{layer}.self_s", f"{layer}.share"} <= names


# ---------------------------------------------------------------- layers

def test_every_repro_module_has_a_layer():
    package = ROOT / "src" / "repro"
    assert list(layers.unmapped_modules(package)) == []
    assert set(layers.MODULE_LAYERS.values()) <= set(layers.LAYERS)


def test_a_new_module_in_a_split_package_has_no_layer():
    assert layers.layer_of_module("kernel.brand_new") is None
    assert layers.layer_of_module("cpu.brand_new") == "cpu"


def test_builtin_self_time_goes_to_its_callers():
    package = ROOT / "src" / "repro"
    kernel = str(package / "kernel" / "event.py")
    fabric = str(package / "interconnect" / "xpipes.py")
    stats = {
        (kernel, 10, "pop"): (1, 1, 2.0, 3.0, {}),
        (fabric, 20, "route"): (1, 1, 1.0, 1.5, {}),
        ("~", 0, "<built-in method _heapq.heappop>"): (
            3, 3, 1.5, 1.5, {(kernel, 10, "pop"): (2, 2, 1.0, 1.0),
                             (fabric, 20, "route"): (1, 1, 0.5, 0.5)}),
        ("/usr/lib/python3/json/encoder.py", 1, "encode"):
            (1, 1, 0.25, 0.25, {}),
    }
    times = layers.LayerMap(package).self_times(stats)
    assert times["kernel"] == 3.0
    assert times["fabric.xpipes"] == 1.5
    assert times["other"] == 0.25
    assert sum(times.values()) == 4.75


# --------------------------------------------------------------- compare

def _records(workload, values, failed=0, metric="pass_s"):
    return [{"workload": workload, "seed": seed, "trace": 0, "correct": True,
             "attempted": 100, "failed": failed,
             "metrics": {metric: {"value": value, "unit": "s"}}}
            for seed, value in enumerate(values, start=1)]


METRIC = [{"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.1}]
STEADY = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]


def _verdicts(parent, change):
    rows = compare.compare({"w": parent}, {"w": change}, METRIC)
    return {row.metric: row.verdict for row in rows}


def test_same_code_is_ok():
    assert _verdicts(_records("w", STEADY),
                     _records("w", STEADY[::-1])) == {"pass_s": "ok",
                                                      "fail_ratio": "ok"}


def test_clear_speedup_is_a_gain():
    faster = [v * 0.8 for v in STEADY]
    assert _verdicts(_records("w", STEADY),
                     _records("w", faster))["pass_s"] == "gain"


def test_slowdown_beyond_the_bound_is_a_regression():
    slower = [v * 1.2 for v in STEADY]
    assert _verdicts(_records("w", STEADY),
                     _records("w", slower))["pass_s"] == "regression"


def test_small_slowdown_within_the_bound_is_ok():
    slower = [v * 1.05 for v in STEADY]
    assert _verdicts(_records("w", STEADY),
                     _records("w", slower))["pass_s"] == "ok"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [1.0, 1.4, 0.7, 1.2, 0.8, 1.3, 0.75, 1.1, 0.9, 1.35]
    assert _verdicts(_records("w", noisy),
                     _records("w", noisy[::-1]))["pass_s"] == "unresolved"


def test_noisy_but_every_change_run_better_is_not_unresolved():
    # every change run beats every parent run, but the medians differ by
    # less than the parent's interquartile range: no gain, yet resolved
    noisy = [1.0, 1.4, 1.05, 1.35, 1.1, 1.3, 1.15, 1.25, 1.2, 1.2]
    faster = [0.999, 0.995, 0.99, 0.985, 0.99, 0.995, 0.999, 0.985, 0.99,
              0.99]
    assert _verdicts(_records("w", noisy),
                     _records("w", faster))["pass_s"] == "ok"


def test_too_few_pairs_gives_no_verdict():
    assert _verdicts(_records("w", STEADY[:9]),
                     _records("w", STEADY[:9]))["pass_s"] == "too-few-pairs"


def test_any_failure_increase_is_a_regression_and_voids_gains():
    faster = [v * 0.8 for v in STEADY]
    verdicts = _verdicts(_records("w", STEADY),
                         _records("w", faster, failed=1))
    assert verdicts["fail_ratio"] == "regression"
    assert verdicts["pass_s"] == "ok"


def test_higher_is_better_metrics_flip_direction():
    metric = [{"name": "rate", "unit": "1/s", "better": "higher",
               "bound": 0.1}]
    parent = _records("w", STEADY, metric="rate")
    change = _records("w", [v * 0.8 for v in STEADY], metric="rate")
    rows = compare.compare({"w": parent}, {"w": change}, metric)
    assert rows[0].verdict == "regression"


def test_compare_cli_exit_code(tmp_path):
    parent, change = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"
    for path, values in ((parent, STEADY), (change, STEADY)):
        with open(path, "w") as handle:
            for record in _records("table2_contention", values):
                for metric in ("sim_kcycles_per_s", "peak_rss_mb",
                               "setup_s"):
                    record["metrics"][metric] = {"value": 1.0, "unit": "x"}
                handle.write(json.dumps(record) + "\n")
    assert compare.main([str(parent), str(change)]) == 0


# ----------------------------------------------------------- the program

def _run(args, cwd):
    return subprocess.run([sys.executable, "benchmarks/e2e/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_a_short_run_reports_every_declared_metric(declared, tmp_path,
                                                   trace):
    proc = _run(["--workload", "synthetic_mesh", "--seed", "1",
                 "--seconds", "0", "--trace", trace,
                 "--out", str(tmp_path)], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in declared[kind]]
    if trace == "1":
        spans = json.loads(
            (tmp_path / "synthetic_mesh-seed1.trace.json").read_text())
        assert {e["name"] for e in spans["traceEvents"]} >= {
            "pass", "generate", "tg_replay", "tg_build", "tg_sim"}
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "e2e",
                    tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "table2_contention", "--seed", "1",
                 "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
