"""Pinned behaviour of the single-run paths and of the sweep renderers.

Every way of running one TG platform — plain, auto-checkpointed,
restored from a checkpoint, fast-forwarded through a warm-up, and the
same warm-up inside a ``jobs=1`` sweep — is driven through the public
CLIs (``repro-experiment``, ``repro-traffic --simulate``) and compared
against literal goldens.  Wall-clock keys are masked; everything else
is deterministic.  The renderer goldens pin ``sweep_table`` and
``sweep_csv`` byte for byte on fixed rows.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from repro.apps.synthetic import TrafficSpec, synthetic_programs
from repro.cli import experiment_main, traffic_main
from repro.harness import (
    PointResult,
    RunOptions,
    SweepPoint,
    SweepSpec,
    comparable_summary,
    load_snapshot,
    restore_platform,
    run_sweep_parallel,
    run_tg,
    sweep_csv,
    sweep_table,
)

#: Output keys that carry wall-clock measurements.
WALL_KEYS = ("ref_wall_s", "tg_wall_s", "gain", "tg_wall")

TRAFFIC = {"pattern": "hotspot", "seed": 7, "transactions": 20}

#: name -> (main, argv, checkpoint cadence, warm-up cycles)
CASES = {
    "cacheloop": (experiment_main,
                  ["cacheloop", "-n", "2", "--param", "iters=40"],
                  400, 500),
    "mp_matrix": (experiment_main,
                  ["mp_matrix", "-n", "2", "--param", "n=4"], 300, 500),
    "traffic": (traffic_main,
                ["--cores", "4", "--pattern", "hotspot", "--seed", "7",
                 "--transactions", "20", "--simulate", "xpipes"],
                200, 200),
}

PLAIN = {
    "cacheloop": {
        "benchmark": "cacheloop", "n_cores": 2, "interconnect": "ahb",
        "mode": "reactive", "ref_cycles": 798, "tg_cycles": 798,
        "error": 0.0, "event_gain": 11.2},
    "mp_matrix": {
        "benchmark": "mp_matrix", "n_cores": 2, "interconnect": "ahb",
        "mode": "reactive", "ref_cycles": 3531, "tg_cycles": 3525,
        "error": 0.0016992353440951572,
        "event_gain": 1.6089566020313943},
    "traffic": {
        "benchmark": "synthetic", "interconnect": "xpipes", "issued": 80,
        "latency_avg": 15.225, "latency_max": 35, "mode": "reactive",
        "n_cores": 4, "offered_load": 0.5, "pattern": "hotspot",
        "realised_load": 0.5, "scheduled_load": 0.5, "tg_cycles": 1698,
        "tg_events": 4060, "throughput_wpkc": 181.40589569160997,
        "words": 320},
}

WARM = {
    "cacheloop": {
        "benchmark": "cacheloop", "n_cores": 2, "interconnect": "ahb",
        "mode": "reactive", "ref_cycles": 798, "tg_cycles": 792,
        "error": 0.007518796992481203, "event_gain": 15.68,
        "warmup_cycle": 500, "warmup_fabric": "tlm"},
    "mp_matrix": {
        "benchmark": "mp_matrix", "n_cores": 2, "interconnect": "ahb",
        "mode": "reactive", "ref_cycles": 3531, "tg_cycles": 3529,
        "error": 0.0005664117813650524,
        "event_gain": 1.7565524193548387, "warmup_cycle": 503,
        "warmup_fabric": "tlm"},
    "traffic": {
        "benchmark": "synthetic", "interconnect": "xpipes", "issued": 80,
        "latency_avg": 6.25, "latency_max": 20, "mode": "reactive",
        "n_cores": 4, "offered_load": 0.5, "pattern": "hotspot",
        "realised_load": 0.5, "scheduled_load": 0.5, "tg_cycles": 980,
        "tg_events": 543, "throughput_wpkc": 296.2962962962963,
        "warmup_cycle": 248, "warmup_fabric": "tlm", "words": 320},
}


def run_json(main, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return json.loads(out.getvalue())


def masked(payload):
    return {key: value for key, value in payload.items()
            if key not in WALL_KEYS}


def checkpointed(name, directory):
    main, argv, every, _ = CASES[name]
    return run_json(main, argv + [
        "--json", "--checkpoint-every", str(every),
        "--checkpoint-dir", str(directory)])


@pytest.mark.parametrize("name", sorted(CASES))
class TestSingleRun:
    def test_plain_matches_golden(self, name):
        main, argv, _, _ = CASES[name]
        assert masked(run_json(main, argv + ["--json"])) == PLAIN[name]

    def test_checkpointed_run_gives_plain_numbers(self, name, tmp_path):
        payload = checkpointed(name, tmp_path)
        assert "tg_summary" in payload
        payload.pop("tg_summary")
        assert masked(payload) == PLAIN[name]
        assert sorted(tmp_path.glob("*.snap"))

    def test_restore_reaches_the_same_end_state(self, name, tmp_path):
        main = CASES[name][0]
        end = checkpointed(name, tmp_path)["tg_summary"]
        newest = sorted(Path(tmp_path).glob("*.snap"))[-1]
        restored = run_json(main, ["--restore", str(newest)])
        assert restored["restored_from"] == str(newest)
        assert comparable_summary(restored["tg_summary"]) \
            == comparable_summary(end)

    def test_warmup_matches_golden(self, name):
        main, argv, _, warmup = CASES[name]
        payload = run_json(main, argv + [
            "--json", "--warmup-cycles", str(warmup)])
        assert masked(payload) == WARM[name]

    def test_sweep_warmup_row_matches(self, name):
        _, _, _, warmup = CASES[name]
        golden = WARM[name]
        if name == "traffic":
            spec = SweepSpec("synthetic", [4], interconnects=["xpipes"],
                             traffic=dict(TRAFFIC), warmup_cycles=warmup)
            fields = ("pattern", "offered_load", "scheduled_load",
                      "realised_load", "tg_cycles", "tg_events",
                      "issued", "words", "latency_avg", "latency_max",
                      "throughput_wpkc")
        else:
            params = {"cacheloop": {"iters": 40}, "mp_matrix": {"n": 4}}
            spec = SweepSpec(name, [2], app_params=params[name],
                             warmup_cycles=warmup)
            fields = ("ref_cycles", "tg_cycles", "error", "event_gain")
        [row] = run_sweep_parallel(spec, jobs=1)
        # a classic-benchmark point is its own warm-up class and runs its
        # warm-up itself; a synthetic one restores its class's snapshot
        source = "warmup-restored" if name == "traffic" else "simulated"
        assert row.status == "ok" and row.source == source
        assert {field: getattr(row, field) for field in fields} \
            == {field: golden[field] for field in fields}


class TestOneFormattingPerProgram:
    """A run formats each program's ``.tgp`` text at most once: every
    platform built from a recipe hands its TGs the recipe's text, which
    is also what each snapshot's ``program_crc32`` is taken from."""

    SPEC = TrafficSpec.from_dict({"n_cores": 4, "transactions": 30,
                                  "pattern": "uniform", "load": 0.4,
                                  "seed": 3})

    @staticmethod
    def formatted(build_calls):
        return sum(n for (name, _), n in build_calls().items()
                   if name == "to_tgp")

    def test_checkpointed_run_and_its_restore(self, build_calls, tmp_path):
        programs = synthetic_programs(self.SPEC)[0]
        plain = run_tg(programs, 4, "tlm")[0]
        assert self.formatted(build_calls) == 0
        directory = tmp_path / "ckpt"
        platform = run_tg(programs, 4, "tlm", options=RunOptions(
            checkpoint_every=10, checkpoint_dir=directory,
            checkpoint_keep=100))[0]
        snaps = sorted(directory.glob("*.snap"))
        assert len(snaps) >= 10
        assert self.formatted(build_calls) == 4
        end = comparable_summary(plain.stats_summary())
        assert comparable_summary(platform.stats_summary()) == end
        restored = restore_platform(load_snapshot(snaps[len(snaps) // 2]))
        restored.run()
        assert comparable_summary(restored.stats_summary()) == end
        assert self.formatted(build_calls) == 4

    def test_cold_warmup_run(self, build_calls):
        programs = synthetic_programs(self.SPEC)[0]
        _, _, payload = run_tg(programs, 4, "ahb", options=RunOptions(
            warmup_cycles=150))
        assert payload["platform"]["interconnect"] == "tlm"
        assert self.formatted(build_calls) == 4


# ------------------------------------------------------ renderer goldens

CLASSIC_OK = {"status": "ok", "ref_cycles": 3531, "tg_cycles": 3525,
              "ref_wall": 0.5, "tg_wall": 0.125, "ref_events": 3370,
              "tg_events": 2095}
FAILED = {"status": "failed",
          "traceback": "Traceback (most recent call last):\n"
                       "TypeError: boom"}


def classic_rows():
    ok = PointResult.from_summary(SweepPoint(
        0, "mp_matrix", 2, "ahb", "reactive", app_params={"n": 4}),
        CLASSIC_OK)
    failed = PointResult.from_summary(SweepPoint(
        1, "mp_matrix", 4, "xpipes", "cloning", app_params={"n": 4}),
        FAILED)
    return [ok, failed]


def _traffic(pattern, load):
    return {"n_cores": 4, "mode": "reactive", "pattern": pattern,
            "load": load, "transactions": 20, "seed": 7}


def synthetic_rows():
    ok = PointResult.from_summary(SweepPoint(
        0, "synthetic", 4, "xpipes", "reactive",
        traffic=_traffic("hotspot", 0.5)), {
        "status": "ok", "pattern": "hotspot", "offered_load": 0.5,
        "scheduled_load": 0.5, "realised_load": 0.4875,
        "tg_cycles": 1698, "tg_wall": 0.25, "tg_events": 4060,
        "issued": 80, "words": 320, "latency_avg": 15.225,
        "latency_max": 35, "throughput_wpkc": 181.40589569160997})
    point = SweepPoint(1, "synthetic", 4, "tlm", "reactive",
                       traffic=_traffic("uniform", 0.25))
    failed = PointResult.from_summary(point, FAILED)
    # a failed synthetic row is named by its point's pattern and load
    failed.pattern = point.traffic["pattern"]
    failed.offered_load = point.traffic["load"]
    return [ok, failed]


TABLES = {
    "classic": (
        "Sweep: classic\n"
        "==============\n"
        "benchmark  fabric  mode      #IPs  ARM cycles  TG cycles  "
        "error                    gain   event gain\n"
        + "-" * 100 + "\n"
        "mp_matrix  ahb     reactive  2P    3531        3525       "
        "0.17%                    4.00x  1.61x\n"
        "mp_matrix  xpipes  cloning   4P    -           -          "
        "FAILED:simulation-error  -      -"),
    "synthetic": (
        "Sweep: synthetic\n"
        "================\n"
        "pattern  fabric  mode      #IPs  load  TG cycles  issued  "
        "avg lat                  max lat  words/kcyc\n"
        + "-" * 102 + "\n"
        "hotspot  xpipes  reactive  4P    0.50  1698       80      "
        "15.2                     35       181.4\n"
        "uniform  tlm     reactive  4P    0.25  -          -       "
        "FAILED:simulation-error  -        -"),
    "mixed": (
        "Sweep: mixed\n"
        "============\n"
        "benchmark  fabric  mode      #IPs  ARM cycles  TG cycles  "
        "error                    gain   load  issued  avg lat  "
        "words/kcyc\n"
        + "-" * 123 + "\n"
        "mp_matrix  ahb     reactive  2P    3531        3525       "
        "0.17%                    4.00x  -     -       -        -\n"
        "mp_matrix  xpipes  cloning   4P    -           -          "
        "FAILED:simulation-error  -      -     -       -        -\n"
        "hotspot    xpipes  reactive  4P    -           1698       "
        "-                        -      0.50  80      15.2     181.4\n"
        "uniform    tlm     reactive  4P    -           -          "
        "FAILED:simulation-error  -      -     -       -        -"),
}

_CLASSIC_CSV_HEADER = ("benchmark,interconnect,mode,n_cores,ref_cycles,"
                       "tg_cycles,error,ref_wall,tg_wall,gain,event_gain,"
                       "status")
_SYNTHETIC_CSV_HEADER = _CLASSIC_CSV_HEADER + (
    ",pattern,offered_load,scheduled_load,realised_load,issued,"
    "latency_avg,latency_max,throughput_wpkc")
_CLASSIC_OK = ("mp_matrix,ahb,reactive,2,3531,3525,0.0016992353440951572,"
               "0.5,0.125,4.0,1.6085918854415275,ok")
_CLASSIC_FAILED = ("mp_matrix,xpipes,cloning,4,0,0,0.0,0.0,0.0,0.0,0.0,"
                   "failed:simulation-error")
_SYNTHETIC_OK = ("synthetic,xpipes,reactive,4,0,1698,0.0,0.0,0.25,0.0,0.0,"
                 "ok,hotspot,0.5,0.5,0.4875,80,15.225,35,"
                 "181.40589569160997")
_SYNTHETIC_FAILED = ("synthetic,tlm,reactive,4,0,0,0.0,0.0,0.0,0.0,0.0,"
                     "failed:simulation-error,uniform,0.25,,,,,,")

CSVS = {
    "classic": "\n".join([_CLASSIC_CSV_HEADER, _CLASSIC_OK,
                          _CLASSIC_FAILED]) + "\n",
    "synthetic": "\n".join([_SYNTHETIC_CSV_HEADER, _SYNTHETIC_OK,
                            _SYNTHETIC_FAILED]) + "\n",
    "mixed": "\n".join([_SYNTHETIC_CSV_HEADER, _CLASSIC_OK + ",,,,,,,,",
                        _CLASSIC_FAILED + ",,,,,,,,", _SYNTHETIC_OK,
                        _SYNTHETIC_FAILED]) + "\n",
}

ROWS = {
    "classic": classic_rows,
    "synthetic": synthetic_rows,
    "mixed": lambda: classic_rows() + synthetic_rows(),
}


@pytest.mark.sweep
@pytest.mark.parametrize("layout", sorted(ROWS))
class TestRendererGoldens:
    def test_table_bytes(self, layout):
        assert sweep_table(ROWS[layout](), title=f"Sweep: {layout}") \
            == TABLES[layout]

    def test_csv_bytes(self, layout):
        assert sweep_csv(ROWS[layout]()) == CSVS[layout]
