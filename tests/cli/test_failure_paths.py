"""CLI failure-path contract: distinct exit codes, one-line messages,
no tracebacks, machine-readable --diagnostics-json (docs/ARTIFACTS.md)."""

import contextlib
import copy
import io
import json

import pytest

from repro.artifacts import (
    EXIT_CHECKSUM,
    EXIT_MISSING_FILE,
    EXIT_PARSE,
    EXIT_SNAPSHOT,
    EXIT_TRUNCATED,
    EXIT_VERSION,
    dump_bin,
    load_snap,
    save_snap,
    save_tgp,
    save_trc,
)
from repro.cli import (
    experiment_main,
    sweep_main,
    tgasm_main,
    tgdump_main,
    trace_stats_main,
    traceset_main,
    traffic_main,
    trc2tgp_main,
)
from repro.trace import Translator, TranslatorOptions
from repro.trace.trc_format import parse_trc

pytestmark = [
    pytest.mark.artifacts,
    # several fixtures are deliberately headerless legacy artifacts
    pytest.mark.filterwarnings("ignore::DeprecationWarning"),
]

TRACE = """\
; master 0
REQ RD 0x00000104 @55ns
ACC RD 0x00000104 @60ns
RESP RD 0x00000104 0x088000f0 @75ns
REQ WR 0x00000020 0x00000111 @90ns
ACC WR 0x00000020 @95ns
"""


@pytest.fixture()
def artifacts(tmp_path):
    """A consistent trio of valid artifacts in tmp_path."""
    _, events = parse_trc(TRACE)
    program = Translator(TranslatorOptions()).translate_events(events, 0)
    trc = tmp_path / "a.trc"
    tgp = tmp_path / "a.tgp"
    image = tmp_path / "a.bin"
    save_trc(trc, events)
    save_tgp(tgp, program)
    image.write_bytes(dump_bin(program))
    return trc, tgp, image


def _assert_one_line_error(capsys, tool):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if line]
    assert len(lines) == 1
    assert lines[0].startswith(f"{tool}: error: ")
    return lines[0]


# ------------------------------------------------------------ exit codes

class TestMissingFile:
    @pytest.mark.parametrize("main,args,tool", [
        (trc2tgp_main, ["nope.trc"], "repro-trc2tgp"),
        (tgasm_main, ["nope.tgp", "-o", "x.bin"], "repro-tgasm"),
        (tgdump_main, ["nope.bin"], "repro-tgdump"),
        (trace_stats_main, ["nope.trc"], "repro-trace-stats"),
        (traceset_main, ["info", "nope-dir"], "repro-traceset"),
    ])
    def test_exit_3(self, main, args, tool, capsys, tmp_path,
                    monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(args) == EXIT_MISSING_FILE
        _assert_one_line_error(capsys, tool)


class TestParseError:
    def test_trc_exit_4(self, tmp_path, capsys):
        bad = tmp_path / "bad.trc"
        bad.write_text("REQ banana @zzns\n")
        assert trc2tgp_main([str(bad)]) == EXIT_PARSE
        line = _assert_one_line_error(capsys, "repro-trc2tgp")
        assert "hint:" in line

    def test_tgp_exit_4(self, tmp_path, capsys):
        bad = tmp_path / "bad.tgp"
        bad.write_text("MASTER[0,0]\nBEGIN\nFrobnicate r9\nEND\n")
        assert tgasm_main([str(bad), "-o", str(tmp_path / "x.bin")]) \
            == EXIT_PARSE
        _assert_one_line_error(capsys, "repro-tgasm")

    def test_bin_exit_4(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\x7fELF" + b"\0" * 60)
        assert tgdump_main([str(bad)]) == EXIT_PARSE
        _assert_one_line_error(capsys, "repro-tgdump")


class TestIntegrityErrors:
    def test_checksum_exit_5(self, artifacts, capsys):
        trc, _, _ = artifacts
        trc.write_text(trc.read_text().replace("0x00000104",
                                               "0x00000105"))
        assert trace_stats_main([str(trc)]) == EXIT_CHECKSUM
        _assert_one_line_error(capsys, "repro-trace-stats")

    def test_version_exit_6(self, artifacts, capsys):
        _, tgp, _ = artifacts
        tgp.write_text(tgp.read_text().replace("tgp v1", "tgp v42", 1))
        assert tgasm_main([str(tgp), "-o", "x.bin"]) == EXIT_VERSION
        _assert_one_line_error(capsys, "repro-tgasm")

    def test_truncated_exit_7(self, artifacts, capsys):
        _, _, image = artifacts
        image.write_bytes(image.read_bytes()[:40])
        assert tgdump_main([str(image)]) == EXIT_TRUNCATED
        _assert_one_line_error(capsys, "repro-tgdump")


def _rekey(*keys):
    def edit(recipe):
        recipe["programs"] = dict(zip(keys, recipe["programs"].values()))
    return edit


#: One edit of a checkpoint's embedded recipe per case; each used to end
#: in a traceback from the platform build.
MALFORMED_RECIPES = {
    "program keys 0 and 5": _rekey("0", "5"),
    "program key x": _rekey("0", "x"),
    "n_cores 3 with two programs": lambda recipe: recipe.update(n_cores=3),
    "n_cores two": lambda recipe: recipe.update(n_cores="two"),
    "n_cores 0": lambda recipe: recipe.update(n_cores=0),
    "unknown interconnect":
        lambda recipe: recipe.update(interconnect="bogus"),
    "retry_policy max_attempts x":
        lambda recipe: recipe.update(retry_policy={"max_attempts": "x"}),
    "retry_policy list": lambda recipe: recipe.update(retry_policy=[4, 2]),
    "config_overrides unknown key":
        lambda recipe: recipe.update(config_overrides={"bogus": 1}),
    "config_overrides list":
        lambda recipe: recipe.update(config_overrides=[1, 2]),
    "watchdog_cycles -1": lambda recipe: recipe.update(watchdog_cycles=-1),
}


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """The newest checkpoint of a small 2-core run, as a payload."""
    directory = tmp_path_factory.mktemp("ckpt")
    with contextlib.redirect_stdout(io.StringIO()):
        assert experiment_main([
            "cacheloop", "-n", "2", "--param", "iters=40",
            "--checkpoint-every", "300",
            "--checkpoint-dir", str(directory)]) == 0
    return load_snap(sorted(directory.glob("*.snap"))[-1]).value


class TestMalformedRestoreRecipe:
    """A recipe edited and re-dumped so its header verifies is still
    read from outside the program: ``--restore`` refuses it with exit 9
    and one line, never a traceback."""

    @pytest.mark.parametrize("edit", list(MALFORMED_RECIPES))
    def test_exit_9(self, edit, checkpoint, tmp_path, capsys):
        payload = copy.deepcopy(checkpoint)
        MALFORMED_RECIPES[edit](payload["platform"])
        path = tmp_path / "edited.snap"
        save_snap(path, payload)
        assert experiment_main(["--restore", str(path)]) == EXIT_SNAPSHOT
        _assert_one_line_error(capsys, "repro-experiment")


# ------------------------------------------------------ diagnostics JSON

class TestDiagnosticsJson:
    def test_failure_report(self, tmp_path, capsys):
        bad = tmp_path / "bad.trc"
        bad.write_text("garbage\n")
        out = tmp_path / "diag.json"
        assert trc2tgp_main([str(bad), "--diagnostics-json",
                             str(out)]) == EXIT_PARSE
        payload = json.loads(out.read_text())
        assert payload["ok"] is False
        assert payload["tool"] == "repro-trc2tgp"
        error = payload["error"]
        assert error["exit_code"] == EXIT_PARSE
        assert error["line"] == 1
        assert error["hint"]

    def test_success_report_to_stdout(self, artifacts, capsys):
        trc, _, _ = artifacts
        assert trace_stats_main([str(trc), "--json",
                                 "--diagnostics-json", "-"]) == 0
        out = capsys.readouterr().out
        # the report is the last thing the tool writes: the stats come
        # first, the diagnostics second
        decoder = json.JSONDecoder()
        stats, end = decoder.raw_decode(out)
        assert stats["master"] == 0
        payload, _ = decoder.raw_decode(out[end:].lstrip())
        assert payload == {"ok": True, "skipped": 0, "diagnostics": [],
                           "tool": "repro-trace-stats"}

    @pytest.mark.parametrize("program", ["missing", "valid"])
    def test_unwritable_report_path_exit_3(self, program, artifacts,
                                           tmp_path, capsys):
        _, tgp, _ = artifacts
        source = str(tgp) if program == "valid" else "nope.tgp"
        report = tmp_path / "missing" / "d.json"
        assert tgasm_main([source, "-o", str(tmp_path / "x.bin"),
                           "--diagnostics-json", str(report)]) \
            == EXIT_MISSING_FILE
        line = _assert_one_line_error(capsys, "repro-tgasm")
        assert line.startswith(
            f"repro-tgasm: error: --diagnostics-json {report}: ")
        assert not (tmp_path / "x.bin").exists()    # checked before the run

    def test_tgdump_stats_writes_its_report(self, artifacts, tmp_path,
                                            capsys):
        _, _, image = artifacts
        report = tmp_path / "d.json"
        assert tgdump_main([str(image), "--stats",
                            "--diagnostics-json", str(report)]) == 0
        assert json.loads(report.read_text()) == {"ok": True,
                                                  "tool": "repro-tgdump"}

    @pytest.mark.parametrize("text", ["{not json", '{"bogus": 1}'],
                             ids=["invalid-json", "unknown-key"])
    def test_bad_fault_spec_exit_4(self, text, tmp_path, capsys):
        faults = tmp_path / "faults.json"
        faults.write_text(text)
        report = tmp_path / "d.json"
        assert experiment_main(["cacheloop", "-n", "1", "--param",
                                "iters=5", "--fault-spec", str(faults),
                                "--diagnostics-json", str(report)]) \
            == EXIT_PARSE
        line = _assert_one_line_error(capsys, "repro-experiment")
        assert line.startswith(f"repro-experiment: error: {faults}: ")
        payload = json.loads(report.read_text())
        assert payload["ok"] is False
        assert payload["error"]["type"] == "FaultSpecError"
        assert payload["error"]["exit_code"] == EXIT_PARSE

    def test_permissive_lists_skips(self, tmp_path, capsys):
        mixed = tmp_path / "mixed.trc"
        mixed.write_text(TRACE + "not a record\n")
        out = tmp_path / "diag.json"
        assert trc2tgp_main([str(mixed), "--permissive",
                             "--diagnostics-json", str(out)]) == 0
        err = capsys.readouterr().err
        assert "skipped 1 bad record" in err
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        assert payload["skipped"] == 1
        assert payload["diagnostics"][0]["text"] == "not a record"

    def test_strict_fails_where_permissive_recovers(self, tmp_path):
        mixed = tmp_path / "mixed.trc"
        mixed.write_text(TRACE + "not a record\n")
        assert trc2tgp_main([str(mixed)]) == EXIT_PARSE
        assert trc2tgp_main([str(mixed), "--permissive"]) == 0


# ------------------------------------------------------------- sweep CLI

class TestSweepCacheVerify:
    def test_clean_cache_exit_0(self, tmp_path, capsys):
        from repro.harness import ResultCache
        cache = ResultCache(tmp_path / "cache")
        cache.put("k" * 64, {"cycles": 1})
        assert sweep_main(["--cache-verify", "--cache-dir",
                           str(tmp_path / "cache")]) == 0
        assert "1 ok, 0 corrupt, 0 stale" in capsys.readouterr().err

    def test_corrupt_entry_exit_1(self, tmp_path, capsys):
        from repro.harness import ResultCache
        cache = ResultCache(tmp_path / "cache")
        cache.put("k" * 64, {"cycles": 1})
        entry = cache.path_for("k" * 64)
        entry.write_text(entry.read_text().replace('"cycles": 1',
                                                   '"cycles": 2'))
        assert sweep_main(["--cache-verify", "--cache-dir",
                           str(tmp_path / "cache")]) == 1
        err = capsys.readouterr().err
        assert "corrupt" in err
        assert "Traceback" not in err

    def test_ok_count_covers_snapshots(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / ("d" * 64 + ".snap")).write_text("not a snapshot\n")
        assert sweep_main(["--cache-verify", "--cache-dir",
                           str(cache_dir)]) == 1
        assert "0 ok, 1 corrupt, 0 stale" in capsys.readouterr().err

    def test_spec_required_without_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            sweep_main([])
        assert excinfo.value.code == 2  # argparse usage error

    def test_missing_spec_file_exit_3(self, capsys):
        assert sweep_main(["nope.json"]) == EXIT_MISSING_FILE
        _assert_one_line_error(capsys, "repro-sweep")

    @pytest.mark.parametrize("flag,extra", [
        ("--cache-dir", []),
        ("--journal", ["--no-cache"]),
    ])
    def test_unusable_directory_exit_3(self, flag, extra, tmp_path,
                                       capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "benchmark": "cacheloop", "cores": [1],
            "interconnects": ["ahb"], "app_params": {"iters": 10}}))
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file, not a directory\n")
        code = sweep_main([str(spec), "-j", "1", *extra,
                           flag, str(blocker / "dir")])
        assert code == EXIT_MISSING_FILE
        line = _assert_one_line_error(capsys, "repro-sweep")
        assert line.startswith(f"repro-sweep: error: {flag} ")
        assert " done " not in line


#: A valid one-point sweep spec; the failure cases below edit it.
SWEEP_SPEC = {"benchmark": "cacheloop", "cores": [1],
              "interconnects": ["ahb"], "app_params": {"iters": 10}}

#: name -> (malformed spec, text the error line must contain)
MALFORMED_SWEEP_SPECS = {
    "no-benchmark": ({"cores": [1]}, "'benchmark'"),
    "no-cores": ({"benchmark": "cacheloop"}, "'cores'"),
    "scalar-cores": (dict(SWEEP_SPEC, cores=3), "cores"),
    "list-app-params": (dict(SWEEP_SPEC, app_params=[1]), "app_params"),
    "string-interconnects": (dict(SWEEP_SPEC, interconnects="tlm"),
                             "interconnects"),
    "unknown-interconnect": (dict(SWEEP_SPEC, interconnects=["nope"]),
                             "'nope'"),
    "string-fault-spec": (dict(SWEEP_SPEC, fault_spec="faults.json"),
                          "fault_spec"),
    "scalar-loads": ({"benchmark": "synthetic", "cores": [2],
                      "traffic": {}, "loads": 0.5}, "loads"),
    "not-an-object": ([SWEEP_SPEC], "JSON object"),
}


class TestSweepFailureReports:
    """Every repro-sweep failure is one ``repro-sweep: error:`` line and
    a ``--diagnostics-json`` report with ``ok: false`` and its exit
    code, like the other tools."""

    @staticmethod
    def sweep(tmp_path, spec, *argv):
        """Run repro-sweep on ``spec`` (a path, or data to write to one);
        returns the exit code and the diagnostics report."""
        if not isinstance(spec, str):
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(spec))
            spec = str(path)
        report = tmp_path / "diag.json"
        code = sweep_main([spec, "-j", "1", "--no-cache", *argv,
                           "--diagnostics-json", str(report)])
        payload = json.loads(report.read_text())
        assert payload["tool"] == "repro-sweep"
        assert payload["ok"] is False
        assert payload["error"]["exit_code"] == code
        return code, payload

    def test_missing_spec_exit_3(self, tmp_path, capsys):
        code, _ = self.sweep(tmp_path, str(tmp_path / "nope.json"))
        assert code == EXIT_MISSING_FILE
        _assert_one_line_error(capsys, "repro-sweep")

    def test_invalid_spec_exit_4(self, tmp_path, capsys):
        code, payload = self.sweep(tmp_path,
                                   dict(SWEEP_SPEC, benchmark="nope"))
        assert code == EXIT_PARSE
        assert "unknown benchmark" in payload["error"]["message"]
        _assert_one_line_error(capsys, "repro-sweep")

    @pytest.mark.parametrize("name", sorted(MALFORMED_SWEEP_SPECS))
    def test_malformed_spec_exit_4(self, name, tmp_path, capsys):
        spec, named = MALFORMED_SWEEP_SPECS[name]
        code, _ = self.sweep(tmp_path, spec)
        assert code == EXIT_PARSE
        assert named in _assert_one_line_error(capsys, "repro-sweep")

    def test_unwritable_csv_exit_3(self, tmp_path, capsys):
        csv = tmp_path / "missing" / "out.csv"
        code, _ = self.sweep(tmp_path, SWEEP_SPEC, "--csv", str(csv))
        assert code == EXIT_MISSING_FILE
        line = _assert_one_line_error(capsys, "repro-sweep")
        assert line.startswith(f"repro-sweep: error: --csv {csv}: ")


class TestRunFlagUsageErrors:
    """Bad numbers on the run CLIs are usage errors: exit 2 and one
    ``error:`` line, never a traceback or an unrelated exit code."""

    @pytest.mark.parametrize("main,argv,tool,message", [
        (experiment_main, ["cacheloop", "--param", "iters=abc"],
         "repro-experiment", "KEY=INT"),
        (experiment_main, ["cacheloop", "--param", "iters"],
         "repro-experiment", "KEY=INT"),
        (experiment_main, ["cacheloop", "--param", "bogus=1"],
         "repro-experiment", "unknown --param bogus"),
        (experiment_main, ["cacheloop", "-n", "0"],
         "repro-experiment", "positive integer"),
        (experiment_main, ["cacheloop", "--checkpoint-every", "0",
                           "--checkpoint-dir", "ckpt"],
         "repro-experiment", "positive integer"),
        (experiment_main, ["cacheloop", "--checkpoint-every", "100",
                           "--checkpoint-dir", "ckpt",
                           "--checkpoint-keep", "0"],
         "repro-experiment", "positive integer"),
        (experiment_main, ["cacheloop", "--warmup-cycles", "0"],
         "repro-experiment", "positive integer"),
        (experiment_main, ["cacheloop", "--retry-attempts", "0"],
         "repro-experiment", "max_attempts"),
        (experiment_main, ["cacheloop", "--checkpoint-every", "100"],
         "repro-experiment", "--checkpoint-every requires "
                             "--checkpoint-dir"),
        (traffic_main, ["--cores", "4", "--size-uniform", "1-4"],
         "repro-traffic", "expected MIN:MAX"),
        (traffic_main, ["--cores", "4", "--warmup-cycles", "100",
                        "--simulate", "tlm", "--checkpoint-every", "50",
                        "--checkpoint-dir", "ckpt"],
         "repro-traffic", "--warmup-cycles cannot be combined with "
                          "--checkpoint-every"),
        (sweep_main, ["s.json", "--timeout", "0"],
         "repro-sweep", "argument --timeout: expected a number > 0"),
        (sweep_main, ["s.json", "--timeout", "-1"],
         "repro-sweep", "argument --timeout: expected a number > 0"),
        (sweep_main, ["s.json", "--heartbeat-timeout", "-1"],
         "repro-sweep", "argument --heartbeat-timeout: expected a number "
                        ">= 0"),
        (sweep_main, ["s.json", "--retry-backoff", "-1"],
         "repro-sweep", "argument --retry-backoff: expected a number >= 0"),
        (sweep_main, ["s.json", "--retries", "-1"],
         "repro-sweep", "argument --retries: expected an integer >= 0"),
        (sweep_main, ["s.json", "-j", "-3"],
         "repro-sweep", "argument -j/--jobs: expected an integer >= 0"),
        (sweep_main, ["s.json", "--warmup-cycles", "0"],
         "repro-sweep", "argument --warmup-cycles: expected a positive "
                        "integer"),
    ])
    def test_exit_2(self, main, argv, tool, message, capsys, tmp_path,
                    monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines()
                  if line.startswith(f"{tool}: error: ")]
        assert len(errors) == 1
        assert message in errors[0]
        assert not list(tmp_path.iterdir())

    #: out-of-range experiment input, each once a traceback or a run that
    #: never ended; the app's own source() check names the parameter
    _OUT_OF_RANGE = {
        "sp_matrix -n 2": (["sp_matrix"], "single-processor benchmark"),
        "des -n 1": (["des", "-n", "1"], "at least 2 cores"),
        "sp_matrix n=0": (["sp_matrix", "-n", "1", "--param", "n=0"],
                          "n must be >= 1, got 0"),
        "mp_matrix n=0": (["mp_matrix", "--param", "n=0"],
                          "n must be >= 1, got 0"),
        "des blocks=0": (["des", "--param", "blocks=0"],
                         "blocks must be >= 1, got 0"),
        "des blocks=-2": (["des", "--param", "blocks=-2"],
                          "blocks must be >= 1, got -2"),
        "cacheloop iters=0": (["cacheloop", "--param", "iters=0"],
                              "iters must be >= 1, got 0"),
        "cacheloop iters=-1": (["cacheloop", "--param", "iters=-1"],
                               "iters must be >= 1, got -1"),
        "watchdog 0": (["cacheloop", "--watchdog", "0"],
                       "argument --watchdog: expected a positive integer"),
        "watchdog -5": (["cacheloop", "--watchdog", "-5"],
                        "argument --watchdog: expected a positive integer"),
        "progress-window 0": (["cacheloop", "--progress-window", "0"],
                              "argument --progress-window: expected a "
                              "positive integer"),
        "progress-window -3": (["cacheloop", "--progress-window", "-3"],
                               "argument --progress-window: expected a "
                               "positive integer"),
    }

    @pytest.mark.parametrize("case", list(_OUT_OF_RANGE))
    def test_experiment_out_of_range_exit_2(self, case, capsys, tmp_path,
                                            monkeypatch):
        argv, message = self._OUT_OF_RANGE[case]
        self.test_exit_2(experiment_main, argv, "repro-experiment",
                         message, capsys, tmp_path, monkeypatch)
