"""The ``repro-traffic`` command: flags, spec files, exit codes."""

import json
import os
import subprocess
import sys

import pytest

from repro.artifacts import EXIT_MISSING_FILE, EXIT_PARSE
from repro.cli import traffic_main


def read_bytes(directory):
    return {name: open(os.path.join(directory, name), "rb").read()
            for name in sorted(os.listdir(directory))}


class TestGeneration:
    def test_flags_only(self, tmp_path, capsys):
        out = tmp_path / "programs"
        assert traffic_main(["--cores", "4", "--pattern", "neighbor",
                             "--load", "0.4", "--transactions", "10",
                             "-o", str(out)]) == 0
        names = sorted(os.listdir(out))
        assert names == ["core0.bin", "core0.tgp", "core1.bin",
                         "core1.tgp", "core2.bin", "core2.tgp",
                         "core3.bin", "core3.tgp"]

    def test_regeneration_is_byte_identical(self, tmp_path):
        args = ["--cores", "3", "--pattern", "hotspot", "--seed", "11",
                "--transactions", "15"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert traffic_main(args + ["-o", str(a)]) == 0
        assert traffic_main(args + ["-o", str(b)]) == 0
        assert read_bytes(a) == read_bytes(b)

    def test_spec_file_with_flag_override(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_cores": 4, "pattern": "uniform",
                                    "transactions": 5, "seed": 1}))
        out = tmp_path / "out"
        assert traffic_main([str(spec), "--pattern", "neighbor",
                             "-o", str(out)]) == 0
        # the flag override must be visible in the stderr summary
        assert "neighbor" in capsys.readouterr().err

    def test_stdout_dump_without_output_dir(self, capsys):
        assert traffic_main(["--cores", "2", "--transactions", "3"]) == 0
        text = capsys.readouterr().out
        assert "# --- core 0 ---" in text
        assert "# --- core 1 ---" in text
        assert "halt" in text.lower()

    def test_diagnostics_json(self, tmp_path):
        report = tmp_path / "report.json"
        assert traffic_main(["--cores", "2", "--transactions", "5",
                             "-o", str(tmp_path / "p"),
                             "--diagnostics-json", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert payload["ok"] is True
        assert payload["spec"]["n_cores"] == 2
        assert len(payload["cores"]) == 2
        assert payload["cores"][0]["transactions"] == 5


class TestSimulate:
    def test_simulate_prints_metrics(self, capsys):
        assert traffic_main(["--cores", "4", "--transactions", "10",
                             "--simulate", "tlm"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out and "latency" in out

    def test_simulate_json_summary(self, capsys):
        assert traffic_main(["--cores", "4", "--transactions", "10",
                             "--load", "0.3", "--simulate", "tlm",
                             "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["benchmark"] == "synthetic"
        assert summary["offered_load"] == 0.3
        assert summary["issued"] == 40


class TestFailurePaths:
    def test_missing_spec_file(self, capsys):
        assert traffic_main(["/nonexistent/spec.json",
                             "--cores", "4"]) == EXIT_MISSING_FILE

    def test_invalid_json_spec(self, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text("{not json")
        assert traffic_main([str(spec), "--cores", "4"]) == EXIT_PARSE

    def test_invalid_spec_values(self, capsys, tmp_path):
        report = tmp_path / "d.json"
        code = traffic_main(["--cores", "4", "--load", "2.0",
                             "--diagnostics-json", str(report)])
        assert code == EXIT_PARSE
        payload = json.loads(report.read_text())
        assert payload["ok"] is False
        assert payload["error"]["exit_code"] == EXIT_PARSE

    def test_bad_cdf_file(self, tmp_path, capsys):
        cdf = tmp_path / "sizes.cdf"
        cdf.write_text("128 50\n64 100\n")          # unsorted
        assert traffic_main(["--cores", "4", "--size-cdf",
                             str(cdf)]) == EXIT_PARSE
        assert "sorted" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["nan 50\n64 100\n", "inf 100\n"])
    def test_non_finite_cdf_file(self, text, tmp_path, capsys):
        cdf = tmp_path / "sizes.cdf"
        cdf.write_text(text)
        assert traffic_main(["--cores", "4", "--size-cdf",
                             str(cdf)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"{cdf}:1: size must be positive and finite" in err

    def test_nan_inline_point_in_spec_file(self, tmp_path, capsys):
        # Python's json reads NaN and Infinity
        path = tmp_path / "spec.json"
        path.write_text('{"n_cores": 4, "size": {"kind": "cdf", '
                        '"points": [[NaN, 100]]}}')
        assert traffic_main([str(path)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "size.points[0]" in err

    def test_missing_cdf_file(self, capsys):
        assert traffic_main(["--cores", "4", "--size-cdf",
                             "/nonexistent.cdf"]) == EXIT_MISSING_FILE

    def test_conflicting_size_flags(self, capsys):
        with pytest.raises(SystemExit):
            traffic_main(["--cores", "4", "--size-words", "4",
                          "--size-uniform", "1:8"])

    def test_cores_required(self, capsys):
        with pytest.raises(SystemExit):
            traffic_main(["--pattern", "uniform"])


class TestSubprocessRoundTrip:
    def test_generate_assemble_dump_round_trip(self, tmp_path):
        """Full toolchain through real processes: repro-traffic emits
        programs whose .bin disassembles back to the .tgp text."""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + \
            env.get("PYTHONPATH", "")
        out = tmp_path / "programs"
        generate = subprocess.run(
            [sys.executable, "-c",
             "import sys; from repro.cli import traffic_main; "
             "sys.exit(traffic_main(sys.argv[1:]))",
             "--cores", "2", "--transactions", "8", "--seed", "3",
             "-o", str(out)],
            env=env, capture_output=True, text=True)
        assert generate.returncode == 0, generate.stderr
        dumped = subprocess.run(
            [sys.executable, "-c",
             "import sys; from repro.cli import tgdump_main; "
             "sys.exit(tgdump_main(sys.argv[1:]))",
             str(out / "core0.bin")],
            env=env, capture_output=True, text=True)
        assert dumped.returncode == 0, dumped.stderr
        # the saved artifact carries a ;#ARTIFACT checksum header line
        # that a stdout dump (no file) doesn't; compare the body
        saved = [line for line in (out / "core0.tgp").read_text()
                 .splitlines() if not line.startswith(";#ARTIFACT")]
        assert dumped.stdout.splitlines() == saved
