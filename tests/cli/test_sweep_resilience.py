"""repro-sweep resilience: SIGINT mid-sweep exits 8 with a complete
journal, --resume re-runs exactly the unfinished points, and the
diagnostics report carries the failure taxonomy (docs/SWEEPS.md)."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import sweep_main
from repro.harness import EXIT_INTERRUPTED, SweepJournal, journal_path
from repro.harness import parallel as parallel_module

pytestmark = pytest.mark.sweep

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

SPEC = {"benchmark": "cacheloop", "cores": [1, 2],
        "interconnects": ["ahb", "tlm"], "app_params": {"iters": 40}}

DRIVER = """\
import sys
from repro.cli import sweep_main
sys.exit(sweep_main(sys.argv[1:]))
"""


def write_spec(tmp_path, spec=None):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec or SPEC))
    return str(path)


def launch_sweep(tmp_path, extra_args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(REPO_SRC)
    env.update(env_extra or {})
    return subprocess.Popen(
        [sys.executable, "-c", DRIVER, write_spec(tmp_path), "--no-cache",
         *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)


def wait_for_journal_records(journal_dir, minimum, timeout_s=30.0):
    """Block until the journal shows progress (records beyond the header)."""
    deadline = time.monotonic() + timeout_s
    path = journal_path(journal_dir)
    while time.monotonic() < deadline:
        if path.exists() and sum(
                1 for line in path.read_text().splitlines()
                if line.strip()) >= minimum:
            return
        time.sleep(0.05)
    raise AssertionError(f"journal never reached {minimum} records")


class TestSigintExitsCleanly:
    def test_sigint_flushes_journal_and_exits_8(self, tmp_path):
        journal_dir = tmp_path / "run"
        process = launch_sweep(
            tmp_path, ["--journal", str(journal_dir), "-j", "2"],
            env_extra={parallel_module._TEST_SLEEP_ENV: "10.0"})
        try:
            # header + the first two started records = workers picked up
            wait_for_journal_records(journal_dir, 3)
            process.send_signal(signal.SIGINT)
            _, stderr = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == EXIT_INTERRUPTED
        assert "interrupt received" in stderr
        assert f"--resume {journal_dir}" in stderr
        # the journal is complete and loadable: in-flight points carry
        # interrupted records, nothing is terminal
        state = SweepJournal.read_state(journal_dir)
        assert state.total == 4
        assert state.in_flight
        assert state.unfinished_of(4) == {0, 1, 2, 3}

    def test_resume_after_sigint_runs_only_unfinished(self, tmp_path,
                                                      capsys):
        journal_dir = tmp_path / "run"
        # slow points a little so the driver is mid-sweep when hit
        process = launch_sweep(
            tmp_path, ["--journal", str(journal_dir), "-j", "1"],
            env_extra={parallel_module._TEST_SLEEP_ENV: "0.7"})
        try:
            # wait until at least one point completed (header + started
            # + ok + next started)
            wait_for_journal_records(journal_dir, 4)
            process.send_signal(signal.SIGINT)
            process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == EXIT_INTERRUPTED
        before = SweepJournal.read_state(journal_dir)
        assert before.ok                     # some finished work survived
        finished_before = set(before.ok)

        # resume in-process: no spec file needed, exit 0, and exactly
        # the unfinished points simulate
        code = sweep_main(["--resume", str(journal_dir), "--no-cache",
                           "-j", "1"])
        err = capsys.readouterr().err
        assert code == 0
        assert "resuming" in err
        assert f"{len(finished_before)} of 4 point(s)" in err
        simulated = 4 - len(finished_before)
        assert (f"{simulated} simulated, 0 cached, "
                f"{len(finished_before)} journaled, 0 failed") in err
        # every previously-finished point kept its original record:
        # its started count did not grow
        after = SweepJournal.read_state(journal_dir)
        assert set(after.ok) == {0, 1, 2, 3}
        for index in finished_before:
            assert after.attempts[index] == before.attempts[index]


class TestResumeExactness:
    def test_resumed_csv_matches_uninterrupted_run(self, tmp_path,
                                                   monkeypatch, capsys):
        spec_file = write_spec(tmp_path)
        reference_csv = tmp_path / "reference.csv"
        assert sweep_main([spec_file, "--no-cache", "-j", "1",
                           "--csv", str(reference_csv)]) == 0

        # interrupted run: the 3rd point raises KeyboardInterrupt as if
        # Ctrl-C landed mid-simulation
        journal_dir = tmp_path / "run"
        count = [0]
        real = parallel_module._execute_point

        def interrupt_mid_sweep(payload, *rest):
            count[0] += 1
            if count[0] == 3:
                raise KeyboardInterrupt
            return real(payload, *rest)

        monkeypatch.setattr(parallel_module, "_execute_point",
                            interrupt_mid_sweep)
        code = sweep_main([spec_file, "--no-cache", "-j", "1",
                           "--journal", str(journal_dir)])
        assert code == EXIT_INTERRUPTED
        monkeypatch.setattr(parallel_module, "_execute_point", real)

        resumed_csv = tmp_path / "resumed.csv"
        capsys.readouterr()
        code = sweep_main(["--resume", str(journal_dir), "--no-cache",
                           "-j", "1", "--csv", str(resumed_csv)])
        assert code == 0

        def stable_columns(path):
            rows = []
            for line in path.read_text().strip().splitlines():
                cells = line.split(",")
                # drop the wall-clock-derived columns (ref/tg wall, gain)
                rows.append([c for i, c in enumerate(cells)
                             if i not in (7, 8, 9)])
            return rows

        assert stable_columns(resumed_csv) == stable_columns(reference_csv)

    def test_resume_refuses_mismatched_spec(self, tmp_path, capsys):
        journal_dir = tmp_path / "run"
        spec_file = write_spec(tmp_path)
        assert sweep_main([spec_file, "--no-cache", "-j", "1",
                           "--journal", str(journal_dir)]) == 0
        other = dict(SPEC, cores=[4])
        other_file = tmp_path / "other.json"
        other_file.write_text(json.dumps(other))
        code = sweep_main([str(other_file), "--no-cache",
                           "--journal", str(journal_dir)])
        err = capsys.readouterr().err
        assert code != 0
        assert "different sweep spec" in err


class TestInterruptedDiagnostics:
    def test_diagnostics_json_carries_taxonomy_and_exit_code(
            self, tmp_path, monkeypatch, capsys):
        journal_dir = tmp_path / "run"
        spec_file = write_spec(tmp_path)
        report = tmp_path / "report.json"

        def bomb(payload, *rest):
            raise KeyboardInterrupt

        monkeypatch.setattr(parallel_module, "_execute_point", bomb)
        code = sweep_main([spec_file, "--no-cache", "-j", "1",
                           "--journal", str(journal_dir),
                           "--diagnostics-json", str(report)])
        capsys.readouterr()
        assert code == EXIT_INTERRUPTED
        payload = json.loads(report.read_text())
        assert payload["tool"] == "repro-sweep"
        assert payload["interrupted"] is True
        assert payload["exit_code"] == EXIT_INTERRUPTED
        assert payload["journal"] == str(journal_dir)
        assert len(payload["points"]) == 4
        kinds = {p["failure"]["kind"] for p in payload["points"]}
        assert kinds == {"interrupted"}

    def test_failed_point_taxonomy_in_diagnostics(self, tmp_path, capsys):
        spec_file = write_spec(
            tmp_path, dict(SPEC, cores=[1], interconnects=["ahb"],
                           app_params={"bogus": 1}))
        report = tmp_path / "report.json"
        code = sweep_main([spec_file, "--no-cache", "-j", "1",
                           "--diagnostics-json", str(report)])
        capsys.readouterr()
        assert code == 1
        payload = json.loads(report.read_text())
        point = payload["points"][0]
        assert point["status"] == "failed"
        assert point["failure"]["kind"] == "simulation-error"
        assert point["failure"]["transient"] is False


class TestPropertyRandomInterruptPoints:
    def test_resume_is_exact_for_any_interrupt_point(self, tmp_path,
                                                     monkeypatch, capsys):
        from hypothesis import HealthCheck, given, settings
        from hypothesis import strategies as st

        spec_file = write_spec(tmp_path)
        reference = sweep_main([spec_file, "--no-cache", "-j", "1"])
        assert reference == 0
        real = parallel_module._execute_point
        runs = [0]

        @settings(max_examples=5, deadline=None,
                  suppress_health_check=list(HealthCheck))
        @given(st.integers(min_value=1, max_value=4))
        def check(kill_at):
            runs[0] += 1
            journal_dir = tmp_path / f"run{runs[0]}"
            count = [0]

            def die(payload, *rest):
                count[0] += 1
                if count[0] == kill_at:
                    raise KeyboardInterrupt
                return real(payload, *rest)

            monkeypatch.setattr(parallel_module, "_execute_point", die)
            code = sweep_main([spec_file, "--no-cache", "-j", "1",
                               "--journal", str(journal_dir)])
            assert code == EXIT_INTERRUPTED
            monkeypatch.setattr(parallel_module, "_execute_point", real)
            state = SweepJournal.read_state(journal_dir)
            assert set(state.ok) == set(range(kill_at - 1))
            code = sweep_main(["--resume", str(journal_dir),
                               "--no-cache", "-j", "1"])
            assert code == 0
            resumed = SweepJournal.read_state(journal_dir)
            assert set(resumed.ok) == {0, 1, 2, 3}
            capsys.readouterr()

        check()
