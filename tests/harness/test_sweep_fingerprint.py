"""Spec-fingerprint skew audit (checkpointing hardened this contract).

Every field that changes a simulation's outcome or its stored summary
must perturb both the sweep journal's spec fingerprint and the result
cache key; otherwise ``--resume`` or a cache hit can serve rows
computed under different conditions.

The kernel once had a selectable event engine, named by a ``backend``
key in specs and journals.  There is one engine now: a spec or journal
that still names one is refused with a parse error, while everything a
default ("classic") run recorded — journals without the key, cache keys
without the field — stays valid."""

import json

import pytest

from repro.cli import sweep_main
from repro.harness import SweepJournal, SweepSpec, point_cache_key
from repro.harness.cache import repro_version
from repro.harness.parallel import expand_grid

BASE_SPEC = {"benchmark": "cacheloop", "cores": [1],
             "interconnects": ["ahb"], "app_params": {"iters": 10}}

#: Cache keys of a cacheloop point, as the classic engine wrote them
#: (identical with and without an explicit ``backend="classic"``).
CLASSIC_KEY = \
    "edf3a9bf54c9990bdbc4b20c4096ed66f4136debf118296dfecb7e0a2bd52a07"
CLASSIC_GRID_KEY = \
    "79fd2fd0346dd79160f0337d0c7a60d4d118ef44fa3975172573ef2c70da9595"


def _one_line_error(err):
    lines = err.strip().splitlines()
    assert len(lines) == 1, err
    assert "Traceback" not in err
    return lines[0]


class TestFingerprintSkew:

    def test_explicit_classic_matches_default(self):
        """A cache entry written by a classic run is still a hit: its
        key never carried an engine field, and today's keys match it."""
        assert point_cache_key(
            benchmark="cacheloop", n_cores=2, interconnect="ahb",
            mode="reactive", version="1.0") == CLASSIC_KEY
        point, = expand_grid(SweepSpec.from_dict(BASE_SPEC))
        assert point.cache_key("1.0") == CLASSIC_GRID_KEY

    def test_fault_fields_still_perturb_cache_key(self):
        kwargs = dict(benchmark="cacheloop", n_cores=2,
                      interconnect="ahb", mode="reactive",
                      version="1.0")
        plain = point_cache_key(**kwargs)
        faulted = point_cache_key(
            **kwargs,
            fault_spec={"slave_errors": [{"slave": "shared", "nth": 3}]})
        seeded = point_cache_key(**kwargs, fault_seed=7)
        assert len({plain, faulted, seeded}) == 3

    @pytest.mark.parametrize("name", ["classic", "fast"])
    def test_spec_file_naming_an_engine_exits_parse(self, tmp_path,
                                                    capsys, name):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(dict(BASE_SPEC, backend=name)))
        code = sweep_main([str(spec_file), "--no-cache", "-j", "1"])
        assert code == 4
        assert "backend" in _one_line_error(capsys.readouterr().err)


class TestResumeRefusesBackendSkew:

    def _journal(self, tmp_path, backend=None):
        data = dict(BASE_SPEC)
        if backend is not None:
            data["backend"] = backend
        journal = SweepJournal.create(tmp_path, data, 1, repro_version())
        journal.close()

    def test_resume_with_other_backend_exits_parse(self, tmp_path,
                                                   capsys):
        """A journal whose header names an engine cannot be resumed."""
        self._journal(tmp_path, backend="fast")
        code = sweep_main(["--resume", str(tmp_path), "--no-cache",
                           "-j", "1"])
        assert code == 4
        line = _one_line_error(capsys.readouterr().err)
        assert "journal spec is not valid" in line
        assert "backend" in line

    def test_resume_fast_journal_with_classic_flag_refused(
            self, tmp_path, capsys):
        self._journal(tmp_path, backend="fast")
        with pytest.raises(SystemExit) as excinfo:
            sweep_main(["--resume", str(tmp_path), "--no-cache",
                        "-j", "1", "--backend", "classic"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --backend" \
            in capsys.readouterr().err

    def test_resume_without_flag_uses_journal_backend(self, tmp_path,
                                                      capsys):
        """A journal a default ("classic") run wrote has no engine key
        and resumes on the one engine."""
        self._journal(tmp_path)
        code = sweep_main(["--resume", str(tmp_path), "--no-cache",
                           "-j", "1"])
        captured = capsys.readouterr()
        assert code == 0
        assert "resuming" in captured.err
        assert "1 simulated" in captured.err

    def test_mismatched_spec_file_still_refused(self, tmp_path, capsys):
        self._journal(tmp_path)
        other = dict(BASE_SPEC, cores=[1, 2])
        spec_file = tmp_path / "other.json"
        spec_file.write_text(json.dumps(other))
        code = sweep_main([str(spec_file), "--no-cache", "-j", "1",
                           "--resume", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 4
        assert "different sweep spec" in err


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
