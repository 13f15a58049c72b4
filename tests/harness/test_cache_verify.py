"""Cache integrity: embedded checksums, verify() audit, mismatch = miss."""

import hashlib
import json

import pytest

from repro.harness import CacheIssue, ResultCache
from repro.harness.cache import repro_version

pytestmark = pytest.mark.artifacts

KEY = "a" * 64
RESULT = {"ref_cycles": 1000, "tg_cycles": 990}


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def _tamper(path, old, new):
    path.write_text(path.read_text().replace(old, new))


class TestIntegrityMiss:
    def test_entry_embeds_version_and_checksum(self, cache):
        cache.put(KEY, RESULT)
        entry = json.loads(cache.path_for(KEY).read_text())
        assert entry["version"] == repro_version()
        assert len(entry["result_crc32"]) == 8

    def test_tampered_result_is_a_miss(self, cache):
        cache.put(KEY, RESULT)
        _tamper(cache.path_for(KEY), '"ref_cycles": 1000',
                '"ref_cycles": 1234')
        assert cache.get(KEY) is None

    def test_version_skew_is_a_miss(self, cache):
        cache.put(KEY, RESULT)
        _tamper(cache.path_for(KEY), repro_version(), "0.0.1")
        assert cache.get(KEY) is None


class TestVerify:
    def test_clean_cache(self, cache):
        cache.put(KEY, RESULT)
        assert cache.verify() == []

    def test_missing_directory(self, tmp_path):
        assert ResultCache(tmp_path / "nope").verify() == []

    def test_invalid_json_is_corrupt(self, cache):
        cache.put(KEY, RESULT)
        cache.path_for(KEY).write_text("{not json")
        (issue,) = cache.verify()
        assert issue.kind == "corrupt"
        assert "JSON" in issue.detail
        assert cache.get(KEY) is None

    def test_missing_result_is_corrupt(self, cache):
        cache.directory.mkdir(parents=True)
        cache.path_for(KEY).write_text(json.dumps({"key": KEY}))
        (issue,) = cache.verify()
        assert issue.kind == "corrupt"
        assert "result" in issue.detail
        assert cache.get(KEY) is None

    def test_renamed_entry_is_corrupt(self, cache):
        cache.put(KEY, RESULT)
        cache.path_for(KEY).rename(cache.path_for("b" * 64))
        (issue,) = cache.verify()
        assert issue.kind == "corrupt"
        assert "does not match" in issue.detail
        assert cache.get("b" * 64) is None

    def test_checksum_failure_is_corrupt(self, cache):
        cache.put(KEY, RESULT)
        _tamper(cache.path_for(KEY), '"ref_cycles": 1000',
                '"ref_cycles": 1234')
        (issue,) = cache.verify()
        assert issue.kind == "corrupt"
        assert "checksum" in issue.detail
        assert cache.get(KEY) is None

    def test_provenance_hash_mismatch_is_corrupt(self, cache):
        provenance = {"benchmark": "des", "n_cores": 2}
        blob = json.dumps(provenance, sort_keys=True,
                          separators=(",", ":"))
        key = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        cache.put(key, RESULT, provenance=provenance)
        assert cache.verify() == []
        _tamper(cache.path_for(key), '"benchmark": "des"',
                '"benchmark": "osk"')
        # provenance no longer hashes to the key (crc only covers result)
        kinds = [issue.kind for issue in cache.verify()]
        assert kinds == ["corrupt"]
        assert cache.get(key) is None

    def test_version_skew_is_stale(self, cache):
        cache.put(KEY, RESULT)
        _tamper(cache.path_for(KEY), repro_version(), "0.0.1")
        (issue,) = cache.verify()
        assert issue.kind == "stale"
        assert "0.0.1" in issue.detail
        assert cache.get(KEY) is None

    def test_issue_renders_one_line(self, cache):
        issue = CacheIssue("/tmp/x.json", "stale", "old version")
        assert str(issue) == "stale   /tmp/x.json: old version"
        assert "\n" not in str(issue)

    def test_mixed_issues_sorted_by_path(self, cache):
        cache.put("a" * 64, RESULT)
        cache.put("b" * 64, RESULT)
        cache.put("c" * 64, RESULT)
        _tamper(cache.path_for("a" * 64), '"ref_cycles": 1000',
                '"ref_cycles": 9')
        _tamper(cache.path_for("c" * 64), repro_version(), "0.0.1")
        issues = cache.verify()
        assert [issue.kind for issue in issues] == ["corrupt", "stale"]
        # get() serves exactly the entries verify() does not report
        assert [cache.get(key) for key in ("a" * 64, "b" * 64, "c" * 64)] \
            == [None, RESULT, None]

    def test_temp_file_is_corrupt_until_cleared(self, cache):
        cache.put(KEY, RESULT)
        leftovers = [cache.directory / f"{KEY}.json.0123456789ab.tmp",
                     cache.directory / "tmpk2x9q7.tmp"]    # old naming
        for path in leftovers:
            path.write_text("{")
        # opening a cache deletes nothing: a concurrent sweep may own it
        cache = ResultCache(cache.directory)
        issues = cache.verify()
        assert [(issue.path, issue.kind, issue.detail) for issue in issues] \
            == [(str(path), "corrupt",
                 "temporary file of an interrupted write")
                for path in sorted(leftovers)]
        assert cache.get(KEY) == RESULT
        assert cache.clear() == 3
        assert list(cache.directory.iterdir()) == []
