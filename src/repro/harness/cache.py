"""On-disk result cache for sweep grid points.

Design-space exploration re-runs "the same set of simulations for each
design alternative"; most of those simulations are *identical* between
sweep invocations.  The cache makes a re-run of an unchanged sweep free:
each grid point's scalar result is stored as one JSON file, keyed by a
content hash of everything that determines the simulation's outcome.

The cache key is the SHA-256 of the canonical (sorted, compact) JSON of:

* ``benchmark`` — the app name (``sp_matrix`` | ``cacheloop`` | ...);
* ``n_cores`` — the master count of the grid point;
* ``interconnect`` — the fabric name;
* ``mode`` — the replay-mode name (``reactive`` | ``cloning`` | ...);
* ``app_params`` — the benchmark parameter dict;
* ``fault_spec`` — the normalised fault-specification dict (or null);
* ``fault_seed`` — the fault injector's RNG seed;
* ``version`` — the ``repro`` package version, so upgrading the
  simulator invalidates every cached result.

Because the simulator is fully deterministic, two runs with equal keys
produce equal cycle counts — only the wall-time columns of a cached row
are historical (they report the run that populated the cache).

Entries are written atomically (temp file + ``os.replace``), and any
unreadable or malformed entry is treated as a miss, never an error.
"""

import hashlib
import json
import os
import tempfile
import zlib
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Union

__all__ = ["CacheIssue", "ResultCache", "default_cache_dir",
           "point_cache_key", "repro_version", "warmup_digest"]


class CacheIssue(NamedTuple):
    """One defective cache entry found by :meth:`ResultCache.verify`."""

    path: str
    kind: str       # "corrupt" | "stale"
    detail: str

    def __str__(self) -> str:
        return f"{self.kind:7s} {self.path}: {self.detail}"


def _result_crc32(result: Dict) -> str:
    """CRC32 (hex) of the canonical JSON of a stored result payload."""
    blob = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return f"{zlib.crc32(blob.encode('utf-8')) & 0xFFFFFFFF:08x}"


def repro_version() -> str:
    """The installed ``repro`` version (part of every cache key)."""
    from repro import __version__
    return __version__


def point_cache_key(benchmark: str, n_cores: int, interconnect: str,
                    mode: str, app_params: Optional[Dict] = None,
                    fault_spec: Optional[Dict] = None, fault_seed: int = 0,
                    traffic: Optional[Dict] = None,
                    version: Optional[str] = None,
                    warmup: Optional[str] = None) -> str:
    """Content hash identifying one grid point's simulation outcome.

    ``traffic`` (the resolved synthetic-traffic spec dict) joins the key
    material only when present, so every pre-existing classic-benchmark
    key is unchanged.  ``warmup`` (the
    :func:`warmup_digest` of a fast-forwarded point's warm-up material)
    also joins only when present: a point executed via warm-up restore
    is a different simulation than the same point cold-started from
    cycle 0, so the two must never share a cache entry.
    """
    provenance = {
        "benchmark": benchmark,
        "n_cores": n_cores,
        "interconnect": interconnect,
        "mode": mode,
        "app_params": app_params or {},
        "fault_spec": fault_spec,
        "fault_seed": fault_seed,
        "version": version if version is not None else repro_version(),
    }
    if traffic is not None:
        provenance["traffic"] = traffic
    if warmup is not None:
        provenance["warmup"] = warmup
    blob = json.dumps(provenance, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def warmup_digest(material: Dict) -> str:
    """Content hash of one warm-up equivalence class.

    ``material`` is everything that determines the warm-up snapshot's
    bytes (workload identity + warm-up length + warm-up fabric — see
    :meth:`~repro.harness.parallel.SweepPoint.warmup_material`); the
    package version joins automatically, so a simulator upgrade
    invalidates every stored warm-up snapshot the same way it
    invalidates results.  The digest names the ``.snap`` entry in the
    cache directory, joins :func:`point_cache_key` and is recorded as
    ``warmup=<digest>`` provenance in the sweep journal.
    """
    provenance = dict(material)
    provenance["version"] = repro_version()
    blob = json.dumps(provenance, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro/sweeps``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    root = Path(xdg) if xdg else Path.home() / ".cache"
    return root / "repro" / "sweeps"


class ResultCache:
    """A directory of ``<key>.json`` sweep-point results.

    Warm-up snapshots live alongside the results as
    ``<digest>.snap`` artifacts (see :func:`warmup_digest`); ``len()``
    counts result entries only.
    """

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def snap_path_for(self, digest: str) -> Path:
        return self.directory / f"{digest}.snap"

    def get(self, key: str) -> Optional[Dict]:
        """The cached result summary for ``key``, or None on a miss.

        An entry is a miss — never an error, never a wrong answer — when
        it is unreadable, malformed, recorded under a different package
        version, or fails its own embedded result checksum.
        """
        try:
            with open(self.path_for(key)) as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(entry, dict) or \
                not isinstance(entry.get("result"), dict):
            return None
        if entry.get("version") != repro_version():
            return None
        if entry.get("result_crc32") != _result_crc32(entry["result"]):
            return None
        return entry["result"]

    def put(self, key: str, result: Dict,
            provenance: Optional[Dict] = None) -> None:
        """Store a result summary atomically under ``key``.

        ``provenance`` (the pre-hash key material) is stored alongside the
        result so a human can read *what* an entry describes.  The entry
        embeds the package version and its own result checksum, so
        :meth:`get` can tell corruption and staleness from a valid hit.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        entry = {"key": key, "result": result,
                 "version": repro_version(),
                 "result_crc32": _result_crc32(result)}
        if provenance is not None:
            entry["provenance"] = provenance
        fd, tmp_path = tempfile.mkstemp(dir=str(self.directory),
                                        suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(entry, handle, sort_keys=True, indent=1)
            os.replace(tmp_path, self.path_for(key))
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    def get_snap(self, digest: str) -> Optional[Dict]:
        """The cached warm-up snapshot payload for ``digest``, or None.

        Like :meth:`get`, damage is a miss, never an error: the ``.snap``
        header's CRC32 and structural validation must pass.  The package
        version needs no separate check — it is part of the digest, so a
        stale snapshot is simply never looked up.
        """
        from repro.artifacts.errors import ArtifactError
        from repro.artifacts.snap import load_snap
        path = self.snap_path_for(digest)
        try:
            return load_snap(path).value
        except (OSError, ArtifactError):
            return None

    def put_snap(self, digest: str, text: str) -> Path:
        """Store a warm-up snapshot atomically; returns its path.

        ``text`` is the snapshot's :func:`~repro.artifacts.snap.dump_snap`
        text, as a sweep's warm-up task returns it.  The path is handed
        to sweep workers, which re-verify the artifact (header CRC +
        recipe compatibility) before restoring.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=str(self.directory),
                                        suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            path = self.snap_path_for(digest)
            os.replace(tmp_path, path)
            return path
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    def verify(self) -> List[CacheIssue]:
        """Audit every entry; returns the corrupt/stale ones.

        ``corrupt`` — unreadable JSON, malformed structure, a key that
        does not match the filename or the provenance hash, or a result
        that fails its embedded checksum.  ``stale`` — recorded under a
        different package version (valid once, obsolete now).  A clean
        cache returns an empty list.
        """
        issues: List[CacheIssue] = []
        if not self.directory.is_dir():
            return issues
        for path in sorted(self.directory.glob("*.json")):
            name = str(path)
            try:
                with open(path) as handle:
                    entry = json.load(handle)
            except OSError as error:
                issues.append(CacheIssue(name, "corrupt",
                                         f"unreadable: {error}"))
                continue
            except ValueError as error:
                issues.append(CacheIssue(name, "corrupt",
                                         f"not valid JSON: {error}"))
                continue
            if not isinstance(entry, dict) or \
                    not isinstance(entry.get("result"), dict):
                issues.append(CacheIssue(name, "corrupt",
                                         "missing result payload"))
                continue
            if entry.get("key") != path.stem:
                issues.append(CacheIssue(
                    name, "corrupt",
                    f"entry key {entry.get('key')!r} does not match "
                    f"filename"))
                continue
            if "result_crc32" in entry and \
                    entry["result_crc32"] != _result_crc32(entry["result"]):
                issues.append(CacheIssue(name, "corrupt",
                                         "result fails its checksum"))
                continue
            provenance = entry.get("provenance")
            if isinstance(provenance, dict):
                blob = json.dumps(provenance, sort_keys=True,
                                  separators=(",", ":"))
                digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
                if digest != path.stem:
                    issues.append(CacheIssue(
                        name, "corrupt",
                        "provenance does not hash to the entry key"))
                    continue
            version = entry.get("version")
            if version != repro_version():
                issues.append(CacheIssue(
                    name, "stale",
                    f"recorded by version {version or 'unknown'}, "
                    f"current is {repro_version()}"))
        from repro.artifacts.errors import ArtifactError
        from repro.artifacts.snap import load_snap
        for path in sorted(self.directory.glob("*.snap")):
            try:
                load_snap(path)
            except OSError as error:
                issues.append(CacheIssue(str(path), "corrupt",
                                         f"unreadable: {error}"))
            except ArtifactError as error:
                issues.append(CacheIssue(str(path), "corrupt",
                                         f"invalid snapshot: "
                                         f"{error.message}"))
        return issues

    def clear(self) -> int:
        """Delete every entry (results and snapshots); returns the
        number removed."""
        removed = 0
        if not self.directory.is_dir():
            return removed
        for pattern in ("*.json", "*.snap"):
            for path in self.directory.glob(pattern):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*.json"))

    def __repr__(self) -> str:
        return f"<ResultCache {self.directory} entries={len(self)}>"
