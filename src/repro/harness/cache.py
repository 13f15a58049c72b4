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

Entries are written with :func:`~repro.artifacts.io.atomic_write_text`.
:meth:`ResultCache.get` serves an entry exactly when
:meth:`ResultCache.verify` reports nothing for its file; anything else
is a miss, never an error.  Concurrent sweeps may share a cache
directory, so opening one deletes nothing: :meth:`~ResultCache.verify`
reports a temp file an interrupted write left, :meth:`~ResultCache.clear`
removes it.
"""

import hashlib
import json
import os
import zlib
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from repro.artifacts.errors import ArtifactError
from repro.artifacts.io import TEMP_SUFFIX, atomic_write_text
from repro.artifacts.snap import load_snap

__all__ = ["CacheIssue", "ResultCache", "content_hash",
           "default_cache_dir", "point_cache_key", "point_provenance",
           "repro_version", "warmup_digest"]


class CacheIssue(NamedTuple):
    """One defective cache entry found by :meth:`ResultCache.verify`."""

    path: str
    kind: str       # "corrupt" | "stale"
    detail: str

    def __str__(self) -> str:
        return f"{self.kind:7s} {self.path}: {self.detail}"


def _canonical_json(value) -> bytes:
    return json.dumps(value, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def content_hash(material: Dict) -> str:
    """SHA-256 (hex) of the canonical JSON of key material: a cache key
    is the hash of the provenance its entry stores."""
    return hashlib.sha256(_canonical_json(material)).hexdigest()


def _result_crc32(result: Dict) -> str:
    """CRC32 (hex) of the canonical JSON of a stored result payload."""
    return f"{zlib.crc32(_canonical_json(result)) & 0xFFFFFFFF:08x}"


def repro_version() -> str:
    """The installed ``repro`` version (part of every cache key)."""
    from repro import __version__
    return __version__


def point_provenance(benchmark: str, n_cores: int, interconnect: str,
                     mode: str, app_params: Optional[Dict] = None,
                     fault_spec: Optional[Dict] = None, fault_seed: int = 0,
                     traffic: Optional[Dict] = None,
                     version: Optional[str] = None,
                     warmup: Optional[str] = None) -> Dict:
    """The key material of one grid point, as its entry stores it.

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
    return provenance


def point_cache_key(*args, **kwargs) -> str:
    """Content hash identifying one grid point's simulation outcome: the
    :func:`content_hash` of its :func:`point_provenance`."""
    return content_hash(point_provenance(*args, **kwargs))


def warmup_digest(material: Dict) -> str:
    """Content hash of one warm-up equivalence class.

    ``material`` is everything that determines the warm-up snapshot's
    bytes (workload identity + warm-up length + warm-up fabric — see
    :meth:`~repro.harness.parallel.SweepPoint.warmup_material`); the
    package version joins automatically, so a simulator upgrade
    invalidates every stored warm-up snapshot the same way it
    invalidates results.  The digest names the ``.snap`` entry in the
    cache directory, joins :func:`point_provenance` and is recorded as
    ``warmup=<digest>`` provenance in the sweep journal.
    """
    return content_hash(dict(material, version=repro_version()))


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro/sweeps``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    root = Path(xdg) if xdg else Path.home() / ".cache"
    return root / "repro" / "sweeps"


def _audit(path: Path) -> Tuple[Optional[Dict], Optional[CacheIssue]]:
    """Judge one cache file: ``(value, None)`` when it may be served,
    else ``(None, issue)``.

    A ``<key>.json`` entry is ``corrupt`` when it is unreadable, not
    JSON, has no result payload, names another key than its filename,
    fails its result checksum, or carries provenance that does not hash
    to its key, and ``stale`` when recorded under another package
    version.  A ``.snap`` must load as a verified snapshot.  A temp file
    is an interrupted write.
    """
    def issue(kind: str, detail: str):
        return None, CacheIssue(str(path), kind, detail)

    if path.suffix == TEMP_SUFFIX:
        return issue("corrupt", "temporary file of an interrupted write")
    if path.suffix == ".snap":
        try:
            return load_snap(path).value, None
        except OSError as error:
            return issue("corrupt", f"unreadable: {error}")
        except ArtifactError as error:
            return issue("corrupt", f"invalid snapshot: {error.message}")
    try:
        with open(path) as handle:
            entry = json.load(handle)
    except OSError as error:
        return issue("corrupt", f"unreadable: {error}")
    except ValueError as error:
        return issue("corrupt", f"not valid JSON: {error}")
    if not isinstance(entry, dict) or \
            not isinstance(entry.get("result"), dict):
        return issue("corrupt", "missing result payload")
    if entry.get("key") != path.stem:
        return issue("corrupt", f"entry key {entry.get('key')!r} does "
                                f"not match filename")
    if entry.get("result_crc32") != _result_crc32(entry["result"]):
        return issue("corrupt", "result fails its checksum")
    provenance = entry.get("provenance")
    if isinstance(provenance, dict) and \
            content_hash(provenance) != path.stem:
        return issue("corrupt", "provenance does not hash to the entry key")
    version = entry.get("version")
    if version != repro_version():
        return issue("stale", f"recorded by version {version or 'unknown'}"
                              f", current is {repro_version()}")
    return entry["result"], None


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

        Any entry :meth:`verify` would report is a miss.
        """
        return _audit(self.path_for(key))[0]

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
        atomic_write_text(self.path_for(key),
                          json.dumps(entry, sort_keys=True, indent=1))

    def get_snap(self, digest: str) -> Optional[Dict]:
        """The cached warm-up snapshot payload for ``digest``, or None.

        Like :meth:`get`, any snapshot :meth:`verify` would report is a
        miss.  The package version is part of the digest, so a stale
        snapshot is never looked up.
        """
        return _audit(self.snap_path_for(digest))[0]

    def put_snap(self, digest: str, text: str) -> Path:
        """Store a warm-up snapshot atomically; returns its path.

        ``text`` is the snapshot's :func:`~repro.artifacts.snap.dump_snap`
        text, as a sweep's warm-up task returns it.  The path is handed
        to sweep workers, which re-verify the artifact (header CRC +
        recipe compatibility) before restoring.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.snap_path_for(digest)
        atomic_write_text(path, text)
        return path

    def files(self) -> List[Path]:
        """Every file the cache owns, sorted: result entries, warm-up
        snapshots and temp files of interrupted writes."""
        if not self.directory.is_dir():
            return []
        return sorted(path for path in self.directory.iterdir()
                      if path.suffix in (".json", ".snap", TEMP_SUFFIX))

    def verify(self) -> List[CacheIssue]:
        """Audit every file (see :func:`_audit`); returns the issues
        found, an empty list for a clean cache."""
        audits = (_audit(path)[1] for path in self.files())
        return [issue for issue in audits if issue is not None]

    def clear(self) -> int:
        """Delete every file the cache owns, temp files included;
        returns the number removed."""
        removed = 0
        for path in self.files():
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
