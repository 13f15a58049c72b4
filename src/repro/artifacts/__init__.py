"""Hardened I/O for the paper's three artifact formats.

The whole workflow is file-based — trace (``.trc``) → translator
(``.tgp``) → assembler (``.bin``) → TG replay — so a truncated trace or a
bit-flipped image must fail loudly, early and helpfully rather than crash
with a raw ``ValueError`` or silently replay wrong traffic.  This package
provides:

* versioned, CRC32-checksummed headers for all three formats
  (:mod:`repro.artifacts.header`), with a legacy-compat path that still
  reads today's headerless files (plus a ``DeprecationWarning``);
* a typed :class:`ArtifactError` hierarchy (:mod:`repro.artifacts.errors`)
  with per-class CLI exit codes and file/line/column diagnostics;
* strict/permissive loaders (:mod:`repro.artifacts.io`) whose only
  failure mode is a typed error — the contract enforced by the seeded
  fuzz harness in ``tests/artifacts/fuzz.py``.

Format specs, the header layout and the error-code table are documented
in docs/ARTIFACTS.md.
"""

from repro.artifacts.errors import (
    EXIT_CHECKSUM,
    EXIT_FAILURE,
    EXIT_MISSING_FILE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SNAPSHOT,
    EXIT_TRUNCATED,
    EXIT_USAGE,
    EXIT_VERSION,
    ArtifactError,
    ChecksumMismatch,
    DiagnosticReport,
    ParseDiagnostic,
    SnapshotError,
    SnapshotRecipeMismatch,
    TruncatedArtifact,
    VersionMismatch,
)
from repro.artifacts.header import (
    add_text_header,
    crc32_hex,
    producer_version,
    split_text_header,
    unwrap_binary,
    wrap_binary,
)
from repro.artifacts.io import (
    Artifact,
    dump_bin,
    dump_tgp,
    dump_trc,
    load_artifact_bytes,
    load_bin,
    load_bin_bytes,
    load_tgp,
    load_tgp_bytes,
    load_trc,
    load_trc_bytes,
    reserialize,
    save_bin,
    save_tgp,
    save_trc,
)
from repro.artifacts.snap import (
    dump_snap,
    load_snap,
    load_snap_bytes,
    save_snap,
)

__all__ = [
    "Artifact",
    "ArtifactError",
    "ChecksumMismatch",
    "DiagnosticReport",
    "EXIT_CHECKSUM",
    "EXIT_FAILURE",
    "EXIT_MISSING_FILE",
    "EXIT_OK",
    "EXIT_PARSE",
    "EXIT_SNAPSHOT",
    "EXIT_TRUNCATED",
    "EXIT_USAGE",
    "EXIT_VERSION",
    "ParseDiagnostic",
    "SnapshotError",
    "SnapshotRecipeMismatch",
    "TruncatedArtifact",
    "VersionMismatch",
    "add_text_header",
    "crc32_hex",
    "dump_bin",
    "dump_snap",
    "dump_tgp",
    "dump_trc",
    "load_artifact_bytes",
    "load_bin",
    "load_bin_bytes",
    "load_snap",
    "load_snap_bytes",
    "load_tgp",
    "load_tgp_bytes",
    "load_trc",
    "load_trc_bytes",
    "producer_version",
    "reserialize",
    "save_bin",
    "save_snap",
    "save_tgp",
    "save_trc",
    "split_text_header",
    "unwrap_binary",
    "wrap_binary",
]
