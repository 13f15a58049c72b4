"""Codec for ``.snap`` checkpoint artifacts.

A ``.snap`` file is a versioned, CRC32-checksummed text artifact (the
same ``;#ARTIFACT`` header as ``.trc``/``.tgp``) whose payload is the
canonical JSON of one simulation snapshot taken at a quiescent cycle
boundary (see :mod:`repro.kernel.snapshot` and docs/CHECKPOINT.md).

The payload is always serialised canonically (sorted keys, compact
separators, trailing newline), so re-serialising a parsed snapshot
reproduces the byte-identical payload — the round-trip property the
artifact fuzz harness checks for every verified-header mutant.

Unlike the trace/program formats there is no legacy headerless
generation of ``.snap`` files: a snapshot without a verified header is
either damaged or forged, and restoring simulation state from it would
be unsafe, so the loader refuses it outright.

:func:`save_snap` plain-writes the path its caller names; checkpoints
and cached warm-ups are written by their stores through
:func:`~repro.artifacts.io.atomic_write_text`.
"""

import json

from repro.artifacts.errors import DiagnosticReport, ParseDiagnostic, \
    SnapshotError
from repro.artifacts.header import add_text_header, split_text_header
from repro.artifacts.io import Artifact, _save_text

#: Payload keys every well-formed snapshot carries.
SNAP_REQUIRED_KEYS = ("cycle", "kernel", "components", "pending",
                      "platform")


def canonical_snap_json(payload: dict) -> str:
    """The one true serialisation of a snapshot payload."""
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")) + "\n"


def validate_snap_payload(payload, path=None) -> dict:
    """Structural validation of a parsed snapshot payload.

    Checks shape only (the keys and types the restore machinery
    dereferences unconditionally); semantic validation — does this
    snapshot fit that platform — happens at apply time with the platform
    in hand.
    """
    if not isinstance(payload, dict):
        raise SnapshotError("snapshot payload must be a JSON object",
                            path=path)
    missing = [key for key in SNAP_REQUIRED_KEYS if key not in payload]
    if missing:
        raise SnapshotError(
            f"snapshot payload is missing key(s): {', '.join(missing)}",
            path=path,
            hint="the file is not a checkpoint produced by this package")
    if not isinstance(payload["cycle"], int) \
            or isinstance(payload["cycle"], bool) \
            or payload["cycle"] < 0:
        raise SnapshotError(
            f"snapshot cycle must be a non-negative integer, "
            f"got {payload['cycle']!r}", path=path)
    if not isinstance(payload["kernel"], dict):
        raise SnapshotError("snapshot 'kernel' section must be an object",
                            path=path)
    if not isinstance(payload["components"], dict):
        raise SnapshotError(
            "snapshot 'components' section must be an object", path=path)
    if not isinstance(payload["pending"], list):
        raise SnapshotError("snapshot 'pending' section must be a list",
                            path=path)
    if not isinstance(payload["platform"], dict):
        raise SnapshotError(
            "snapshot 'platform' section must be an object", path=path)
    return payload


def load_snap_bytes(data: bytes, path=None) -> Artifact:
    """Verify + parse ``.snap`` bytes into a validated payload dict."""
    header, payload_text = split_text_header(data, "snap", path=path)
    if header is None:
        raise SnapshotError(
            "not a .snap checkpoint (missing artifact header)", path=path,
            hint="snapshots have no legacy headerless form; the file is "
                 "damaged or is not a checkpoint")
    try:
        payload = json.loads(payload_text)
    except ValueError as error:
        raise ParseDiagnostic(
            f"snapshot payload is not valid JSON: {error}", path=path,
            hint="the checksum verified, so the producer wrote a "
                 "malformed snapshot — re-take the checkpoint") from None
    payload = validate_snap_payload(payload, path=path)
    return Artifact("snap", payload, header, payload_text,
                    DiagnosticReport(path=path, kind="snap"), path=path)


def load_snap(path) -> Artifact:
    with open(path, "rb") as handle:
        return load_snap_bytes(handle.read(), path=path)


def dump_snap(payload: dict) -> str:
    """Emit headered ``.snap`` text for a snapshot payload."""
    return add_text_header("snap", canonical_snap_json(payload))


def save_snap(path, payload: dict) -> str:
    """Write a headered ``.snap`` file; returns the payload CRC32 (hex)."""
    return _save_text(path, dump_snap(payload))


__all__ = [
    "SNAP_REQUIRED_KEYS",
    "canonical_snap_json",
    "dump_snap",
    "load_snap",
    "load_snap_bytes",
    "save_snap",
    "validate_snap_payload",
]
