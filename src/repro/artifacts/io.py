"""Hardened loaders/savers for the three artifact formats.

These wrap the payload-level codecs (``parse_trc`` / ``parse_tgp`` /
``disassemble_binary``) with header verification, legacy fallback and a
single failure contract: a load either succeeds or raises a typed
:class:`~repro.artifacts.errors.ArtifactError` — never a raw
``IndexError``/``struct.error``/``UnicodeDecodeError``.

Strict vs. permissive (``.trc`` only, the record-oriented format):

* **strict** (default) raises on the first defective record;
* **permissive** skips recoverably-bad records and reports every skip in
  the returned :class:`~repro.artifacts.errors.DiagnosticReport`.

Savers plain-write the path the caller names, which may be a pipe or a
device; the package's own store directories write through
:func:`atomic_write_text`, the one durable-write protocol.

Imports of the codec modules are deferred into the functions: the codecs
themselves import :mod:`repro.artifacts.errors` for the diagnostic
types, and eager imports here would close that cycle.
"""

import contextlib
import os
import re
import warnings
from typing import Optional

from repro.artifacts.errors import (
    ArtifactError,
    DiagnosticReport,
    ParseDiagnostic,
    TruncatedArtifact,
)
from repro.artifacts.header import (
    add_text_header,
    crc32_hex,
    split_text_header,
    unwrap_binary,
    wrap_binary,
)

_LINE_IN_MESSAGE_RE = re.compile(r"line (\d+)")


class Artifact:
    """One loaded artifact: parsed value plus provenance.

    Attributes:
        kind: ``"trc"`` | ``"tgp"`` | ``"bin"``.
        value: The parsed object — ``(master_id, events)`` for a trace,
            a :class:`~repro.core.program.TGProgram` otherwise.
        header: The verified header dict, or None for a legacy file.
        payload: The raw payload (str for text kinds, bytes for bin).
        report: Diagnostics collected by a permissive load (empty when
            strict or clean).
        path: Source file, when loaded from disk.
    """

    __slots__ = ("kind", "value", "header", "payload", "report", "path")

    def __init__(self, kind, value, header, payload, report, path=None):
        self.kind = kind
        self.value = value
        self.header = header
        self.payload = payload
        self.report = report
        self.path = path

    @property
    def legacy(self) -> bool:
        return self.header is None

    @property
    def checksum(self) -> str:
        """CRC32 (hex) of the payload as loaded."""
        data = self.payload if isinstance(self.payload, bytes) \
            else self.payload.encode("utf-8")
        return crc32_hex(data)

    def __repr__(self) -> str:
        state = "legacy" if self.legacy else "verified"
        return f"<Artifact {self.kind} {state} crc32={self.checksum}>"


def _warn_legacy(kind: str, path) -> None:
    where = str(path) if path is not None else "<in-memory data>"
    warnings.warn(
        f"{where}: headerless legacy .{kind} artifact; re-save it to add "
        f"the integrity header (see docs/ARTIFACTS.md)",
        DeprecationWarning, stacklevel=3)


def _wrap_codec_error(error: Exception, kind: str, path) -> ArtifactError:
    """Turn a payload-codec exception into a located ParseDiagnostic."""
    if isinstance(error, ArtifactError):
        if error.path is None and path is not None:
            error.path = str(path)
        return error
    message = str(error)
    match = _LINE_IN_MESSAGE_RE.search(message)
    line = int(match.group(1)) if match else None
    if "truncated" in message.lower():
        return TruncatedArtifact(message, path=path,
                                 hint="the image was cut short — "
                                      "re-assemble it")
    return ParseDiagnostic(message, path=path, line=line,
                           hint=f"fix the .{kind} input or regenerate it")


#: Suffix of the ``<path>.<random hex>.tmp`` file
#: :func:`atomic_write_text` writes before renaming it to ``path``.
TEMP_SUFFIX = ".tmp"


def atomic_write_text(path, text: str) -> None:
    """Durably replace ``path`` with ``text``, all or nothing.

    The text goes to a temp file beside ``path`` (mode ``0o666`` less
    the umask, as ``open(path, "w")`` gives), which is fsynced, renamed
    over ``path`` and made durable by an fsync of the directory.  An
    exception before the rename removes the temp file; a SIGKILL can
    leave it, for the store that owns the directory to remove or report.
    Only for the package's own directories: a rename over a path the
    caller named would replace a device entry such as ``/dev/stdout``.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.urandom(6).hex()}{TEMP_SUFFIX}"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    directory = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def _save_text(path, text: str) -> str:
    """Plain-write headered artifact text; returns the payload CRC32."""
    with open(path, "w") as handle:
        handle.write(text)
    return crc32_hex(text.partition("\n")[2].encode("utf-8"))


# ------------------------------------------------------------------- trc

def load_trc_bytes(data: bytes, path=None, strict: bool = True) -> Artifact:
    """Verify + parse ``.trc`` bytes; see module docstring for modes."""
    from repro.trace.trc_format import parse_trc
    header, payload = split_text_header(data, "trc", path=path)
    if header is None:
        _warn_legacy("trc", path)
    report = DiagnosticReport(path=path, kind="trc")
    on_error = None if strict else report.add
    try:
        master_id, events = parse_trc(payload, on_error=on_error)
    except Exception as error:
        raise _wrap_codec_error(error, "trc", path) from None
    if not strict:
        for diagnostic in report:
            if diagnostic.path is None and path is not None:
                diagnostic.path = str(path)
    return Artifact("trc", (master_id, events), header, payload, report,
                    path=path)


def load_trc(path, strict: bool = True) -> Artifact:
    with open(path, "rb") as handle:
        return load_trc_bytes(handle.read(), path=path, strict=strict)


def dump_trc(events, master_id: int = 0,
             header_comment: Optional[str] = None) -> str:
    """Serialise events to headered ``.trc`` text."""
    from repro.trace.trc_format import serialize_trc
    payload = serialize_trc(events, master_id=master_id,
                            header_comment=header_comment)
    return add_text_header("trc", payload)


def save_trc(path, events, master_id: int = 0,
             header_comment: Optional[str] = None) -> str:
    """Write a headered ``.trc`` file; returns the payload CRC32 (hex)."""
    return _save_text(path, dump_trc(events, master_id=master_id,
                                     header_comment=header_comment))


# ------------------------------------------------------------------- tgp

def load_tgp_bytes(data: bytes, path=None) -> Artifact:
    """Verify + parse ``.tgp`` bytes into a validated TGProgram."""
    from repro.core.program import parse_tgp
    header, payload = split_text_header(data, "tgp", path=path)
    if header is None:
        _warn_legacy("tgp", path)
    try:
        program = parse_tgp(payload)
    except Exception as error:
        raise _wrap_codec_error(error, "tgp", path) from None
    return Artifact("tgp", program, header, payload,
                    DiagnosticReport(path=path, kind="tgp"), path=path)


def load_tgp(path) -> Artifact:
    with open(path, "rb") as handle:
        return load_tgp_bytes(handle.read(), path=path)


def dump_tgp(program) -> str:
    """Emit headered ``.tgp`` text for a program."""
    return add_text_header("tgp", program.to_tgp())


def save_tgp(path, program) -> str:
    """Write a headered ``.tgp`` file; returns the payload CRC32 (hex)."""
    return _save_text(path, dump_tgp(program))


# ------------------------------------------------------------------- bin

def load_bin_bytes(data: bytes, path=None) -> Artifact:
    """Verify + decode ``.bin`` bytes into a validated TGProgram."""
    from repro.core.assembler import disassemble_binary
    header, payload = unwrap_binary(data, path=path)
    if header is None:
        _warn_legacy("bin", path)
    try:
        program = disassemble_binary(payload)
    except Exception as error:
        raise _wrap_codec_error(error, "bin", path) from None
    return Artifact("bin", program, header, payload,
                    DiagnosticReport(path=path, kind="bin"), path=path)


def load_bin(path) -> Artifact:
    with open(path, "rb") as handle:
        return load_bin_bytes(handle.read(), path=path)


def dump_bin(program) -> bytes:
    """Assemble a program into a container-wrapped ``.bin`` image."""
    from repro.core.assembler import assemble_binary
    return wrap_binary(assemble_binary(program))


def save_bin(path, program) -> str:
    """Write a wrapped ``.bin`` file; returns the payload CRC32 (hex)."""
    blob = dump_bin(program)
    with open(path, "wb") as handle:
        handle.write(blob)
    from repro.artifacts.header import BIN_HEADER_BYTES
    return crc32_hex(blob[BIN_HEADER_BYTES:])


def _load_snap_bytes(data: bytes, path=None) -> Artifact:
    # deferred: repro.artifacts.snap imports Artifact from this module
    from repro.artifacts.snap import load_snap_bytes
    return load_snap_bytes(data, path=path)


_LOADERS = {"trc": load_trc_bytes, "tgp": load_tgp_bytes,
            "bin": load_bin_bytes, "snap": _load_snap_bytes}


def load_artifact_bytes(kind: str, data: bytes, path=None,
                        strict: bool = True) -> Artifact:
    """Dispatch to the loader for ``kind`` (trc | tgp | bin | snap)."""
    if kind == "trc":
        return load_trc_bytes(data, path=path, strict=strict)
    try:
        loader = _LOADERS[kind]
    except KeyError:
        raise ValueError(f"unknown artifact kind {kind!r}") from None
    return loader(data, path=path)


def reserialize(artifact: Artifact) -> object:
    """Re-emit an artifact's payload from its parsed value.

    Used by the fuzz harness: a mutant whose header still verifies must
    reserialize to the identical payload (no silent wrong parse).
    """
    from repro.core.assembler import assemble_binary
    from repro.trace.trc_format import serialize_trc
    if artifact.kind == "trc":
        master_id, events = artifact.value
        return serialize_trc(events, master_id=master_id)
    if artifact.kind == "tgp":
        return artifact.value.to_tgp()
    if artifact.kind == "snap":
        from repro.artifacts.snap import canonical_snap_json
        return canonical_snap_json(artifact.value)
    return assemble_binary(artifact.value)


__all__ = [
    "Artifact",
    "TEMP_SUFFIX",
    "atomic_write_text",
    "dump_bin",
    "dump_tgp",
    "dump_trc",
    "load_artifact_bytes",
    "load_bin",
    "load_bin_bytes",
    "load_tgp",
    "load_tgp_bytes",
    "load_trc",
    "load_trc_bytes",
    "reserialize",
    "save_bin",
    "save_tgp",
    "save_trc",
]
