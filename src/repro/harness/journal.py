"""Write-ahead journal for sweep execution: ``sweep.journal.jsonl``.

A 500-point overnight sweep that dies at point 412 must not restart
from scratch — the paper's trace-once-evaluate-cheaply economics only
hold if completed work survives crashes, hangs and Ctrl-C.  The journal
is the durability substrate: every state transition of every grid point
is appended (and fsynced) *before* the engine moves on, so
``repro-sweep --resume DIR`` can replay the file and re-run exactly the
unfinished points.

The file is JSON-lines; every record carries a CRC32 of its own
canonical JSON (the same checksum convention as the ``.trc``/``.tgp``
artifact headers and the result cache), so a half-written record from a
crash is distinguishable from silent corruption:

* a **torn final line** (the process died mid-append) is expected:
  it is dropped on load, and :meth:`SweepJournal.resume` truncates it
  away before appending so the resumed run starts on a fresh line;
* a **corrupt interior record** means the file was edited or damaged
  and raises :class:`~repro.artifacts.ChecksumMismatch` — resuming from
  an untrustworthy journal would silently skip work.

Record types (all carry ``"crc32"``; ``index`` is the grid-point
index from :func:`~repro.harness.parallel.expand_grid`):

========== ===========================================================
``header``      spec dict, total point count, package version
``started``     a worker picked the point up (``attempt`` counts from 0)
``ok``          terminal success: the picklable result ``summary`` + wall
                (+ the ``warmup`` class digest on fast-forwarded
                points)
``failed``      one failed attempt: failure ``kind``/``message``/
                ``traceback``; ``final`` marks a terminal failure
``quarantined`` the point exhausted its retries; resume skips it unless
                asked to re-queue
``interrupted`` the operator stopped the sweep while this attempt ran
========== ===========================================================

:class:`JournalState` is the replayed view: which points are finished
(ok or terminally failed), how many attempts each consumed, and which
are merely *started* (in flight when the driver died).
"""

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Set, Union

from repro.artifacts import ChecksumMismatch, ParseDiagnostic

__all__ = ["JOURNAL_FILENAME", "JournalState", "SweepJournal",
           "journal_path"]

JOURNAL_FILENAME = "sweep.journal.jsonl"


def journal_path(directory: Union[str, Path]) -> Path:
    return Path(directory) / JOURNAL_FILENAME


def _record_crc(record: Dict) -> str:
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return f"{zlib.crc32(blob.encode('utf-8')) & 0xFFFFFFFF:08x}"


def _spec_fingerprint(spec: Dict) -> str:
    blob = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return f"{zlib.crc32(blob.encode('utf-8')) & 0xFFFFFFFF:08x}"


@dataclass
class JournalState:
    """The replayed view of a journal: what is finished, what remains."""

    spec: Optional[Dict] = None
    version: Optional[str] = None
    total: int = 0
    #: index -> terminal ``ok`` record (summary + wall + attempt).
    ok: Dict[int, Dict] = field(default_factory=dict)
    #: index -> terminal ``failed`` record (kind/message/traceback).
    failed: Dict[int, Dict] = field(default_factory=dict)
    quarantined: Set[int] = field(default_factory=set)
    #: points whose last record is ``started``/``interrupted`` — in
    #: flight when the previous driver stopped.
    in_flight: Set[int] = field(default_factory=set)
    #: index -> attempts consumed so far (count of ``started`` records).
    attempts: Dict[int, int] = field(default_factory=dict)
    #: a torn trailing record was dropped on load.
    torn_tail: bool = False
    #: byte offset of the end of the last valid record (newline
    #: included) — everything past it is torn/blank tail to discard
    #: before appending.
    valid_bytes: int = 0

    def finished(self, index: int) -> bool:
        return index in self.ok or index in self.failed

    @property
    def records(self) -> int:
        """Journalled point outcomes (not counting the header)."""
        return len(self.ok) + len(self.failed)

    def unfinished_of(self, total: int) -> Set[int]:
        return {i for i in range(total) if not self.finished(i)}


class SweepJournal:
    """Append-only, checksummed record of one sweep's execution.

    Use :meth:`create` for a fresh sweep and :meth:`resume` to continue
    an interrupted one; both leave the journal open for appending.
    Every ``record_*`` call flushes and fsyncs before returning — a
    record is on disk before the engine acts on it (write-ahead).
    """

    def __init__(self, path: Path, handle, state: JournalState):
        self.path = Path(path)
        self._handle = handle
        self.state = state

    # ------------------------------------------------------ construction

    @classmethod
    def create(cls, directory: Union[str, Path], spec: Dict,
               total: int, version: str) -> "SweepJournal":
        """Start a fresh journal; refuses to overwrite an existing one."""
        path = journal_path(directory)
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.exists():
            raise ParseDiagnostic(
                "journal already exists", path=path,
                hint="resume it with --resume, or point --journal at a "
                     "fresh directory")
        handle = open(path, "a")
        journal = cls(path, handle,
                      JournalState(spec=spec, version=version, total=total))
        journal._append({"type": "header", "spec": spec, "points": total,
                         "version": version,
                         "spec_crc32": _spec_fingerprint(spec)})
        return journal

    @classmethod
    def resume(cls, directory: Union[str, Path],
               spec: Optional[Dict] = None) -> "SweepJournal":
        """Load an existing journal and open it for appending.

        When ``spec`` is given it must fingerprint-match the journal's
        header — resuming a journal against a *different* sweep would
        serve wrong results.

        A torn tail (the previous run died mid-append) is truncated
        away *before* reopening for append; otherwise the first record
        of the resumed run would be glued onto the partial line,
        producing a corrupt interior record on the next replay.
        """
        path = journal_path(directory)
        state = cls.read_state(directory)
        if state.spec is None:
            raise ParseDiagnostic(
                "journal has no header record", path=path,
                hint="the file is empty or damaged; start a fresh sweep")
        if spec is not None and \
                _spec_fingerprint(spec) != _spec_fingerprint(state.spec):
            raise ParseDiagnostic(
                "journal was written by a different sweep spec",
                path=path,
                hint="resume without a spec file, or use a fresh "
                     "--journal directory for the new spec")
        cls._repair_tail(path, state)
        return cls(path, open(path, "a"), state)

    @staticmethod
    def _repair_tail(path: Path, state: JournalState) -> None:
        """Drop torn trailing bytes so appends start on a fresh line."""
        with open(path, "r+b") as handle:
            handle.seek(0, os.SEEK_END)
            size = handle.tell()
            last_byte = b""
            if size:
                handle.seek(size - 1)
                last_byte = handle.read(1)
            if size == state.valid_bytes and \
                    (size == 0 or last_byte == b"\n"):
                state.torn_tail = False
                return
            handle.truncate(state.valid_bytes)
            if state.valid_bytes:
                handle.seek(state.valid_bytes - 1)
                if handle.read(1) != b"\n":
                    handle.write(b"\n")
            handle.flush()
            os.fsync(handle.fileno())
        state.torn_tail = False

    @staticmethod
    def read_state(directory: Union[str, Path]) -> JournalState:
        """Replay a journal file into a :class:`JournalState`.

        A torn final line is dropped (a crash mid-append is exactly what
        the journal exists to survive); a corrupt *interior* record
        raises :class:`~repro.artifacts.ChecksumMismatch`.
        """
        path = journal_path(directory)
        state = JournalState()
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            raise ParseDiagnostic(
                "no sweep journal found", path=path,
                hint=f"expected {JOURNAL_FILENAME} in the sweep directory")
        raw_lines = data.split(b"\n")
        if raw_lines and raw_lines[-1] == b"":
            raw_lines.pop()        # the file ends with a newline
        offset = 0
        for number, raw in enumerate(raw_lines, start=1):
            end = offset + len(raw)
            has_newline = end < len(data)     # data[end] == b"\n"
            line_bytes = end + (1 if has_newline else 0) - offset
            last = number == len(raw_lines)
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                if not last:
                    raise ChecksumMismatch(
                        f"journal line {number} is not a valid record",
                        path=path,
                        hint="the journal was edited or damaged mid-file; "
                             "start a fresh sweep")
                record = None
            else:
                if not line.strip():
                    offset += line_bytes
                    state.valid_bytes = offset
                    continue
                record = _decode(path, number, line, last=last)
            if record is None:
                state.torn_tail = True
                break
            _replay(state, record)
            offset += line_bytes
            state.valid_bytes = offset
        return state

    # ----------------------------------------------------------- records

    def _append(self, record: Dict) -> None:
        record["crc32"] = _record_crc(record)
        self._handle.write(
            json.dumps(record, sort_keys=True, separators=(",", ":"))
            + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        _replay(self.state, record)

    def record_started(self, index: int, attempt: int,
                       key: Optional[str] = None) -> None:
        self._append({"type": "started", "index": index,
                      "attempt": attempt, "key": key})

    def record_ok(self, index: int, attempt: int, summary: Dict,
                  wall: Optional[float] = None,
                  source: str = "simulated",
                  warmup: Optional[str] = None) -> None:
        """``warmup`` is the :func:`~repro.harness.cache.warmup_digest`
        naming a fast-forwarded point's warm-up class, whether the point
        restored the class's shared snapshot or ran its own warm-up; the
        key is present only on records of fast-forwarded points, so
        journals written without warm-up are byte-identical to earlier
        versions."""
        record = {"type": "ok", "index": index, "attempt": attempt,
                  "summary": summary, "wall": wall, "source": source}
        if warmup is not None:
            record["warmup"] = warmup
        self._append(record)

    def record_failed(self, index: int, attempt: int, kind: str,
                      message: str, traceback: Optional[str] = None,
                      final: bool = False) -> None:
        self._append({"type": "failed", "index": index, "attempt": attempt,
                      "kind": kind, "message": message,
                      "traceback": traceback, "final": final})

    def record_quarantined(self, index: int, attempts: int) -> None:
        self._append({"type": "quarantined", "index": index,
                      "attempts": attempts})

    def record_interrupted(self, index: int, attempt: int) -> None:
        self._append({"type": "interrupted", "index": index,
                      "attempt": attempt})

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"<SweepJournal {self.path} "
                f"{self.state.records}/{self.state.total} journalled>")


# ------------------------------------------------------------- internals

def _decode(path: Path, number: int, line: str,
            last: bool) -> Optional[Dict]:
    """One journal line -> record dict; None for a tolerated torn tail."""
    try:
        record = json.loads(line)
        if not isinstance(record, dict):
            raise ValueError("record is not an object")
        claimed = record.pop("crc32")
    except (ValueError, KeyError):
        if last:
            return None
        raise ChecksumMismatch(
            f"journal line {number} is not a valid record", path=path,
            hint="the journal was edited or damaged mid-file; "
                 "start a fresh sweep")
    if _record_crc(record) != claimed:
        if last:
            return None
        raise ChecksumMismatch(
            f"journal line {number} fails its CRC32 checksum", path=path,
            hint="the journal was edited or damaged mid-file; "
                 "start a fresh sweep")
    return record


def _replay(state: JournalState, record: Dict) -> None:
    kind = record.get("type")
    index = record.get("index")
    if kind == "header":
        state.spec = record.get("spec")
        state.version = record.get("version")
        state.total = record.get("points", 0)
    elif kind == "started":
        state.attempts[index] = state.attempts.get(index, 0) + 1
        state.in_flight.add(index)
    elif kind == "ok":
        state.ok[index] = record
        state.in_flight.discard(index)
    elif kind == "failed":
        state.in_flight.discard(index)
        if record.get("final"):
            state.failed[index] = record
    elif kind == "quarantined":
        state.quarantined.add(index)
        state.in_flight.discard(index)
    elif kind == "interrupted":
        state.in_flight.add(index)
