"""Unit tests for the hardened artifact loaders (repro.artifacts)."""

import os
import stat
import struct

import pytest

from repro.artifacts import (
    Artifact,
    ChecksumMismatch,
    ParseDiagnostic,
    TruncatedArtifact,
    VersionMismatch,
    add_text_header,
    dump_bin,
    dump_tgp,
    dump_trc,
    load_artifact_bytes,
    load_bin,
    load_bin_bytes,
    load_tgp_bytes,
    load_trc,
    load_trc_bytes,
    reserialize,
    save_bin,
    save_tgp,
    save_trc,
    wrap_binary,
)
from repro.artifacts.header import BIN_HEADER_BYTES, BIN_MAGIC
from repro.artifacts.io import TEMP_SUFFIX, atomic_write_text
from repro.trace import Translator, TranslatorOptions
from repro.trace.trc_format import (
    MAX_MASTER_ID,
    TrcParseError,
    parse_trc,
    serialize_trc,
)

pytestmark = pytest.mark.artifacts

TRACE = """\
; master 2
REQ RD 0x00000104 @55ns
ACC RD 0x00000104 @60ns
RESP RD 0x00000104 0x088000f0 @75ns
REQ WR 0x00000020 0x00000111 @90ns
ACC WR 0x00000020 @95ns
"""


@pytest.fixture()
def events():
    return parse_trc(TRACE)[1]


@pytest.fixture()
def program(events):
    return Translator(TranslatorOptions()).translate_events(events, 2)


# ------------------------------------------------------------ round trips

class TestRoundTrips:
    def test_trc(self, tmp_path, events):
        path = tmp_path / "a.trc"
        crc = save_trc(path, events, master_id=2)
        artifact = load_trc(path)
        assert not artifact.legacy
        assert artifact.header["kind"] == "trc"
        assert artifact.checksum == crc
        master_id, loaded = artifact.value
        assert master_id == 2
        assert loaded == events
        assert reserialize(artifact) == artifact.payload

    def test_tgp(self, tmp_path, program):
        path = tmp_path / "a.tgp"
        save_tgp(path, program)
        artifact = load_tgp_bytes(path.read_bytes(), path=path)
        assert not artifact.legacy
        assert artifact.value == program
        assert reserialize(artifact) == artifact.payload

    def test_bin(self, tmp_path, program):
        path = tmp_path / "a.bin"
        save_bin(path, program)
        artifact = load_bin(path)
        assert not artifact.legacy
        assert artifact.header["format_version"] == 1
        assert artifact.value == program
        assert reserialize(artifact) == artifact.payload

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            load_artifact_bytes("elf", b"whatever")


# ----------------------------------------------------------------- legacy

class TestLegacy:
    def test_trc_headerless_warns_and_matches(self, events):
        legacy = serialize_trc(events, master_id=2).encode("utf-8")
        with pytest.warns(DeprecationWarning):
            artifact = load_trc_bytes(legacy)
        assert artifact.legacy
        assert artifact.value == (2, events)
        # byte-for-byte the same parse as the headered form
        headered = load_trc_bytes(dump_trc(events, master_id=2).encode())
        assert artifact.value == headered.value

    def test_tgp_headerless_warns(self, program):
        with pytest.warns(DeprecationWarning):
            artifact = load_tgp_bytes(program.to_tgp().encode("utf-8"))
        assert artifact.legacy
        assert artifact.value == program

    def test_bin_headerless_warns(self, program):
        from repro.core.assembler import assemble_binary
        with pytest.warns(DeprecationWarning):
            artifact = load_bin_bytes(assemble_binary(program))
        assert artifact.legacy
        assert artifact.value == program

    def test_headered_load_does_not_warn(self, recwarn, events):
        load_trc_bytes(dump_trc(events).encode("utf-8"))
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]


# ----------------------------------------------------------- text defects

class TestTextHeaderDefects:
    def _headered(self, events):
        return dump_trc(events, master_id=2)

    def test_checksum_mismatch(self, events):
        data = self._headered(events).replace("0x00000104", "0x00000105")
        with pytest.raises(ChecksumMismatch):
            load_trc_bytes(data.encode("utf-8"))

    def test_truncated(self, events):
        data = self._headered(events)
        with pytest.raises(TruncatedArtifact):
            load_trc_bytes(data[:len(data) // 2].encode("utf-8"))

    def test_trailing_data(self, events):
        data = self._headered(events) + "REQ RD 0x0 @999ns\n"
        with pytest.raises(ChecksumMismatch):
            load_trc_bytes(data.encode("utf-8"))

    def test_version_mismatch(self, events):
        data = self._headered(events).replace("trc v1", "trc v99", 1)
        with pytest.raises(VersionMismatch) as excinfo:
            load_trc_bytes(data.encode("utf-8"))
        assert excinfo.value.found == 99
        assert excinfo.value.supported == 1

    def test_kind_mismatch(self, program):
        data = dump_tgp(program).encode("utf-8")
        with pytest.raises(ParseDiagnostic) as excinfo:
            load_trc_bytes(data)
        assert "tgp" in str(excinfo.value)

    def test_malformed_header(self):
        with pytest.raises(ParseDiagnostic):
            load_trc_bytes(b";#ARTIFACT mush\nREQ RD 0x0 @1ns\n")

    def test_not_utf8(self):
        data = add_text_header("trc", "; master 0\n").encode("utf-8")
        with pytest.raises(ParseDiagnostic):
            load_trc_bytes(data + b"\xff\xfe\x00")

    def test_error_carries_path_and_exit_code(self, tmp_path, events):
        path = tmp_path / "bad.trc"
        data = self._headered(events)
        header_line, _, payload = data.partition("\n")
        path.write_text(header_line + "\n" + payload[:len(payload) // 2])
        with pytest.raises(TruncatedArtifact) as excinfo:
            load_trc(path)
        assert str(path) in str(excinfo.value)
        assert excinfo.value.exit_code == 7
        assert excinfo.value.as_dict()["type"] == "TruncatedArtifact"


# --------------------------------------------------------- binary defects

class TestBinaryDefects:
    def test_checksum_mismatch(self, program):
        blob = bytearray(dump_bin(program))
        blob[-1] ^= 0xFF
        with pytest.raises(ChecksumMismatch):
            load_bin_bytes(bytes(blob))

    def test_truncated_payload(self, program):
        blob = dump_bin(program)
        with pytest.raises(TruncatedArtifact):
            load_bin_bytes(blob[:BIN_HEADER_BYTES + 4])

    def test_truncated_header(self):
        with pytest.raises(TruncatedArtifact):
            load_bin_bytes(BIN_MAGIC + b"\x01")

    def test_tiny_blob(self):
        with pytest.raises(TruncatedArtifact):
            load_bin_bytes(b"RT")

    def test_bad_magic(self):
        with pytest.raises(ParseDiagnostic):
            load_bin_bytes(b"ELF\x7f" + b"\0" * 64)

    def test_version_mismatch(self, program):
        blob = bytearray(dump_bin(program))
        struct.pack_into("<I", blob, 4, 99)
        with pytest.raises(VersionMismatch):
            load_bin_bytes(bytes(blob))

    def test_container_wraps_legacy_image_unchanged(self, program):
        from repro.core.assembler import assemble_binary
        image = assemble_binary(program)
        assert dump_bin(program) == wrap_binary(image)
        assert dump_bin(program)[BIN_HEADER_BYTES:] == image


# ----------------------------------------------------- strict/permissive

BAD_TRACE = """\
; master 1
REQ RD 0x00000104 @55ns
this line is noise
RESP RD 0x00000104 0x01 @75ns
RESP WR 0x00000999 @80ns
REQ WR 0x00000020 0x01 @85ns
"""


class TestPermissive:
    def test_strict_raises_first_defect(self):
        with pytest.raises(TrcParseError):
            load_trc_bytes(add_text_header("trc", BAD_TRACE).encode())

    def test_permissive_skips_and_reports(self):
        data = add_text_header("trc", BAD_TRACE).encode("utf-8")
        artifact = load_trc_bytes(data, strict=False)
        master_id, events = artifact.value
        assert master_id == 1
        assert len(events) == 3  # REQ, RESP, late REQ kept
        report = artifact.report
        assert len(report) == 2  # noise line + orphan RESP WR
        assert report.skipped == 2
        assert "skipped 2 bad records" in report.summary()
        kinds = [d.line for d in report]
        assert kinds == sorted(kinds)

    def test_report_serializes(self):
        data = add_text_header("trc", BAD_TRACE).encode("utf-8")
        artifact = load_trc_bytes(data, path="x.trc", strict=False)
        payload = artifact.report.as_dict()
        assert payload["kind"] == "trc"
        assert payload["skipped"] == 2
        assert all(d["type"] == "TrcParseError"
                   for d in payload["diagnostics"])


# --------------------------------------------------- trc record validation

class TestTrcValidation:
    def test_declining_timestamp_rejected(self):
        text = ("REQ RD 0x10 @50ns\nACC RD 0x10 @60ns\n"
                "RESP RD 0x10 0x1 @40ns\n")
        with pytest.raises(TrcParseError) as excinfo:
            parse_trc(text)
        assert "declines" in str(excinfo.value)
        assert excinfo.value.line == 3

    def test_equal_timestamps_allowed(self):
        text = ("REQ WR 0x10 0x1 @50ns\nACC WR 0x10 @55ns\n"
                "REQ RD 0x20 @55ns\nACC RD 0x20 @60ns\n"
                "RESP RD 0x20 0x2 @70ns\n")
        _, events = parse_trc(text)
        assert len(events) == 5

    def test_duplicate_record_rejected(self):
        text = "REQ RD 0x10 @50ns\nREQ RD 0x10 @50ns\n"
        with pytest.raises(TrcParseError) as excinfo:
            parse_trc(text)
        assert "duplicate" in str(excinfo.value)

    def test_master_id_out_of_range(self):
        with pytest.raises(TrcParseError):
            parse_trc(f"; master {MAX_MASTER_ID + 1}\nREQ RD 0x10 @5ns\n")
        master_id, _ = parse_trc(f"; master {MAX_MASTER_ID}\n")
        assert master_id == MAX_MASTER_ID

    def test_diagnostic_renders_location(self):
        with pytest.raises(TrcParseError) as excinfo:
            parse_trc("garbage record\n")
        rendered = str(excinfo.value)
        assert "1:1" in rendered
        assert "hint:" in rendered


# ---------------------------------------------------------------- repr &c

def test_artifact_repr_and_checksum(events):
    artifact = load_trc_bytes(dump_trc(events).encode("utf-8"))
    assert isinstance(artifact, Artifact)
    assert "verified" in repr(artifact)
    assert artifact.header["crc32"] == artifact.checksum


# ---------------------------------------------------------- atomic writes

SNAP_PAYLOAD = {"cycle": 5, "kernel": {}, "components": {}, "pending": [],
                "platform": {}}


class TestAtomicWriteText:
    def test_replaces_and_leaves_only_the_file(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"
        assert os.listdir(tmp_path) == ["out.json"]

    def test_failed_rename_keeps_old_bytes(self, tmp_path, monkeypatch):
        path = tmp_path / "out.json"
        path.write_text("old")

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            atomic_write_text(path, "new")
        assert path.read_text() == "old"
        assert os.listdir(tmp_path) == ["out.json"]

    def test_temp_file_naming(self, tmp_path, monkeypatch):
        seen = []
        real_replace = os.replace

        def spy(src, dst):
            seen.append(os.path.basename(src))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        atomic_write_text(tmp_path / "ckpt-1.snap", "x")
        (name,) = seen
        assert name.startswith("ckpt-1.snap.")
        assert name.endswith(TEMP_SUFFIX)

    @pytest.fixture()
    def umask_027(self):
        old = os.umask(0o027)
        yield
        os.umask(old)

    @pytest.mark.parametrize("store", ["checkpoint", "cache entry",
                                       "cache snapshot"])
    def test_store_files_take_the_umask_default_mode(self, tmp_path,
                                                     umask_027, store):
        from repro.artifacts.snap import dump_snap
        from repro.harness import CheckpointManager, ResultCache
        if store == "checkpoint":
            path = CheckpointManager(tmp_path).save(SNAP_PAYLOAD)
        elif store == "cache entry":
            cache = ResultCache(tmp_path)
            cache.put("k" * 64, {"cycles": 1})
            path = cache.path_for("k" * 64)
        else:
            path = ResultCache(tmp_path).put_snap("d" * 64,
                                                  dump_snap(SNAP_PAYLOAD))
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o666 & ~0o027
