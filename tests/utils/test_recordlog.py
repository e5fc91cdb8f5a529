"""The shared record log: sealing, scanning, torn tails, the fsync rule."""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

import repro.utils.recordlog as recordlog
from repro.auction.events import EVENT_TYPES
from repro.durability.journal import KIND_COMMAND, EventDigest, decode_line
from repro.errors import JournalError
from repro.experiments.sharding import encode_checkpoint_record
from repro.faults.crash import (
    CRASH_MODES,
    CrashController,
    CrashPlan,
    SimulatedCrash,
)
from repro.utils.recordlog import (
    FSYNC_EVERY,
    RecordError,
    RecordWriter,
    canonical_json,
    checksum_text,
    cut_log,
    read_log,
    scan_lines,
    seal,
    unseal,
)


def _line(index: int) -> bytes:
    return seal({"n": index}, "checksum")[0]


def _decode(line: bytes) -> int:
    return unseal(line, "checksum")["n"]


class TestSealing:
    def test_canonical_json_sorts_keys_without_whitespace(self):
        assert canonical_json({"b": [1, 2], "a": {"d": 1, "c": 2}}) == (
            '{"a":{"c":2,"d":1},"b":[1,2]}'
        )

    def test_checksum_covers_the_canonical_body(self):
        line, digest = seal({"seq": 3, "kind": "x"}, "hash")
        assert line.endswith(b"\n")
        assert digest == checksum_text('{"kind":"x","seq":3}')
        assert line == (
            '{"hash":"%s","kind":"x","seq":3}\n' % digest
        ).encode("utf-8")

    def test_unseal_round_trips(self):
        line, digest = seal({"seq": 3}, "hash")
        assert unseal(line, "hash") == {"seq": 3, "hash": digest}

    @pytest.mark.parametrize(
        "line", [b"not json", b"[1, 2]", b'{"seq": 3}', b'{"seq":3,"hash":1}']
    )
    def test_unseal_rejects_garbage(self, line):
        with pytest.raises(RecordError):
            unseal(line, "hash")

    def test_unseal_rejects_a_tampered_body(self):
        document = json.loads(seal({"seq": 3}, "hash")[0])
        document["seq"] = 4
        with pytest.raises(RecordError, match="checksum mismatch"):
            unseal(json.dumps(document), "hash")


def _canonical(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _two_encode_seal(body, field):
    """The seal the one-encode ``seal`` replaced: encode, hash, re-encode."""
    digest = hashlib.sha256(_canonical(body).encode("utf-8")).hexdigest()
    line = _canonical({**body, field: digest}) + "\n"
    return line.encode("utf-8"), digest


def _sample_event(cls, text):
    """An instance of ``cls`` with every field set, strings to ``text``."""
    values = {"int": 3, "float": 2.5, "bool": True, "str": text}
    return cls(
        **{
            field.name: values[getattr(field.type, "__name__", field.type)]
            for field in dataclasses.fields(cls)
        }
    )


#: String values that need escapes in JSON: a quote, a backslash, and
#: non-ASCII text (escaped as \uXXXX, astral characters as pairs).
_AWKWARD_TEXT = ['say "hi"', "C:\\path\\x", "caf\u00e9 \u2713 \U0001f600"]


class TestSealEncodesOnce:
    """``seal`` splices the field into one encoding of the body; its
    lines are byte-identical to encoding the sealed record again."""

    @pytest.mark.parametrize("text", ["dropout", *_AWKWARD_TEXT])
    @pytest.mark.parametrize(
        "cls", list(EVENT_TYPES.values()), ids=lambda cls: cls.__name__
    )
    def test_journal_lines_match_the_two_encode_seal(self, cls, text):
        event = _sample_event(cls, text)
        emitted = EventDigest.of([event, event])
        body = {
            "emitted": emitted.to_dict(),
            "event": event.to_dict(),
            "kind": KIND_COMMAND,
            "prev": "ab" * 32,
            "seq": 7,
        }
        line, digest = seal(body, "hash")
        assert (line, digest) == _two_encode_seal(body, "hash")
        record = decode_line(line)
        assert (record.event, record.emitted, record.hash, record.seq) == (
            event, emitted, digest, 7
        )
        assert record.to_line().encode("utf-8") + b"\n" == line

    @pytest.mark.parametrize(
        "body",
        [
            {},
            {"a": 1},
            {"a": {"nested": [1, 2.5, None]}, "b": "x"},
            {"a": _AWKWARD_TEXT, "b": {"z": "\u00e9", "a": False}},
        ],
        ids=["empty", "one-key", "nested", "escapes"],
    )
    def test_no_key_after_the_field(self, body):
        line, digest = seal(body, "zz")
        assert (line, digest) == _two_encode_seal(body, "zz")
        assert unseal(line, "zz") == {**body, "zz": digest}

    def test_no_key_before_the_field(self):
        body = {"b": 1, "c": [2]}
        assert seal(body, "a") == _two_encode_seal(body, "a")

    def test_shard_checkpoint_record(self):
        line = encode_checkpoint_record(4, bytes(range(256)) * 3)
        body = json.loads(line)
        body.pop("checksum")
        assert line == _two_encode_seal(body, "checksum")[0]
        assert unseal(line, "checksum")["round"] == 4

    def test_a_body_holding_the_field_is_refused(self):
        with pytest.raises(ValueError, match="seal field"):
            seal({"hash": "x", "seq": 1}, "hash")


class TestScan:
    def test_clean_file(self):
        data = _line(0) + _line(1)
        scan = scan_lines(data, _decode)
        assert scan.records == ((0, 0), (len(_line(0)), 1))
        assert scan.bad_offset is None and not scan.torn

    def test_blank_lines_are_skipped(self):
        data = b"\n" + _line(0) + b"  \n" + _line(1)
        assert [v for _, v in scan_lines(data, _decode).records] == [0, 1]

    def test_cut_final_line_is_torn(self):
        data = _line(0) + _line(1)[:7]
        scan = scan_lines(data, _decode)
        assert [v for _, v in scan.records] == [0]
        assert scan.torn
        assert scan.bad_offset == len(_line(0))

    def test_final_line_missing_only_its_newline_is_torn(self):
        data = _line(0) + _line(1)[:-1]
        scan = scan_lines(data, _decode)
        assert [v for _, v in scan.records] == [0]
        assert scan.torn
        assert "newline" in str(scan.error)

    def test_bad_final_line_with_newline_is_torn(self):
        data = _line(0) + _line(1).replace(b'"n":1', b'"n":2')
        scan = scan_lines(data, _decode)
        assert scan.torn
        assert isinstance(scan.error, RecordError)

    def test_bad_earlier_line_is_not_torn(self):
        data = _line(0) + b"garbage\n" + _line(2)
        scan = scan_lines(data, _decode)
        assert [v for _, v in scan.records] == [0]
        assert scan.bad_offset == len(_line(0))
        assert not scan.torn

    def test_repro_errors_reject_a_line(self):
        def decode(line: bytes) -> int:
            raise JournalError("no")

        scan = scan_lines(_line(0), decode)
        assert scan.torn and isinstance(scan.error, JournalError)

    def test_empty_data(self):
        scan = scan_lines(b"", _decode)
        assert scan.records == () and scan.bad_offset is None

    def test_read_log_scans_a_file(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(_line(0) + _line(1)[:-1])
        scan = read_log(path, _decode)
        assert [value for _, value in scan.records] == [0]
        assert scan.bad_offset == len(_line(0)) and scan.torn

    def test_read_log_of_a_missing_file_is_empty(self, tmp_path):
        scan = read_log(tmp_path / "absent.jsonl", _decode)
        assert scan.records == () and scan.bad_offset is None


class TestWriter:
    def test_appends_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with RecordWriter(path) as log:
            log.append(_line(0))
            log.append(_line(1))
            assert log.appended == 2
            assert log.size == len(_line(0)) + len(_line(1))
        assert path.read_bytes() == _line(0) + _line(1)

    @pytest.mark.parametrize("cut", [1, 9])
    def test_open_cuts_a_torn_tail(self, tmp_path, cut):
        path = tmp_path / "log.jsonl"
        path.write_bytes(_line(0) + _line(1)[:-cut])
        with RecordWriter(path) as log:
            assert log.size == len(_line(0))
            log.append(_line(2))
        assert path.read_bytes() == _line(0) + _line(2)

    def test_open_cuts_a_lone_partial_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(_line(0)[:-1])
        with RecordWriter(path) as log:
            assert log.size == 0

    def test_open_cuts_a_long_partial_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        partial = b'{"payload":"' + b"x" * 200_000
        path.write_bytes(_line(0) + partial)
        RecordWriter(path).close()
        assert path.read_bytes() == _line(0)

    def test_open_leaves_a_whole_file_alone(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(_line(0))
        RecordWriter(path).close()
        assert path.read_bytes() == _line(0)

    def test_open_keeps_the_torn_tail_as_evidence(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"a":1}\n{"torn')
        with RecordWriter(path) as log:
            log.append(b'{"b":2}\n')
        assert path.read_bytes() == b'{"a":1}\n{"b":2}\n'
        evidence = tmp_path / "log.jsonl.corrupt"
        assert evidence.read_bytes() == b'{"torn'

    def test_open_of_a_whole_file_leaves_no_evidence(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(_line(0))
        RecordWriter(path).close()
        assert not (tmp_path / "log.jsonl.corrupt").exists()

    def test_cut_log_keeps_the_cut_bytes(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(_line(0) + _line(1) + _line(2))
        cut_log(path, len(_line(0) + _line(1)))
        cut_log(path, len(_line(0)))
        assert path.read_bytes() == _line(0)
        evidence = tmp_path / "log.jsonl.corrupt"
        assert evidence.read_bytes() == _line(2) + _line(1)


class TestFsyncRule:
    @pytest.fixture
    def fsyncs(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            recordlog.os, "fsync", lambda fd: calls.append(fd)
        )
        return calls

    def test_every_eighth_record_is_due(self, tmp_path, fsyncs):
        log = RecordWriter(tmp_path / "log.jsonl")
        due = []
        for index in range(2 * FSYNC_EVERY):
            due.append(log.append(_line(index)))
            if due[-1]:
                log.sync()
        log.close()
        assert FSYNC_EVERY == 8
        assert [i + 1 for i, d in enumerate(due) if d] == [8, 16]
        assert len(fsyncs) == 2  # nothing pending at close

    def test_close_fsyncs_the_pending_tail(self, tmp_path, fsyncs):
        log = RecordWriter(tmp_path / "log.jsonl")
        log.append(_line(0))
        log.close()
        log.close()  # idempotent
        assert len(fsyncs) == 1

    def test_close_without_appends_does_not_fsync(self, tmp_path, fsyncs):
        RecordWriter(tmp_path / "log.jsonl").close()
        assert fsyncs == []


class TestCrashHook:
    @pytest.mark.parametrize("mode", CRASH_MODES)
    def test_the_crashed_write_leaves_a_torn_or_whole_tail(
        self, tmp_path, mode
    ):
        path = tmp_path / "log.jsonl"
        controller = CrashController(CrashPlan(after_writes=3, mode=mode))
        log = RecordWriter(path, crash_hook=controller)
        log.append(_line(0))
        log.append(_line(1))
        with pytest.raises(SimulatedCrash, match="write 3 of its file"):
            log.append(_line(2))
        log.close()
        scan = scan_lines(path.read_bytes(), _decode)
        survivors = [v for _, v in scan.records]
        if mode in ("clean", "duplicate"):
            assert survivors[:3] == [0, 1, 2] and not scan.torn
        else:
            assert survivors == [0, 1] and scan.torn

    def test_flip_finds_the_sealed_field(self, tmp_path):
        path = tmp_path / "log.jsonl"
        controller = CrashController(
            CrashPlan(after_writes=1, mode="flip", flip_offset=5)
        )
        with RecordWriter(path, crash_hook=controller) as log:
            with pytest.raises(SimulatedCrash):
                log.append(
                    seal({"hash": "not-the-seal", "n": 1}, "checksum")[0]
                )
        document = json.loads(path.read_bytes())
        assert document["hash"] == "not-the-seal"
        with pytest.raises(RecordError, match="checksum mismatch"):
            unseal(path.read_bytes(), "checksum")
