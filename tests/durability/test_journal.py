"""Unit tests for the write-ahead journal: format, chain, recovery."""

from __future__ import annotations

import json

import pytest

from repro.auction.events import PhoneDropped, SlotClosed
from repro.durability import (
    GENESIS_HASH,
    JOURNAL_VERSION,
    KIND_CLOSE,
    KIND_COMMAND,
    EventDigest,
    Journal,
    decode_line,
    scan_journal,
    segment_paths,
)
from repro.errors import JournalError
from repro.utils.recordlog import canonical_json, checksum_text


def _fill(journal, count, kind=KIND_COMMAND):
    return [
        journal.append(kind, PhoneDropped(slot=1, phone_id=i))
        for i in range(count)
    ]


def _segment(directory):
    (path,) = segment_paths(directory)
    return path


class TestRecordFormat:
    def test_first_record_chains_from_genesis(self, tmp_path):
        with Journal(tmp_path) as journal:
            record = journal.append(
                KIND_COMMAND, PhoneDropped(slot=2, phone_id=9)
            )
        assert record.seq == 1
        assert record.prev == GENESIS_HASH
        assert record.version == JOURNAL_VERSION
        assert record.hash == checksum_text(
            canonical_json(
                {
                    "event": record.event.to_dict(),
                    "kind": KIND_COMMAND,
                    "prev": GENESIS_HASH,
                    "seq": 1,
                    "version": JOURNAL_VERSION,
                }
            )
        )

    def test_lines_are_canonical_json(self, tmp_path):
        digest = EventDigest.of([SlotClosed(slot=1, pool_size=4)])
        with Journal(tmp_path) as journal:
            journal.append(KIND_COMMAND, PhoneDropped(slot=1, phone_id=2))
            journal.append(KIND_CLOSE, None, digest)
        header, close = _segment(tmp_path).read_text().splitlines()
        for line, keys in (
            (header, ["event", "hash", "kind", "prev", "seq", "version"]),
            (close, ["emitted", "hash", "kind", "prev", "seq"]),
        ):
            document = json.loads(line)
            assert sorted(document) == keys
            assert line == json.dumps(
                document, sort_keys=True, separators=(",", ":")
            )
        assert json.loads(close)["emitted"] == {
            "count": 1,
            "sha256": checksum_text(
                canonical_json([SlotClosed(slot=1, pool_size=4).to_dict()])
            ),
        }

    def test_decode_line_round_trips(self, tmp_path):
        with Journal(tmp_path) as journal:
            record = journal.append(
                KIND_COMMAND, PhoneDropped(slot=1, phone_id=5)
            )
        assert decode_line(record.to_line()) == record

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            "[1,2,3]",
            '{"seq":1}',
        ],
    )
    def test_decode_line_rejects_garbage(self, line):
        with pytest.raises(JournalError):
            decode_line(line)

    def test_decode_line_rejects_tampered_payload(self, tmp_path):
        with Journal(tmp_path) as journal:
            record = journal.append(
                KIND_COMMAND, PhoneDropped(slot=1, phone_id=5)
            )
        document = json.loads(record.to_line())
        document["event"]["phone_id"] = 6  # bid tampering
        with pytest.raises(JournalError, match="checksum mismatch"):
            decode_line(json.dumps(document, sort_keys=True))


class TestAppendAndScan:
    def test_sequence_numbers_are_monotonic_from_one(self, tmp_path):
        with Journal(tmp_path) as journal:
            records = _fill(journal, 5)
        assert [r.seq for r in records] == [1, 2, 3, 4, 5]

    def test_hash_chain_links_consecutive_records(self, tmp_path):
        with Journal(tmp_path) as journal:
            records = _fill(journal, 4)
        for previous, current in zip(records, records[1:]):
            assert current.prev == previous.hash

    def test_scan_reads_back_everything(self, tmp_path):
        with Journal(tmp_path) as journal:
            written = _fill(journal, 6)
        scan = scan_journal(tmp_path)
        assert list(scan.records) == written
        assert not scan.torn
        assert scan.last_seq == 6

    def test_reopen_resumes_the_chain(self, tmp_path):
        with Journal(tmp_path) as journal:
            first = _fill(journal, 3)
        with Journal(tmp_path) as journal:
            assert journal.last_seq == 3
            record = journal.append(
                KIND_COMMAND, PhoneDropped(slot=1, phone_id=99)
            )
        assert record.seq == 4
        assert record.prev == first[-1].hash

    def test_only_recovered_records_stay_in_memory(self, tmp_path):
        with Journal(tmp_path) as journal:
            written = _fill(journal, 3)
            assert journal.recovered == ()
            assert journal.last_seq == 3
        with Journal(tmp_path) as journal:
            assert list(journal.recovered) == written
            _fill(journal, 2)
            assert list(journal.recovered) == written
            assert journal.last_seq == 5

    @pytest.mark.parametrize("fsync", ["always", "batch", "off"])
    def test_all_fsync_policies_persist(self, tmp_path, fsync):
        # Each id names a former fsync policy; the one remaining rule
        # still gives the guarantee that policy stood for.
        directory = tmp_path / fsync
        journal = Journal(directory)
        try:
            for index in range(9):
                record = journal.append(
                    KIND_COMMAND, PhoneDropped(slot=1, phone_id=index)
                )
                if fsync == "always":
                    # every record is readable as soon as append returns
                    assert scan_journal(directory).last_seq == record.seq
            if fsync == "off":
                # flushed records outlive a journal that is never closed
                with Journal(directory) as reopened:
                    assert reopened.last_seq == 9
                    assert reopened.append(
                        KIND_COMMAND, SlotClosed(slot=1, pool_size=9)
                    ).prev == record.hash
        finally:
            journal.close()
        expected = 10 if fsync == "off" else 9
        assert scan_journal(directory).last_seq == expected

    def test_fsync_every_eighth_record_and_on_close(
        self, tmp_path, monkeypatch
    ):
        syncs = []
        real_sync = Journal.sync

        def counting_sync(journal):
            syncs.append(journal.last_seq)
            real_sync(journal)

        monkeypatch.setattr(Journal, "sync", counting_sync)
        with Journal(tmp_path) as journal:
            _fill(journal, 17)
        # Journal.sync runs before the record is counted: after records
        # 8 and 16 land, then once on close.
        assert syncs == [7, 15, 17]
        assert scan_journal(tmp_path).last_seq == 17

    @pytest.fixture
    def syncs(self, monkeypatch):
        calls = []
        real_sync = Journal.sync

        def counting_sync(journal):
            calls.append(journal.last_seq)
            real_sync(journal)

        monkeypatch.setattr(Journal, "sync", counting_sync)
        return calls

    def test_close_fsyncs_only_when_records_are_pending(
        self, tmp_path, syncs
    ):
        with Journal(tmp_path) as journal:
            _fill(journal, 16)
        # Records 8 and 16 were fsynced as they landed; close has
        # nothing left to sync.
        assert syncs == [7, 15]

    def test_close_fsyncs_a_torn_tail_cut_at_open(self, tmp_path, syncs):
        with Journal(tmp_path) as journal:
            _fill(journal, 16)
        segment = _segment(tmp_path)
        data = segment.read_bytes()
        segment.write_bytes(data[:-17])  # tear into the last record
        del syncs[:]
        Journal(tmp_path).close()
        # The cut is the only pending change, and it reaches disk.
        assert syncs == [15]
        del syncs[:]
        Journal(tmp_path).close()
        assert syncs == []

    def test_closed_journal_refuses_appends(self, tmp_path):
        journal = Journal(tmp_path)
        journal.close()
        journal.close()  # idempotent
        with pytest.raises(JournalError, match="closed"):
            journal.append(KIND_COMMAND, PhoneDropped(slot=1, phone_id=0))


class TestRotation:
    def test_segments_rotate_by_size(self, tmp_path):
        with Journal(tmp_path, segment_bytes=256) as journal:
            _fill(journal, 20)
        segments = segment_paths(tmp_path)
        assert len(segments) > 1
        assert [p.name for p in segments] == sorted(p.name for p in segments)

    def test_scan_spans_segments(self, tmp_path):
        with Journal(tmp_path, segment_bytes=256) as journal:
            written = _fill(journal, 20)
        scan = scan_journal(tmp_path)
        assert list(scan.records) == written
        assert len(scan.segments) == len(segment_paths(tmp_path))

    def test_reopen_after_rotation_appends_to_last_segment(self, tmp_path):
        with Journal(tmp_path, segment_bytes=256) as journal:
            _fill(journal, 20)
            last_seq = journal.last_seq
        with Journal(tmp_path, segment_bytes=256) as journal:
            journal.append(KIND_COMMAND, PhoneDropped(slot=1, phone_id=77))
        assert scan_journal(tmp_path).last_seq == last_seq + 1


class TestRecovery:
    def _journal_with_tail(self, tmp_path, count=5):
        with Journal(tmp_path) as journal:
            _fill(journal, count)
        return _segment(tmp_path)

    def test_torn_final_record_is_truncated_on_open(self, tmp_path):
        segment = self._journal_with_tail(tmp_path)
        data = segment.read_bytes()
        segment.write_bytes(data[:-17])  # tear into the last record
        scan = scan_journal(tmp_path)
        assert scan.torn
        assert scan.last_seq == 4
        # scan_journal is the read-only path: it reports, never repairs.
        assert segment.read_bytes() == data[:-17]
        with Journal(tmp_path) as journal:
            assert journal.last_seq == 4
            journal.append(KIND_COMMAND, PhoneDropped(slot=1, phone_id=50))
        recovered = scan_journal(tmp_path)
        assert not recovered.torn
        assert recovered.last_seq == 5

    def test_missing_trailing_newline_counts_as_torn(self, tmp_path):
        """A final record without its newline would be corrupted by the
        next append; recovery must rewrite it."""
        segment = self._journal_with_tail(tmp_path)
        data = segment.read_bytes()
        assert data.endswith(b"\n")
        segment.write_bytes(data[:-1])
        scan = scan_journal(tmp_path)
        assert scan.torn
        assert scan.last_seq == 4
        with Journal(tmp_path) as journal:
            journal.append(KIND_COMMAND, PhoneDropped(slot=1, phone_id=50))
        assert scan_journal(tmp_path).last_seq == 5

    def test_duplicated_final_record_is_truncated(self, tmp_path):
        segment = self._journal_with_tail(tmp_path)
        lines = segment.read_bytes().splitlines(keepends=True)
        segment.write_bytes(b"".join(lines) + lines[-1])
        scan = scan_journal(tmp_path)
        assert scan.torn
        assert scan.last_seq == 5
        with Journal(tmp_path):
            pass
        assert not scan_journal(tmp_path).torn

    def test_flipped_checksum_in_tail_is_truncated(self, tmp_path):
        segment = self._journal_with_tail(tmp_path)
        data = segment.read_bytes()
        marker = data.rindex(b'"hash":"')
        offset = marker + len(b'"hash":"')
        flipped = b"1" if data[offset : offset + 1] != b"1" else b"2"
        segment.write_bytes(data[:offset] + flipped + data[offset + 1 :])
        scan = scan_journal(tmp_path)
        assert scan.torn
        assert scan.last_seq == 4

    def test_mid_log_corruption_raises_with_sequence(self, tmp_path):
        segment = self._journal_with_tail(tmp_path)
        lines = segment.read_bytes().splitlines(keepends=True)
        document = json.loads(lines[2])
        document["event"]["phone_id"] = 1234  # silent tamper, not a tear
        lines[2] = (
            json.dumps(document, sort_keys=True, separators=(",", ":"))
            + "\n"
        ).encode("utf-8")
        segment.write_bytes(b"".join(lines))
        with pytest.raises(JournalError, match="mid-log corruption") as exc:
            scan_journal(tmp_path)
        assert exc.value.sequence == 3
        # An open (even with repair) must refuse too: truncating back to
        # sequence 2 would silently discard good records 4 and 5.
        with pytest.raises(JournalError, match="mid-log corruption"):
            Journal(tmp_path)

    def test_empty_directory_is_a_valid_empty_journal(self, tmp_path):
        scan = scan_journal(tmp_path / "fresh")
        assert scan.records == ()
        assert scan.last_seq == 0
        assert scan.last_hash == GENESIS_HASH
