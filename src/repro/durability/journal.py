"""The append-only write-ahead JSONL journal.

One record per line, canonical JSON, SHA-256 hash-chained::

    {"event": {...}, "hash": h_n, "kind": "command"|"event",
     "prev": h_{n-1}, "seq": n}

where ``h_n = sha256(canonical({event, kind, prev, seq}))`` and the
genesis ``prev`` is 64 zeros.  Sequence numbers are 1-based and strictly
monotonic across segment files (``segment-00000001.jsonl``, rotated by
byte size), so any truncation, reordering, duplication, or bit flip
breaks either a record's own hash or the chain to its neighbour.

Recovery (:func:`scan_journal`, run on every open) distinguishes the two
failure shapes a crash-consistent log must tell apart:

* a **torn tail** — the final record of the final segment fails to
  decode or chain.  That is the expected signature of a crash mid-write
  (including a duplicated or checksum-flipped final record) and is
  repaired by truncating the segment back to the last good byte;
* **mid-log corruption** — any earlier record fails.  That can never be
  produced by a crash of this writer (records are appended strictly in
  order and never rewritten), so recovery refuses with a typed
  :class:`~repro.errors.JournalError` naming the bad sequence number.

Lines are sealed, scanned and appended through
:mod:`repro.utils.recordlog`: every record is flushed as it is
appended, and :meth:`Journal.sync` fsyncs the segment every
:data:`~repro.utils.recordlog.FSYNC_EVERY` records, on rotation and on
close when anything is pending.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
from typing import Any, List, Mapping, Optional, Tuple

from repro import obs
from repro.auction.events import AuctionEvent, event_from_dict
from repro.errors import EventDecodeError, JournalError
from repro.obs.clock import perf_seconds
from repro.utils.recordlog import (
    RecordError,
    RecordWriter,
    canonical_json,
    checksum_text,
    scan_lines,
    seal,
    truncate,
    unseal,
)

#: ``prev`` hash of the first record.
GENESIS_HASH = "0" * 64

#: Record kinds: a *command* is journaled before the platform mutation
#: it describes (the redo log proper); an *event* is a derived
#: observation the platform emitted while applying the last command
#: (journaled after the fact, verified during replay).
KIND_COMMAND = "command"
KIND_EVENT = "event"
_KINDS = (KIND_COMMAND, KIND_EVENT)

_SEGMENT_PREFIX = "segment-"
_SEGMENT_SUFFIX = ".jsonl"


#: The field that seals each record (its chaining hash).
_SEAL_FIELD = "hash"


def record_hash(
    seq: int, prev: str, kind: str, event_payload: Mapping[str, Any]
) -> str:
    """The SHA-256 chaining hash of one record body."""
    return checksum_text(
        canonical_json(
            {"event": event_payload, "kind": kind, "prev": prev, "seq": seq}
        )
    )


@dataclasses.dataclass(frozen=True)
class JournalRecord:
    """One decoded, verified journal record."""

    seq: int
    prev: str
    kind: str
    event: AuctionEvent
    hash: str

    def to_line(self) -> str:
        """The record's canonical JSONL line (without the newline)."""
        return canonical_json(
            {
                "event": self.event.to_dict(),
                "hash": self.hash,
                "kind": self.kind,
                "prev": self.prev,
                "seq": self.seq,
            }
        )


def make_record(
    seq: int, prev: str, kind: str, event: AuctionEvent
) -> JournalRecord:
    """Build (and hash) a record from its parts."""
    return _sealed_record(seq, prev, kind, event)[0]


def _sealed_record(
    seq: int, prev: str, kind: str, event: AuctionEvent
) -> Tuple[JournalRecord, bytes]:
    """A record and its sealed line, from one encoding of the body."""
    if kind not in _KINDS:
        raise JournalError(f"unknown record kind {kind!r}", sequence=seq)
    line, digest = seal(
        {"event": event.to_dict(), "kind": kind, "prev": prev, "seq": seq},
        _SEAL_FIELD,
    )
    record = JournalRecord(
        seq=seq, prev=prev, kind=kind, event=event, hash=digest
    )
    return record, line


def decode_line(line: "str | bytes") -> JournalRecord:
    """Decode one JSONL line into a verified record.

    Raises :class:`~repro.errors.JournalError` when the line is not
    valid JSON, fails its own hash, misses fields, or carries an
    undecodable event payload.  Chain position (seq/prev against the
    neighbour) is the scanner's job, not this function's.
    """
    try:
        payload = unseal(line, _SEAL_FIELD)
    except RecordError as exc:
        raise JournalError(str(exc)) from exc
    try:
        seq = payload["seq"]
        prev = payload["prev"]
        kind = payload["kind"]
        event_payload = payload["event"]
    except KeyError as exc:
        raise JournalError(f"record misses field {exc}") from exc
    if not isinstance(seq, int) or isinstance(seq, bool):
        raise JournalError(f"record seq must be an int, got {seq!r}")
    if kind not in _KINDS:
        raise JournalError(
            f"unknown record kind {kind!r}", sequence=seq
        )
    try:
        event = event_from_dict(event_payload)
    except EventDecodeError as exc:
        raise JournalError(
            f"record {seq} carries an undecodable event: {exc}",
            sequence=seq,
        ) from exc
    return JournalRecord(
        seq=seq, prev=prev, kind=kind, event=event, hash=payload[_SEAL_FIELD]
    )


@dataclasses.dataclass(frozen=True)
class ScanResult:
    """Outcome of a recovery scan over a journal directory.

    Attributes
    ----------
    records:
        Every verified record, in sequence order.
    segments:
        The segment files, in name (= write) order.
    torn_segment / torn_offset / torn_reason:
        When the final record was invalid: the file holding it, the
        byte offset its bytes start at, and why it was rejected.
    truncated_bytes:
        How many trailing bytes a repair would (or did) discard.
    """

    records: Tuple[JournalRecord, ...]
    segments: Tuple[pathlib.Path, ...]
    torn_segment: Optional[pathlib.Path] = None
    torn_offset: Optional[int] = None
    torn_reason: Optional[str] = None
    truncated_bytes: int = 0

    @property
    def torn(self) -> bool:
        """Whether the scan found (and marked) a torn tail."""
        return self.torn_segment is not None

    @property
    def last_seq(self) -> int:
        """Sequence number of the last good record (0 when empty)."""
        return self.records[-1].seq if self.records else 0

    @property
    def last_hash(self) -> str:
        """Chain hash of the last good record (genesis when empty)."""
        return self.records[-1].hash if self.records else GENESIS_HASH


def segment_paths(directory: pathlib.Path) -> List[pathlib.Path]:
    """The journal's segment files, in rotation order."""
    if not directory.exists():
        return []
    return sorted(
        path
        for path in directory.iterdir()
        if path.name.startswith(_SEGMENT_PREFIX)
        and path.name.endswith(_SEGMENT_SUFFIX)
    )


class _Chain:
    """Line decoder that also checks each record against its neighbour."""

    def __init__(self) -> None:
        self.seq = 1
        self.prev = GENESIS_HASH

    def __call__(self, raw: bytes) -> JournalRecord:
        record = decode_line(raw)
        if record.seq != self.seq:
            raise JournalError(
                f"record out of sequence: expected {self.seq}, found "
                f"{record.seq}",
                sequence=self.seq,
            )
        if record.prev != self.prev:
            raise JournalError(
                f"record {record.seq} breaks the hash chain: prev "
                f"{record.prev!r} does not match {self.prev!r}",
                sequence=record.seq,
            )
        self.seq += 1
        self.prev = record.hash
        return record


def scan_journal(directory: os.PathLike) -> ScanResult:
    """Verify a journal directory record by record.

    Applies the torn-tail rule: only the *final* record of the *final*
    segment may be invalid (it is reported, not raised); any earlier
    invalid record raises :class:`~repro.errors.JournalError` naming
    the bad sequence number.  The directory is not modified.
    """
    root = pathlib.Path(directory)
    segments = segment_paths(root)
    records: List[JournalRecord] = []
    chain = _Chain()
    with obs.span("journal.scan", directory=str(root)) as tel:
        for segment in segments:
            data = segment.read_bytes()
            scan = scan_lines(data, chain)
            records.extend(record for _, record in scan.records)
            if scan.bad_offset is None:
                continue
            if scan.torn and segment == segments[-1]:
                # The signature of a crash mid-write: repairable.
                return ScanResult(
                    records=tuple(records),
                    segments=tuple(segments),
                    torn_segment=segment,
                    torn_offset=scan.bad_offset,
                    torn_reason=str(scan.error),
                    truncated_bytes=len(data) - scan.bad_offset,
                )
            sequence = getattr(scan.error, "sequence", None)
            if sequence is None:
                sequence = chain.seq
            raise JournalError(
                f"mid-log corruption at sequence {sequence} in "
                f"{segment.name}: {scan.error}",
                sequence=sequence,
            ) from scan.error
        tel.set_attribute("records", len(records))
    return ScanResult(records=tuple(records), segments=tuple(segments))


class Journal:
    """An open write-ahead journal (recovered on open, append-only after).

    Parameters
    ----------
    directory:
        The journal directory (created if missing); one journal per
        round.
    segment_bytes:
        Rotation threshold: a new segment file is started once the
        current one reaches this many bytes.
    crash_hook:
        Fault-injection point (see
        :class:`~repro.faults.crash.CrashController`), handed to every
        segment's :class:`~repro.utils.recordlog.RecordWriter`: an
        object with ``mutate(seq, data) -> bytes`` called just before
        the bytes hit the file, and ``after_append(seq)`` called once
        they are flushed — which may raise to simulate the process
        dying, exactly like a real kill between ``write`` and return.

    Opening truncates a torn tail; :func:`scan_journal` is the
    read-only inspection path.
    """

    def __init__(
        self,
        directory: os.PathLike,
        segment_bytes: int = 1 << 20,
        crash_hook: Optional[Any] = None,
    ) -> None:
        if segment_bytes < 1:
            raise JournalError(
                f"segment_bytes must be >= 1, got {segment_bytes}"
            )
        self._directory = pathlib.Path(directory)
        self._segment_bytes = segment_bytes
        self._crash_hook = crash_hook

        with obs.span("journal.open", directory=str(self._directory)) as tel:
            scan = scan_journal(self._directory)
            if scan.torn:
                assert scan.torn_segment is not None
                assert scan.torn_offset is not None
                truncate(scan.torn_segment, scan.torn_offset)
                obs.counter("journal.truncated_bytes", scan.truncated_bytes)
                obs.counter("journal.torn_tails")
            # The cut reaches disk with the next fsync, on close at the
            # latest.
            self._repair_unsynced = scan.torn
            self._records: List[JournalRecord] = list(scan.records)
            self._next_seq = scan.last_seq + 1
            self._prev_hash = scan.last_hash
            obs.counter("journal.recovered_records", len(scan.records))
            tel.set_attribute("recovered_records", len(scan.records))
            tel.set_attribute("truncated_bytes", scan.truncated_bytes)

        segments = segment_paths(self._directory)
        self._segment_index = (
            int(
                segments[-1].name[
                    len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)
                ]
            )
            if segments
            else 1
        )
        self._writer = self._open_segment()
        self._dead = False
        self._closed = False

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def directory(self) -> pathlib.Path:
        """The journal directory."""
        return self._directory

    @property
    def records(self) -> Tuple[JournalRecord, ...]:
        """Every record currently in the journal, in order."""
        return tuple(self._records)

    @property
    def last_seq(self) -> int:
        """Sequence number of the last record (0 when empty)."""
        return self._next_seq - 1

    def _open_segment(self) -> RecordWriter:
        path = self._directory / (
            f"{_SEGMENT_PREFIX}{self._segment_index:08d}{_SEGMENT_SUFFIX}"
        )
        return RecordWriter(path, crash_hook=self._crash_hook)

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(self, kind: str, event: AuctionEvent) -> JournalRecord:
        """Append one record; returns it once written and flushed."""
        if self._closed:
            raise JournalError("journal is closed")
        if self._dead:
            raise JournalError(
                "journal observed a simulated crash; no further appends"
            )
        record, data = _sealed_record(
            self._next_seq, self._prev_hash, kind, event
        )
        size = self._writer.size
        if size > 0 and size + len(data) > self._segment_bytes:
            self._rotate()
        try:
            due = self._writer.append(data)
        except BaseException:
            self._dead = True
            raise
        if due:
            self.sync()
        obs.counter("journal.appends")
        self._records.append(record)
        self._next_seq += 1
        self._prev_hash = record.hash
        return record

    def _rotate(self) -> None:
        """Seal the current segment and start the next one."""
        self.sync()
        self._writer.close()
        self._segment_index += 1
        self._writer = self._open_segment()
        obs.counter("journal.rotations")

    def sync(self) -> None:
        """Flush and fsync the current segment."""
        fsync_start = perf_seconds()
        self._writer.sync()
        self._repair_unsynced = False
        obs.observe("journal.fsync.seconds", perf_seconds() - fsync_start)

    def close(self) -> None:
        """Fsync what is pending and close the journal (idempotent).

        Pending are records appended since the last fsync, and a torn
        tail cut at open that no fsync has covered yet.
        """
        if self._closed:
            return
        try:
            if self._writer.pending or self._repair_unsynced:
                self.sync()
        finally:
            self._writer.close()
            self._closed = True

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Journal({str(self._directory)!r}, records={len(self._records)})"
        )
