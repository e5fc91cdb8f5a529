"""The append-only write-ahead JSONL journal (format v2: commands only).

One record per line, canonical JSON, SHA-256 hash-chained::

    {"emitted": {"count": n, "sha256": d}, "event": {...}, "hash": h_n,
     "kind": "command", "prev": h_{n-1}, "seq": n}

where ``h_n`` is the SHA-256 of the canonical record without ``hash``
and the genesis ``prev`` is 64 zeros.  Every record but the first is
a **command**, the input the platform was given, plus ``emitted``: the
count and SHA-256 of the canonical JSON of the events the *previous*
command made the platform emit (:class:`EventDigest`).  The first
record is the ``RoundStarted`` header; it carries ``"version": 2``
instead of a digest.  One ``close`` record, with no ``event``, covers
the events of the last command, ``RoundFinalized``.  The events
themselves are never written: the platform is deterministic in its
commands, so replay recomputes them and checks them against the
digests (:mod:`repro.durability.replay`).

Sequence numbers are 1-based and strictly monotonic across segment
files (``segment-00000001.jsonl``, rotated by byte size), so any
truncation, reordering, duplication, or bit flip breaks either a
record's own hash or the chain to its neighbour.

Recovery (:func:`scan_journal`, run on every open) distinguishes the two
failure shapes a crash-consistent log must tell apart:

* a **torn tail** — the final record of the final segment fails to
  decode or chain.  That is the expected signature of a crash mid-write
  (including a duplicated or checksum-flipped final record) and is
  repaired by cutting the segment back to the last good byte; the cut
  bytes are kept in ``<segment>.corrupt``;
* **mid-log corruption** — any earlier record fails.  That can never be
  produced by a crash of this writer (records are appended strictly in
  order and never rewritten), so recovery refuses with a typed
  :class:`~repro.errors.JournalError` naming the bad sequence number.

A journal whose header does not carry version 2 (a v1 journal, which
also wrote every derived event) is refused with a
:class:`~repro.errors.JournalError` naming its version.

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
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.auction.events import AuctionEvent, event_from_dict
from repro.errors import EventDecodeError, JournalError
from repro.obs.clock import perf_seconds
from repro.utils.recordlog import (
    RecordError,
    RecordWriter,
    canonical_json,
    checksum_text,
    cut_log,
    scan_lines,
    seal,
    unseal,
)

#: ``prev`` hash of the first record.
GENESIS_HASH = "0" * 64

#: The journal format this module writes and reads; the first record
#: of every journal carries it.
JOURNAL_VERSION = 2

#: Record kinds: a *command* is journaled before the platform mutation
#: it describes (the redo log proper); the one *close* record follows
#: the last command and carries only the digest of its events.
KIND_COMMAND = "command"
KIND_CLOSE = "close"
_KINDS = (KIND_COMMAND, KIND_CLOSE)

_SEGMENT_PREFIX = "segment-"
_SEGMENT_SUFFIX = ".jsonl"


#: The field that seals each record (its chaining hash).
_SEAL_FIELD = "hash"


@dataclasses.dataclass(frozen=True)
class EventDigest:
    """The count and SHA-256 of the events one command emitted.

    ``sha256`` covers the canonical JSON of the list of the events'
    ``to_dict()`` payloads, in emission order.
    """

    count: int
    sha256: str

    @classmethod
    def of(cls, events: Sequence[AuctionEvent]) -> "EventDigest":
        """The digest of ``events``."""
        return cls(
            len(events),
            checksum_text(canonical_json([event.to_dict() for event in events])),
        )

    def to_dict(self) -> Dict[str, Any]:
        """The ``emitted`` payload of a record."""
        return {"count": self.count, "sha256": self.sha256}

    @classmethod
    def from_dict(cls, payload: Any) -> "EventDigest":
        """Inverse of :meth:`to_dict`; raises :class:`JournalError`."""
        if (
            not isinstance(payload, dict)
            or sorted(payload) != ["count", "sha256"]
            or type(payload["count"]) is not int
            or payload["count"] < 0
            or not isinstance(payload["sha256"], str)
        ):
            raise JournalError(f"malformed event digest {payload!r}")
        return cls(payload["count"], payload["sha256"])


@dataclasses.dataclass(frozen=True)
class JournalRecord:
    """One decoded, verified journal record.

    ``event`` is the command (``None`` on the close record),
    ``emitted`` the digest of the previous command's events (``None``
    on the header), and ``version`` the format version (set on the
    header only).
    """

    seq: int
    prev: str
    kind: str
    event: Optional[AuctionEvent]
    hash: str
    emitted: Optional[EventDigest] = None
    version: Optional[int] = None

    def to_line(self) -> str:
        """The record's canonical JSONL line (without the newline)."""
        body = _record_body(
            self.seq, self.prev, self.kind, self.event, self.emitted,
            self.version,
        )
        body[_SEAL_FIELD] = self.hash
        return canonical_json(body)


def _record_body(
    seq: int,
    prev: str,
    kind: str,
    event: Optional[AuctionEvent],
    emitted: Optional[EventDigest],
    version: Optional[int],
) -> Dict[str, Any]:
    body: Dict[str, Any] = {"kind": kind, "prev": prev, "seq": seq}
    if event is not None:
        body["event"] = event.to_dict()
    if emitted is not None:
        body["emitted"] = emitted.to_dict()
    if version is not None:
        body["version"] = version
    return body


def _sealed_record(
    seq: int,
    prev: str,
    kind: str,
    event: Optional[AuctionEvent],
    emitted: Optional[EventDigest],
) -> Tuple[JournalRecord, bytes]:
    """A record and its sealed line, from one encoding of the body.

    The first record of a journal carries :data:`JOURNAL_VERSION`.
    """
    if kind not in _KINDS:
        raise JournalError(f"unknown record kind {kind!r}", sequence=seq)
    if kind == KIND_COMMAND and event is None:
        raise JournalError("a command record needs its event", sequence=seq)
    if kind == KIND_CLOSE and event is not None:
        raise JournalError("a close record carries no event", sequence=seq)
    version = JOURNAL_VERSION if seq == 1 else None
    line, digest = seal(
        _record_body(seq, prev, kind, event, emitted, version), _SEAL_FIELD
    )
    record = JournalRecord(
        seq=seq,
        prev=prev,
        kind=kind,
        event=event,
        hash=digest,
        emitted=emitted,
        version=version,
    )
    return record, line


def decode_line(line: "str | bytes") -> JournalRecord:
    """Decode one JSONL line into a verified record.

    Raises :class:`~repro.errors.JournalError` when the line is not
    valid JSON, fails its own hash, misses fields, or carries an
    undecodable event or digest.  Chain position (seq/prev against the
    neighbour) and the format version are the scanner's job, not this
    function's.
    """
    try:
        payload = unseal(line, _SEAL_FIELD)
    except RecordError as exc:
        raise JournalError(str(exc)) from exc
    try:
        seq = payload["seq"]
        prev = payload["prev"]
        kind = payload["kind"]
    except KeyError as exc:
        raise JournalError(f"record misses field {exc}") from exc
    if not isinstance(seq, int) or isinstance(seq, bool):
        raise JournalError(f"record seq must be an int, got {seq!r}")
    if kind not in _KINDS:
        raise JournalError(
            f"unknown record kind {kind!r}", sequence=seq
        )
    event = None
    if kind == KIND_COMMAND:
        if "event" not in payload:
            raise JournalError(
                f"command record {seq} misses its event", sequence=seq
            )
        try:
            event = event_from_dict(payload["event"])
        except EventDecodeError as exc:
            raise JournalError(
                f"record {seq} carries an undecodable event: {exc}",
                sequence=seq,
            ) from exc
    elif "event" in payload:
        raise JournalError(
            f"close record {seq} carries an event", sequence=seq
        )
    emitted = payload.get("emitted")
    return JournalRecord(
        seq=seq,
        prev=prev,
        kind=kind,
        event=event,
        hash=payload[_SEAL_FIELD],
        emitted=None if emitted is None else EventDigest.from_dict(emitted),
        version=payload.get("version"),
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
            if records and records[0].version != JOURNAL_VERSION:
                raise JournalError(
                    f"journal {str(root)!r} is format version "
                    f"{records[0].version or 1}; only version "
                    f"{JOURNAL_VERSION} journals are read",
                    sequence=1,
                )
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

    Opening cuts a torn tail (keeping its bytes in
    ``<segment>.corrupt``); :func:`scan_journal` is the read-only
    inspection path.
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
                cut_log(scan.torn_segment, scan.torn_offset)
                obs.counter("journal.truncated_bytes", scan.truncated_bytes)
                obs.counter("journal.torn_tails")
            # The cut reaches disk with the next fsync, on close at the
            # latest.
            self._repair_unsynced = scan.torn
            self._recovered = scan.records
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
    def recovered(self) -> Tuple[JournalRecord, ...]:
        """The records the journal held when it was opened, in order.

        Records appended since are not kept in memory: read them back
        with :func:`scan_journal`.
        """
        return self._recovered

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
    def append(
        self,
        kind: str,
        event: Optional[AuctionEvent],
        emitted: Optional[EventDigest] = None,
    ) -> JournalRecord:
        """Append one record; returns it once written and flushed.

        ``emitted`` is the digest of the events the previous command
        emitted (see the module docstring).
        """
        if self._closed:
            raise JournalError("journal is closed")
        if self._dead:
            raise JournalError(
                "journal observed a simulated crash; no further appends"
            )
        record, data = _sealed_record(
            self._next_seq, self._prev_hash, kind, event, emitted
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
            f"Journal({str(self._directory)!r}, last_seq={self.last_seq})"
        )
