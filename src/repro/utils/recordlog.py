"""One append-only record log: JSONL lines, checksums, torn tails, fsync.

The write-ahead journal, the shard checkpoint streams, the sweep
checkpoints and the run ledger each store one JSON record per line in an
append-only file.  This module is the part they share: canonical JSON
and its SHA-256 (:func:`canonical_json`, :func:`checksum_text`), lines
sealed by a checksum field over the rest of the record (:func:`seal`,
:func:`unseal`), the line scanner with its torn-tail verdict
(:func:`scan_lines`, :func:`read_log`), the cut back to a valid prefix
that keeps the cut bytes as evidence (:func:`cut_log`), and the writer
(:class:`RecordWriter`), which never appends after a partial line and
fsyncs every :data:`FSYNC_EVERY` records and on close.  It is the one
place in the package that calls ``os.fsync``.

The torn-tail rule: a crash mid-write damages at most the *final* line —
cut short, duplicated, or with a flipped checksum character (the modes
:mod:`repro.faults.crash` injects).  A final line missing its newline is
torn even when it decodes, because the next append would be glued onto
it.  A bad line *before* the final one is each log's own policy: the
journal refuses, a shard or sweep checkpoint keeps the valid prefix.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import json
import os
import pathlib
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Dict, Generic, Mapping, Optional, Tuple, TypeVar

from repro.errors import ReproError

#: Records appended between fsyncs; the tail is fsynced on close.
FSYNC_EVERY = 8

T = TypeVar("T")


class RecordError(ValueError):
    """A line is not a well-formed sealed record."""


_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), check_circular=False
)
# ``JSONEncoder.encode`` builds its C encoder afresh on every call;
# without the circular-reference check that encoder holds no state, so
# one instance serves every call.
_c_make_encoder = getattr(json.encoder, "c_make_encoder", None)
_iterencode: Callable[[Any, int], Any] = (
    _c_make_encoder(
        None, _ENCODER.default, encode_basestring_ascii, None, ":", ",",
        True, False, True,
    )
    if _c_make_encoder is not None
    else lambda value, _level: _ENCODER.iterencode(value, _one_shot=True)
)


def _encode(value: Any) -> str:
    """``json.dumps(value, sort_keys=True, separators=(",", ":"))``."""
    return "".join(_iterencode(value, 0))


def canonical_json(payload: Any) -> str:
    """Canonical JSON (sorted keys, no whitespace): what checksums cover."""
    return _encode(payload)


def checksum_text(text: str) -> str:
    """SHA-256 hex digest of ``text``."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def seal(body: Mapping[str, Any], field: str) -> Tuple[bytes, str]:
    """``(line, checksum)``: ``body`` plus ``field`` = its checksum.

    The checksum covers the canonical JSON of ``body``; the line is the
    canonical JSON of the sealed record, newline-terminated, UTF-8.
    Each value is encoded once: the canonical JSON is the sorted
    ``"key":value`` items joined, and the line is the same items with
    ``"field":"checksum"`` spliced in at the field's sorted position.
    ``body``'s keys are strings and do not include ``field``.
    """
    if field in body:
        raise ValueError(f"body already holds the seal field {field!r}")
    keys = sorted(body)
    items = [
        f"{encode_basestring_ascii(key)}:{_encode(body[key])}" for key in keys
    ]
    digest = checksum_text("{" + ",".join(items) + "}")
    items.insert(
        bisect.bisect(keys, field),
        f'{encode_basestring_ascii(field)}:"{digest}"',
    )
    return ("{" + ",".join(items) + "}\n").encode("utf-8"), digest


def unseal(line: "str | bytes", field: str) -> Dict[str, Any]:
    """The record of a sealed line, once ``field`` verified the rest.

    Raises :class:`RecordError` for a line that is not a JSON object or
    whose checksum does not match.
    """
    try:
        document = json.loads(line)
    except ValueError as exc:
        raise RecordError(f"record is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise RecordError("record is not a JSON object")
    recorded = document.pop(field, None)
    expected = checksum_text(canonical_json(document))
    document[field] = recorded
    if recorded != expected:
        raise RecordError(
            f"checksum mismatch: recorded {recorded!r}, recomputed "
            f"{expected!r}"
        )
    return document


@dataclasses.dataclass(frozen=True)
class LineScan(Generic[T]):
    """``(byte_offset, decoded)`` per line before the first bad one.

    ``bad_offset`` / ``error`` say where the first bad line starts and
    why it was rejected; ``torn`` whether it is the final line.
    """

    records: Tuple[Tuple[int, T], ...]
    bad_offset: Optional[int] = None
    error: Optional[Exception] = None
    torn: bool = False


def scan_lines(data: bytes, decode: Callable[[bytes], T]) -> LineScan[T]:
    """Decode every non-blank line of ``data`` until the first bad one.

    ``decode`` gets one line without its newline and raises a
    :class:`~repro.errors.ReproError` or ``ValueError`` to reject it.
    """
    records = []
    chunks = data.split(b"\n")
    final = next(
        (i for i in reversed(range(len(chunks))) if chunks[i].strip()), -1
    )
    offset = 0
    for index, chunk in enumerate(chunks):
        start = offset
        offset += len(chunk) + 1
        if not chunk.strip():
            continue
        try:
            value = decode(chunk)
            if index == len(chunks) - 1:
                raise RecordError(
                    "final record is missing its trailing newline "
                    "(torn write)"
                )
        except (ReproError, ValueError) as exc:
            return LineScan(tuple(records), start, exc, index == final)
        records.append((start, value))
    return LineScan(tuple(records))


def read_log(
    path: "os.PathLike[str]", decode: Callable[[bytes], T]
) -> LineScan[T]:
    """:func:`scan_lines` over the file at ``path``; a missing file is empty."""
    try:
        data = pathlib.Path(path).read_bytes()
    except FileNotFoundError:
        return LineScan(())
    return scan_lines(data, decode)


def cut_log(path: "os.PathLike[str]", size: int) -> None:
    """Cut a record log back to ``size`` bytes, keeping what was cut.

    The cut bytes are first appended to ``<path>.corrupt``, so the
    evidence of a torn or corrupt tail survives the repair.
    """
    with open(path, "r+b") as handle:
        handle.seek(size)
        cut = handle.read()
        with open(f"{os.fspath(path)}.corrupt", "ab") as evidence:
            evidence.write(cut)
        handle.truncate(size)


class RecordWriter:
    """Append lines to one record-log file.

    Opening creates missing parent directories and cuts any bytes after
    the last newline (a torn line, even one that lost only its newline)
    with :func:`cut_log`, so they are kept in ``<path>.corrupt``.
    :meth:`append` reports when :data:`FSYNC_EVERY` records await an
    fsync; the owner then calls :meth:`sync` from its own ``sync``,
    where it is timed.  :meth:`close` fsyncs what is still pending.

    ``crash_hook`` is the fault-injection point of every log (see
    :class:`~repro.faults.crash.CrashController`): ``mutate(seq, data)``
    returns the bytes to write and ``after_append(seq)`` runs once they
    are flushed, and may raise to simulate the process dying.  ``seq``
    is the write's 1-based position among this writer's appends.
    """

    def __init__(
        self, path: "os.PathLike[str]", crash_hook: Optional[Any] = None
    ) -> None:
        pathlib.Path(path).parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(path, "a+b")
        try:
            self.size = self._handle.seek(0, os.SEEK_END)
            if self.size:
                self._handle.seek(self.size - 1)
                if self._handle.read(1) != b"\n":
                    self._handle.seek(0)
                    self.size = self._handle.read().rfind(b"\n") + 1
                    cut_log(path, self.size)
        except OSError:
            self._handle.close()
            raise
        self._crash_hook = crash_hook
        self._pending = 0
        self.appended = 0

    def append(self, data: bytes) -> bool:
        """Write and flush one line; ``True`` when an fsync is due."""
        seq = self.appended + 1
        hook = self._crash_hook
        if hook is not None:
            data = hook.mutate(seq, data)
        self._handle.write(data)
        self._handle.flush()
        self.appended = seq
        self.size += len(data)
        self._pending += 1
        if hook is not None:
            hook.after_append(seq)
        return self._pending >= FSYNC_EVERY

    @property
    def pending(self) -> int:
        """Records appended since the last fsync."""
        return self._pending

    def sync(self) -> None:
        """Flush and fsync the file."""
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._pending = 0

    def close(self) -> None:
        """Fsync pending records and close the file (idempotent)."""
        if self._handle.closed:
            return
        try:
            if self._pending:
                self.sync()
        finally:
            self._handle.close()

    def __enter__(self) -> "RecordWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
