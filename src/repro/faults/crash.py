"""Seeded crash-fault injection for the record logs.

A :class:`CrashPlan` describes one process death, drawn deterministically
from the :class:`~repro.utils.rng.RngStreams` discipline like every
other fault in this package: *the process dies during its Nth log
write*, optionally corrupting the record it was writing the way real
crashes do —

* ``"clean"`` — the record hits the disk intact, the process dies right
  after (a kill between ``write()`` and return);
* ``"torn"`` — only a prefix of the record's bytes land (a power cut
  mid-``write``);
* ``"duplicate"`` — the record's bytes land twice (a retried write that
  had in fact succeeded);
* ``"flip"`` — one character of the record's sealed checksum is flipped
  (media corruption of the tail).

All four leave at most the *final* record of the log invalid, which is
exactly the class of damage the torn-tail rule of
:mod:`repro.utils.recordlog` repairs by truncation; the journal's hash
chain turns anything worse into a typed refusal.

:class:`CrashController` is the runtime half: it plugs into
``Journal(crash_hook=...)`` or ``run_sharded_campaign(
checkpoint_crash_hook=...)`` and raises :class:`SimulatedCrash` at the
planned write.  The test then recovers from the same directory —
a fresh :class:`~repro.durability.Journal`, or a rerun campaign —
exactly as a restarted process would.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, Mapping, Union

from repro.errors import FaultError
from repro.utils.recordlog import RecordError, unseal
from repro.utils.rng import RngStreams

#: Corruption applied to the record being written when the crash hits.
CRASH_CLEAN = "clean"
CRASH_TORN = "torn"
CRASH_DUPLICATE = "duplicate"
CRASH_FLIP = "flip"
CRASH_MODES = (CRASH_CLEAN, CRASH_TORN, CRASH_DUPLICATE, CRASH_FLIP)


class SimulatedCrash(FaultError):
    """The simulated process death, raised mid-append by the hook."""


@dataclasses.dataclass(frozen=True)
class CrashPlan:
    """One deterministic process death, in log-write coordinates.

    Attributes
    ----------
    after_writes:
        The 1-based log write during which the process dies (the
        record of that write is the one corrupted).
    mode:
        One of :data:`CRASH_MODES`.
    torn_fraction:
        For ``"torn"``: the fraction of the record's bytes that land
        (clamped to at least one byte).
    flip_offset:
        For ``"flip"``: which of the 64 checksum hex characters is
        flipped.
    """

    after_writes: int
    mode: str = CRASH_CLEAN
    torn_fraction: float = 0.5
    flip_offset: int = 0

    def __post_init__(self) -> None:
        if self.after_writes < 1:
            raise FaultError(
                f"after_writes must be >= 1, got {self.after_writes}"
            )
        if self.mode not in CRASH_MODES:
            raise FaultError(
                f"unknown crash mode {self.mode!r}; expected one of "
                f"{CRASH_MODES}"
            )
        if not 0.0 < self.torn_fraction < 1.0:
            raise FaultError(
                f"torn_fraction must be in (0, 1), got "
                f"{self.torn_fraction}"
            )
        if not 0 <= self.flip_offset < 64:
            raise FaultError(
                f"flip_offset must be in [0, 64), got {self.flip_offset}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly representation."""
        return {
            "after_writes": self.after_writes,
            "mode": self.mode,
            "torn_fraction": self.torn_fraction,
            "flip_offset": self.flip_offset,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CrashPlan":
        """Inverse of :meth:`to_dict`."""
        try:
            return cls(
                after_writes=int(payload["after_writes"]),
                mode=str(payload["mode"]),
                torn_fraction=float(payload["torn_fraction"]),
                flip_offset=int(payload["flip_offset"]),
            )
        except KeyError as exc:
            raise FaultError(
                f"crash-plan payload missing key: {exc}"
            ) from exc


def draw_crash_plan(
    seed_or_streams: Union[int, RngStreams],
    total_writes: int,
) -> CrashPlan:
    """Draw one seeded :class:`CrashPlan` for a round of known length.

    Streams used (one draw each, in order): ``faults.crash-write``,
    ``faults.crash-mode``, ``faults.crash-torn``, ``faults.crash-flip``
    — so the draw is stable under the same named-stream discipline as
    :class:`~repro.faults.injector.FaultInjector`.
    """
    if total_writes < 1:
        raise FaultError(
            f"total_writes must be >= 1, got {total_writes}"
        )
    streams = (
        seed_or_streams
        if isinstance(seed_or_streams, RngStreams)
        else RngStreams(seed_or_streams)
    )
    after = int(
        streams.get("faults.crash-write").integers(1, total_writes + 1)
    )
    mode = CRASH_MODES[
        int(streams.get("faults.crash-mode").integers(0, len(CRASH_MODES)))
    ]
    torn_fraction = float(
        streams.get("faults.crash-torn").uniform(0.1, 0.9)
    )
    flip_offset = int(streams.get("faults.crash-flip").integers(0, 64))
    return CrashPlan(
        after_writes=after,
        mode=mode,
        torn_fraction=torn_fraction,
        flip_offset=flip_offset,
    )


def _flip_checksum(data: bytes, offset: int) -> bytes:
    """Flip one hex character of the record's sealed checksum field."""
    for field in json.loads(data):
        try:
            unseal(data, field)
        except RecordError:
            continue
        marker = f'"{field}":"'.encode("utf-8")
        position = data.index(marker) + len(marker) + offset
        original = data[position : position + 1]
        replacement = b"0" if original != b"0" else b"1"
        return data[:position] + replacement + data[position + 1 :]
    return data  # pragma: no cover - every log line is sealed


class CrashController:
    """The record-log hook executing a :class:`CrashPlan`.

    Counts log writes; at write ``plan.after_writes`` it corrupts
    the outgoing bytes per ``plan.mode`` (``mutate``) and raises
    :class:`SimulatedCrash` once the bytes are on disk
    (``after_append``).  :attr:`fired` records whether the death
    happened — a plan whose ``after_writes`` exceeds the round's write
    count never fires, and the run completes normally.
    """

    def __init__(self, plan: CrashPlan) -> None:
        self.plan = plan
        self.writes = 0
        self.fired = False

    def mutate(self, seq: int, data: bytes) -> bytes:
        """Corrupt the bytes of the fatal write, pass others through."""
        self.writes += 1
        if self.writes != self.plan.after_writes:
            return data
        mode = self.plan.mode
        if mode == CRASH_TORN:
            # The trailing newline is part of the record's bytes; a torn
            # write loses it along with the record's suffix.
            body = data[:-1] if data.endswith(b"\n") else data
            keep = max(1, int(len(body) * self.plan.torn_fraction))
            return body[:keep]
        if mode == CRASH_DUPLICATE:
            return data + data
        if mode == CRASH_FLIP:
            return _flip_checksum(data, self.plan.flip_offset)
        return data

    def after_append(self, seq: int) -> None:
        """Die (once) after the planned write reached the file."""
        if self.writes == self.plan.after_writes and not self.fired:
            self.fired = True
            raise SimulatedCrash(
                f"simulated crash during log write "
                f"{self.plan.after_writes} (mode {self.plan.mode!r}, "
                f"write {seq} of its file)"
            )
