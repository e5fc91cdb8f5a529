"""Deterministic replay and resume of journaled rounds.

The journal is a *redo log of commands*: replaying the command records
through a fresh :class:`~repro.auction.CrowdsourcingPlatform` — in
order, nothing else — reconstructs the exact platform state, because
the platform is deterministic in its inputs.  The derived event records
interleaved with the commands are not replayed; they are **verified**:
while re-executing a command, the events the platform emits must match
the journaled derived records one for one.  Any disagreement raises
:class:`~repro.errors.ReplayDivergenceError` — the journal and the code
that wrote it are out of sync, and replay refuses to silently diverge.
A *missing* suffix of derived records after the journal's last command
is tolerated: that is exactly what a crash between steps 3 and 4 of the
write-ahead discipline leaves behind.

:func:`start_round` runs a round's command stream
(:func:`~repro.auction.round_driver.round_commands`, the platform's one
feeding order) through a fresh journal; every journaled round driver
(campaigns, fault runs, the replay-fidelity check) starts its round
there.  :func:`resume_round` closes the loop: given the journal and the
regenerated command stream of the round, it replays what the journal
holds, verifies the journaled prefix matches the regenerated commands,
and re-executes the remainder through a fresh
:class:`~repro.durability.JournaledPlatform` — so a crashed round,
resumed, produces an :class:`~repro.model.AuctionOutcome` whose pickled
bytes equal the uncrashed run's (property-tested in
``tests/durability``).
"""

from __future__ import annotations

import dataclasses
import os
from typing import List, Optional, Sequence, Tuple

from repro import obs
from repro.auction.events import AuctionEvent, RoundFinalized, RoundStarted
from repro.auction.platform import CrowdsourcingPlatform
from repro.auction.round_driver import apply_command, execute_commands
from repro.durability.journal import (
    KIND_COMMAND,
    Journal,
    JournalRecord,
    scan_journal,
)
from repro.durability.journaled import JournaledPlatform
from repro.errors import JournalError, ReplayDivergenceError
from repro.model.outcome import AuctionOutcome


@dataclasses.dataclass(frozen=True)
class ReplayResult:
    """Everything a journal replay reconstructs.

    Attributes
    ----------
    outcome:
        The finalized :class:`~repro.model.AuctionOutcome`, or ``None``
        when the journal ends before ``RoundFinalized`` (a mid-round
        crash).
    platform:
        The reconstructed platform (open when ``outcome is None``).
    commands_applied / events_verified:
        How many command records were re-executed and how many derived
        event records were checked against re-emitted events.
    records:
        The verified journal records the replay consumed.
    """

    outcome: Optional[AuctionOutcome]
    platform: CrowdsourcingPlatform
    commands_applied: int
    events_verified: int
    records: Tuple[JournalRecord, ...]

    @property
    def finalized(self) -> bool:
        """Whether the journal reached ``RoundFinalized``."""
        return self.outcome is not None


def replay_records(
    records: Sequence[JournalRecord],
) -> ReplayResult:
    """Re-execute a verified record sequence on a fresh platform."""
    if not records:
        raise JournalError("cannot replay an empty journal")
    header = records[0]
    if header.kind != KIND_COMMAND or not isinstance(
        header.event, RoundStarted
    ):
        raise JournalError(
            f"journal must start with a RoundStarted command, found "
            f"{type(header.event).__name__} ({header.kind})",
            sequence=header.seq,
        )
    started = header.event
    platform = CrowdsourcingPlatform(
        num_slots=started.num_slots,
        reserve_price=started.reserve_price,
        payment_rule=started.payment_rule,
        max_reassignments=started.max_reassignments,
    )
    outcome: Optional[AuctionOutcome] = None
    expected: List[AuctionEvent] = []
    commands_applied = 0
    events_verified = 0
    for record in records[1:]:
        if record.kind == KIND_COMMAND:
            # Derived records of the previous command may be cut short
            # by a crash; a *following* command proves the mutation
            # completed, so the remaining expectations are dropped.
            expected.clear()
            before = platform.event_count
            result = apply_command(platform, record.event)
            if isinstance(record.event, RoundFinalized):
                outcome = result  # type: ignore[assignment]
            expected.extend(platform.events_since(before))
            commands_applied += 1
        else:
            if not expected:
                raise ReplayDivergenceError(
                    f"record {record.seq} journals derived event "
                    f"{type(record.event).__name__} but replaying the "
                    f"commands emitted no further event there",
                    sequence=record.seq,
                )
            emitted = expected.pop(0)
            if emitted != record.event:
                raise ReplayDivergenceError(
                    f"record {record.seq} diverges from replay: journal "
                    f"holds {record.event!r}, re-execution emitted "
                    f"{emitted!r}",
                    sequence=record.seq,
                )
            events_verified += 1
    return ReplayResult(
        outcome=outcome,
        platform=platform,
        commands_applied=commands_applied,
        events_verified=events_verified,
        records=tuple(records),
    )


def replay_journal(directory: os.PathLike) -> ReplayResult:
    """Scan a journal directory (read-only) and replay it.

    A torn tail is skipped exactly as recovery would truncate it;
    mid-log corruption raises :class:`~repro.errors.JournalError`.
    """
    with obs.span("journal.replay", directory=str(directory)):
        scan = scan_journal(directory)
        return replay_records(scan.records)


@dataclasses.dataclass(frozen=True)
class ResumeResult:
    """Outcome of :func:`start_round` or :func:`resume_round`.

    Attributes
    ----------
    outcome:
        The finalized outcome (always set: the command stream ends in
        ``RoundFinalized``).
    platform:
        The journaled platform that finished the round.
    replayed_commands:
        Commands recovered from the journal (``0`` for a fresh round).
    executed_commands:
        Commands executed live to finish the round.
    """

    outcome: AuctionOutcome
    platform: JournaledPlatform
    replayed_commands: int
    executed_commands: int


def start_round(
    journal: Journal,
    commands: Sequence[AuctionEvent],
    num_slots: int,
    reserve_price: bool = False,
    payment_rule: str = "paper",
    max_reassignments: int = 3,
) -> ResumeResult:
    """Run a whole round through a fresh journal.

    Opens a :class:`~repro.durability.JournaledPlatform` over the empty
    ``journal`` (a non-empty one raises
    :class:`~repro.errors.JournalError`: resume it instead) and feeds it
    ``commands``, which must end in ``RoundFinalized``.  The caller
    keeps ownership of the journal and closes it.
    """
    platform = JournaledPlatform(
        journal,
        num_slots=num_slots,
        reserve_price=reserve_price,
        payment_rule=payment_rule,
        max_reassignments=max_reassignments,
    )
    outcome = execute_commands(platform, commands)
    assert outcome is not None
    return ResumeResult(
        outcome=outcome,
        platform=platform,
        replayed_commands=0,
        executed_commands=len(commands),
    )


def resume_round(
    journal: Journal,
    commands: Sequence[AuctionEvent],
    num_slots: int,
    reserve_price: bool = False,
    payment_rule: str = "paper",
    max_reassignments: int = 3,
) -> ResumeResult:
    """Finish a (possibly crashed, possibly empty) journaled round.

    ``commands`` is the round's full deterministic command stream
    (:func:`~repro.auction.round_driver.round_commands`, ending in
    ``RoundFinalized``).  An empty journal starts the round
    (:func:`start_round`).  Otherwise the journal's recovered records
    are replayed and prefix-checked against it — a mismatch raises
    :class:`~repro.errors.ReplayDivergenceError`, a differing platform
    configuration raises :class:`~repro.errors.JournalError` — then the
    remaining commands run through the write-ahead wrapper.
    """
    records = journal.records
    if not records:
        return start_round(
            journal,
            commands,
            num_slots,
            reserve_price=reserve_price,
            payment_rule=payment_rule,
            max_reassignments=max_reassignments,
        )

    replay = replay_records(records)
    started = records[0].event
    assert isinstance(started, RoundStarted)
    requested = RoundStarted(
        slot=0,
        num_slots=num_slots,
        reserve_price=bool(reserve_price),
        payment_rule=payment_rule,
        max_reassignments=max_reassignments,
    )
    if started != requested:
        raise JournalError(
            f"journal {str(journal.directory)!r} records configuration "
            f"{started!r} but the resume requested {requested!r}"
        )
    journaled = [
        record.event
        for record in records[1:]
        if record.kind == KIND_COMMAND
    ]
    if list(commands[: len(journaled)]) != journaled:
        raise ReplayDivergenceError(
            f"journal {str(journal.directory)!r} holds a command "
            f"history that is not a prefix of the regenerated round; "
            f"refusing to resume (seed or scenario mismatch?)"
        )
    if len(journaled) > len(commands):
        raise ReplayDivergenceError(
            f"journal holds {len(journaled)} commands but the "
            f"regenerated round has only {len(commands)}"
        )
    platform = JournaledPlatform.from_recovery(journal, replay.platform)
    remaining = list(commands[len(journaled):])
    outcome = replay.outcome
    if remaining:
        outcome = execute_commands(platform, remaining)
    assert outcome is not None
    obs.counter("journal.resumed_rounds")
    return ResumeResult(
        outcome=outcome,
        platform=platform,
        replayed_commands=len(journaled),
        executed_commands=len(remaining),
    )
