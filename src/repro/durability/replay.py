"""Deterministic replay and resume of journaled rounds.

The journal is a *redo log of commands*: applying the command records
to a fresh :class:`~repro.auction.CrowdsourcingPlatform` — in order,
one ``apply`` each, nothing else — reconstructs the exact platform
state, because the platform is deterministic in its inputs.  ``apply``
checks a journaled command as it checks a live one, slot included; a
command it refuses raises :class:`~repro.errors.JournalError` naming
the record.  The events the platform emits are not in the journal;
they are **verified**: the record after each command carries the
count and digest of the events that command emitted when it was
journaled, and the events re-execution emits must hash to it.  Any disagreement raises
:class:`~repro.errors.ReplayDivergenceError` naming the command — the
journal and the code that wrote it are out of sync, and replay refuses
to silently diverge.  A *missing* digest for the journal's last command
is tolerated: that is exactly what a crash after its record leaves
behind, and :attr:`ReplayResult.owed` hands it to the next append.

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
from typing import Optional, Sequence, Tuple

from repro import obs
from repro.auction.events import AuctionEvent, RoundFinalized, RoundStarted
from repro.auction.platform import CrowdsourcingPlatform
from repro.auction.round_driver import execute_commands
from repro.durability.journal import (
    KIND_CLOSE,
    KIND_COMMAND,
    EventDigest,
    Journal,
    JournalRecord,
    scan_journal,
)
from repro.durability.journaled import JournaledPlatform
from repro.errors import (
    JournalError,
    MechanismError,
    ReplayDivergenceError,
    ValidationError,
)
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
        How many command records were re-executed, and how many of the
        events they re-emitted were checked against a journaled digest.
    records:
        The verified journal records the replay consumed.
    owed:
        The digest of the last command's events when no record covers
        it yet (a journal cut after a command), else ``None``.
    """

    outcome: Optional[AuctionOutcome]
    platform: CrowdsourcingPlatform
    commands_applied: int
    events_verified: int
    records: Tuple[JournalRecord, ...]
    owed: Optional[EventDigest] = None

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
    # The last command and the digest of its events, which the next
    # record must carry.
    last = header
    owed: Optional[EventDigest] = EventDigest.of(platform.events_since(0))
    commands_applied = 0
    events_verified = 0
    for record in records[1:]:
        if owed is None:
            raise JournalError(
                f"record {record.seq} follows the close record",
                sequence=record.seq,
            )
        if record.emitted is None:
            raise JournalError(
                f"record {record.seq} misses the digest of the events of "
                f"command {last.seq}",
                sequence=record.seq,
            )
        if record.emitted != owed:
            raise ReplayDivergenceError(
                f"command {last.seq} ({type(last.event).__name__}) "
                f"diverges from replay: record {record.seq} journals "
                f"{record.emitted.count} event(s) with digest "
                f"{record.emitted.sha256}, re-execution emitted "
                f"{owed.count} with digest {owed.sha256}",
                sequence=last.seq,
            )
        events_verified += owed.count
        if record.kind == KIND_CLOSE:
            if not isinstance(last.event, RoundFinalized):
                raise JournalError(
                    f"close record {record.seq} does not follow "
                    f"RoundFinalized",
                    sequence=record.seq,
                )
            owed = None
            continue
        assert record.event is not None
        before = platform.event_count
        try:
            result = platform.apply(record.event)
        except (MechanismError, ValidationError) as exc:
            raise JournalError(
                f"record {record.seq} holds a command the platform "
                f"refuses: {exc}",
                sequence=record.seq,
            ) from exc
        if isinstance(record.event, RoundFinalized):
            outcome = result
        owed = EventDigest.of(platform.events_since(before))
        last = record
        commands_applied += 1
    return ReplayResult(
        outcome=outcome,
        platform=platform,
        commands_applied=commands_applied,
        events_verified=events_verified,
        records=tuple(records),
        owed=owed,
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
    remaining commands run through the write-ahead wrapper, whose first
    append carries the digest the last replayed command still owes.  A
    journal cut after ``RoundFinalized`` gets its close record.
    """
    records = journal.recovered
    recovered_seq = records[-1].seq if records else 0
    if journal.last_seq != recovered_seq:
        raise JournalError(
            f"journal {str(journal.directory)!r} was appended to since it "
            f"was opened; resume a round from a freshly opened journal"
        )
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
    platform = JournaledPlatform.from_recovery(
        journal, replay.platform, replay.owed
    )
    remaining = list(commands[len(journaled):])
    outcome = replay.outcome
    if remaining:
        outcome = execute_commands(platform, remaining)
    elif replay.owed is not None:
        # Cut after RoundFinalized, before the close record.
        platform.close_round()
    assert outcome is not None
    obs.counter("journal.resumed_rounds")
    return ResumeResult(
        outcome=outcome,
        platform=platform,
        replayed_commands=len(journaled),
        executed_commands=len(remaining),
    )
