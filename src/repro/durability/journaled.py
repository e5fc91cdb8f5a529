"""Write-ahead journaling wrapper around the crowdsourcing platform.

:class:`JournaledPlatform` exposes the same mutating surface as
:class:`~repro.auction.CrowdsourcingPlatform` and makes the journal the
source of truth: every mutation is journaled as a **command** record
*before* the platform state changes.  The
:class:`~repro.auction.events.AuctionEvent` objects the platform emits
while applying it are not written out: the next record carries their
count and digest (:class:`~repro.durability.journal.EventDigest`), and
after ``RoundFinalized`` one close record carries the last digest.
A crash at any byte therefore loses at most work that can be redone —
replaying the journaled commands through a fresh platform reconstructs
the exact state, and checks it against the digests
(:mod:`repro.durability.replay`).

Ordering discipline per mutation:

1. ``validate_*`` on the inner platform — a rejected command raises
   :class:`~repro.errors.MechanismError` and leaves the journal
   untouched (no partial record);
2. append the command record (the write-ahead write), carrying the
   digest the previous command owes;
3. apply the mutation on the inner platform;
4. remember the digest of the platform's newly emitted events; the
   next record carries it.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.auction.events import (
    AuctionEvent,
    BidSubmitted,
    FailureReported,
    PhoneDropped,
    RoundFinalized,
    RoundStarted,
    SlotAdvanced,
    TasksAnnounced,
)
from repro.auction.platform import CrowdsourcingPlatform
from repro.durability.journal import (
    KIND_CLOSE,
    KIND_COMMAND,
    EventDigest,
    Journal,
)
from repro.errors import JournalError
from repro.model.bid import Bid
from repro.model.outcome import AuctionOutcome
from repro.model.task import SensingTask


class JournaledPlatform:
    """A :class:`CrowdsourcingPlatform` whose history survives crashes.

    Parameters
    ----------
    journal:
        The open :class:`~repro.durability.Journal` to write through.
        A fresh (empty) journal receives a
        :class:`~repro.auction.events.RoundStarted` header command
        carrying the platform configuration; a non-empty journal must
        be resumed via :func:`~repro.durability.replay.resume_round`
        (constructing a fresh wrapper over it raises).
    num_slots / reserve_price / payment_rule / max_reassignments:
        Forwarded to the inner platform.

    Read-only accessors (``current_slot``, ``events``, ``pool_size``,
    ...) delegate to the inner platform.
    """

    def __init__(
        self,
        journal: Journal,
        num_slots: int,
        reserve_price: bool = False,
        payment_rule: str = "paper",
        max_reassignments: int = 3,
    ) -> None:
        if journal.records:
            raise JournalError(
                f"journal {str(journal.directory)!r} already holds "
                f"{len(journal.records)} record(s); resume it with "
                f"repro.durability.resume_round instead of starting a "
                f"fresh round over it"
            )
        inner = CrowdsourcingPlatform(
            num_slots=num_slots,
            reserve_price=reserve_price,
            payment_rule=payment_rule,
            max_reassignments=max_reassignments,
        )
        self._journal = journal
        self._inner = inner
        self._owed: Optional[EventDigest] = EventDigest.of(
            inner.events_since(0)
        )
        journal.append(
            KIND_COMMAND,
            RoundStarted(
                slot=0,
                num_slots=num_slots,
                reserve_price=bool(reserve_price),
                payment_rule=payment_rule,
                max_reassignments=max_reassignments,
            ),
        )

    @classmethod
    def from_recovery(
        cls,
        journal: Journal,
        inner: CrowdsourcingPlatform,
        owed: Optional[EventDigest] = None,
    ) -> "JournaledPlatform":
        """Wrap an already-replayed platform over its own journal.

        Used by :func:`~repro.durability.replay.resume_round`: the
        journal already holds the history that produced ``inner``, so
        no header command is appended.  ``owed`` is the digest of the
        events of the journal's last command when no record covers it
        yet (:attr:`~repro.durability.ReplayResult.owed`); the first
        live append carries it.
        """
        self = cls.__new__(cls)
        self._journal = journal
        self._inner = inner
        self._owed = owed
        return self

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    @property
    def journal(self) -> Journal:
        """The journal this platform writes through."""
        return self._journal

    @property
    def inner(self) -> CrowdsourcingPlatform:
        """The wrapped platform."""
        return self._inner

    def __getattr__(self, name: str) -> Any:
        # Read-only delegation: properties and validators of the inner
        # platform (mutators are all overridden above in the class body).
        inner = self.__dict__.get("_inner")
        if inner is None:
            raise AttributeError(name)
        return getattr(inner, name)

    def _run(self, command: AuctionEvent, apply: Any) -> Any:
        """Journal ``command``, apply it, remember its events' digest."""
        self._journal.append(KIND_COMMAND, command, self._owed)
        before = self._inner.event_count
        result = apply()
        self._owed = EventDigest.of(self._inner.events_since(before))
        return result

    # ------------------------------------------------------------------
    # Mutating surface (mirrors CrowdsourcingPlatform)
    # ------------------------------------------------------------------
    def submit_bid(self, bid: Bid) -> None:
        """Journal and submit a bid (see the platform's docstring)."""
        self._inner.validate_bid(bid)
        self._run(
            BidSubmitted(
                slot=self._inner.current_slot,
                phone_id=bid.phone_id,
                arrival=bid.arrival,
                departure=bid.departure,
                cost=bid.cost,
            ),
            lambda: self._inner.submit_bid(bid),
        )

    def submit_tasks(self, count: int, value: float) -> List[SensingTask]:
        """Journal and announce ``count`` tasks of ``value``."""
        self._inner.validate_task_submission(count, value)
        if not count:
            # The platform emits nothing for an empty announcement, so
            # there is nothing to redo: skip the journal entirely.
            return self._inner.submit_tasks(count, value)
        return self._run(
            TasksAnnounced(
                slot=self._inner.current_slot,
                count=count,
                value=float(value),
            ),
            lambda: self._inner.submit_tasks(count, value),
        )

    def report_dropout(self, phone_id: int) -> None:
        """Journal and report an early departure."""
        self._inner.validate_dropout(phone_id)
        self._run(
            PhoneDropped(
                slot=self._inner.current_slot, phone_id=phone_id
            ),
            lambda: self._inner.report_dropout(phone_id),
        )

    def report_task_failure(self, phone_id: int) -> None:
        """Journal and mark a phone as a non-deliverer."""
        self._inner.validate_task_failure(phone_id)
        self._run(
            FailureReported(
                slot=self._inner.current_slot, phone_id=phone_id
            ),
            lambda: self._inner.report_task_failure(phone_id),
        )

    def close_slot(self) -> None:
        """Journal and close the current slot."""
        self._inner.validate_close()
        self._run(
            SlotAdvanced(slot=self._inner.current_slot),
            lambda: self._inner.close_slot(),
        )

    def advance_to(self, slot: int) -> None:
        """Close empty slots until ``slot`` is open, journaling each."""
        self._inner.validate_advance(slot)
        while self._inner.current_slot < slot:
            self.close_slot()

    def finalize(self) -> AuctionOutcome:
        """Journal the seal, finalize the round and close the journal's
        round (:meth:`close_round`)."""
        self._inner.validate_finalize()
        outcome: Optional[AuctionOutcome] = self._run(
            RoundFinalized(slot=self._inner.current_slot),
            lambda: self._inner.finalize(),
        )
        self.close_round()
        assert outcome is not None
        return outcome

    def close_round(self) -> None:
        """Append the close record, which carries the digest of
        ``RoundFinalized``'s events, then fsync.

        The fsync runs however many records await the next batched
        one: the outcome is about to be acted on, so its history must
        be on disk.
        """
        if not self._inner.finalized or self._owed is None:
            raise JournalError(
                "a close record follows RoundFinalized, once per round"
            )
        self._journal.append(KIND_CLOSE, None, self._owed)
        self._owed = None
        self._journal.sync()
