"""Write-ahead journaling wrapper around the crowdsourcing platform.

:class:`JournaledPlatform` takes the platform's one input, the command
(:mod:`repro.auction.events`), through :meth:`JournaledPlatform.apply`,
and makes the journal the source of truth: every command is journaled
as a **command** record *before* the platform state changes.  The
:class:`~repro.auction.events.AuctionEvent` objects the platform emits
while applying it are not written out: the next record carries their
count and digest (:class:`~repro.durability.journal.EventDigest`), and
after ``RoundFinalized`` one close record carries the last digest.
A crash at any byte therefore loses at most work that can be redone —
replaying the journaled commands through a fresh platform reconstructs
the exact state, and checks it against the digests
(:mod:`repro.durability.replay`).

Ordering discipline per command:

1. ``validate_command`` on the inner platform — a rejected command
   raises :class:`~repro.errors.MechanismError` (or a bid field's
   :class:`~repro.errors.ValidationError`) and leaves the journal
   untouched (no partial record);
2. append the command it was handed (the write-ahead write), carrying
   the digest the previous command owes;
3. apply the command on the inner platform;
4. remember the digest of the platform's newly emitted events; the
   next record carries it.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.auction.events import (
    AuctionEvent,
    RoundFinalized,
    RoundStarted,
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

#: The inner platform's names the wrapper delegates: its read-only
#: state and its command check, none of its mutators.
_DELEGATED = frozenset(
    name
    for name, member in vars(CrowdsourcingPlatform).items()
    if isinstance(member, property)
) | {"events_since", "validate_command"}


class _Refused:
    """A mutator name perfbench's layer tracer wraps on the class; read
    from an instance, it raises like any name the wrapper refuses."""

    def __get__(self, instance: Any, owner: Any = None) -> Any:
        if instance is None:
            return self
        raise AttributeError


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

    The one mutator is :meth:`apply`.  Read-only accessors
    (``current_slot``, ``events``, ...) and ``validate_command``
    delegate to the inner platform; its mutators raise
    :class:`AttributeError` here.
    """

    def __init__(
        self,
        journal: Journal,
        num_slots: int,
        reserve_price: bool = False,
        payment_rule: str = "paper",
        max_reassignments: int = 3,
    ) -> None:
        if journal.last_seq:
            raise JournalError(
                f"journal {str(journal.directory)!r} already holds "
                f"{journal.last_seq} record(s); resume it with "
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
        yet (:attr:`~repro.durability.replay.ReplayResult.owed`); the
        first live append carries it.
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
        inner = self.__dict__.get("_inner")
        if inner is None or name not in _DELEGATED:
            raise AttributeError(
                f"{type(self).__name__} has no attribute {name!r}: it "
                f"takes commands through apply() and delegates only the "
                f"platform's read-only names"
            )
        return getattr(inner, name)

    # The inner platform's mutators, refused (see :class:`_Refused`).
    submit_bid = submit_tasks = report_dropout = _Refused()
    report_task_failure = close_slot = advance_to = finalize = _Refused()

    # ------------------------------------------------------------------
    # The one mutator
    # ------------------------------------------------------------------
    def apply(self, command: AuctionEvent) -> Any:
        """Journal ``command``, apply it, remember its events' digest.

        Returns what the inner platform's ``apply`` returns (the outcome
        for ``RoundFinalized``, after which :meth:`close_round` runs).
        An announcement of zero tasks emits nothing, so there is nothing
        to redo: it is validated and applied without a record.
        """
        inner = self._inner
        inner.validate_command(command)
        if isinstance(command, TasksAnnounced) and not command.count:
            return inner.apply(command)
        self._journal.append(KIND_COMMAND, command, self._owed)
        before = inner.event_count
        result = inner.apply(command)
        self._owed = EventDigest.of(inner.events_since(before))
        if isinstance(command, RoundFinalized):
            self.close_round()
        return result

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
