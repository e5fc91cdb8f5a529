"""Typed event records emitted by the incremental platform.

Every state change the platform makes is logged as one event; examples
print them to narrate a round, and tests assert on the sequence (e.g.
"payment settled exactly at the reported departure slot").

Events serialise losslessly: :meth:`AuctionEvent.to_dict` produces a
JSON-friendly dict tagged with the event's class name, and
:func:`event_from_dict` reconstructs the exact event — the round-trip
the JSONL trace export (:class:`~repro.obs.JsonlSink`) relies on.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict

from repro.errors import EventDecodeError


@dataclasses.dataclass(frozen=True)
class AuctionEvent:
    """Base class: something happened in ``slot``."""

    slot: int

    def describe(self) -> str:
        """One-line human-readable rendering."""
        return f"[slot {self.slot}] {type(self).__name__}"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly representation, tagged with the event type.

        Every field is an int, float, str or bool, and an event's
        ``__dict__`` holds exactly its fields in declaration order: this
        is ``dataclasses.asdict`` without the recursive deep copy.
        """
        return {"event": type(self).__name__, **vars(self)}


@dataclasses.dataclass(frozen=True)
class BidSubmitted(AuctionEvent):
    """A smartphone joined and submitted its bid."""

    phone_id: int
    arrival: int
    departure: int
    cost: float

    def describe(self) -> str:
        return (
            f"[slot {self.slot}] phone {self.phone_id} joined: window "
            f"[{self.arrival}, {self.departure}], claimed cost "
            f"{self.cost:g}"
        )


@dataclasses.dataclass(frozen=True)
class TasksAnnounced(AuctionEvent):
    """The platform announced the tasks arriving this slot.

    ``value`` is the per-task value ``ν`` of the announcement; the
    platform's own observational emission predates the field and leaves
    it at ``0.0``, while journal *command* records carry the real value
    so a replay can re-announce the tasks exactly.
    """

    count: int
    value: float = 0.0

    def describe(self) -> str:
        return f"[slot {self.slot}] {self.count} task(s) announced"


@dataclasses.dataclass(frozen=True)
class TaskAllocated(AuctionEvent):
    """A task was assigned to a smartphone."""

    task_id: int
    phone_id: int
    claimed_cost: float

    def describe(self) -> str:
        return (
            f"[slot {self.slot}] task {self.task_id} -> phone "
            f"{self.phone_id} (claimed cost {self.claimed_cost:g})"
        )


@dataclasses.dataclass(frozen=True)
class TaskUnserved(AuctionEvent):
    """A task found no eligible smartphone."""

    task_id: int

    def describe(self) -> str:
        return f"[slot {self.slot}] task {self.task_id} went unserved"


@dataclasses.dataclass(frozen=True)
class PaymentSettled(AuctionEvent):
    """A winner was paid at its reported departure slot."""

    phone_id: int
    amount: float

    def describe(self) -> str:
        return (
            f"[slot {self.slot}] phone {self.phone_id} paid "
            f"{self.amount:g}"
        )


@dataclasses.dataclass(frozen=True)
class SlotClosed(AuctionEvent):
    """The platform finished processing a slot."""

    pool_size: int

    def describe(self) -> str:
        return (
            f"[slot {self.slot}] closed; {self.pool_size} active "
            f"unallocated phone(s) remain"
        )


@dataclasses.dataclass(frozen=True)
class PhoneDropped(AuctionEvent):
    """A smartphone departed early, without notice, during ``slot``."""

    phone_id: int

    def describe(self) -> str:
        return (
            f"[slot {self.slot}] phone {self.phone_id} dropped out "
            f"before its reported departure"
        )


@dataclasses.dataclass(frozen=True)
class TaskFailed(AuctionEvent):
    """An allocated task's winner failed to deliver it.

    ``reason`` is ``"dropout"`` (the winner departed early) or
    ``"no-delivery"`` (the winner stayed but never handed in results).
    """

    task_id: int
    phone_id: int
    reason: str

    def describe(self) -> str:
        return (
            f"[slot {self.slot}] task {self.task_id} failed: phone "
            f"{self.phone_id} did not deliver ({self.reason})"
        )


@dataclasses.dataclass(frozen=True)
class TaskReassigned(AuctionEvent):
    """A failed task was reallocated to the next cheapest eligible bid."""

    task_id: int
    from_phone: int
    to_phone: int
    claimed_cost: float

    def describe(self) -> str:
        return (
            f"[slot {self.slot}] task {self.task_id} reassigned: phone "
            f"{self.from_phone} -> phone {self.to_phone} (claimed cost "
            f"{self.claimed_cost:g})"
        )


@dataclasses.dataclass(frozen=True)
class PaymentWithheld(AuctionEvent):
    """A non-delivering winner's payment was withheld.

    The payment rule pays for delivered sensing results only; a winner
    that drops out or fails its task is paid nothing.
    """

    phone_id: int
    reason: str

    def describe(self) -> str:
        return (
            f"[slot {self.slot}] payment withheld from phone "
            f"{self.phone_id} ({self.reason})"
        )


@dataclasses.dataclass(frozen=True)
class RoundStarted(AuctionEvent):
    """A round opened: the platform's configuration, for the journal.

    The first record of every write-ahead journal, carrying everything
    needed to reconstruct the platform during replay.  ``slot`` is ``0``
    by convention (the round has not reached slot 1 yet).
    """

    num_slots: int
    reserve_price: bool
    payment_rule: str
    max_reassignments: int

    def describe(self) -> str:
        return (
            f"[slot {self.slot}] round started: {self.num_slots} slot(s), "
            f"payment rule {self.payment_rule!r}"
        )


@dataclasses.dataclass(frozen=True)
class FailureReported(AuctionEvent):
    """A phone was reported as a non-deliverer (command record).

    ``CrowdsourcingPlatform.report_task_failure`` mutates state without
    emitting an observational event (the failure only *manifests* at
    settlement); the journal still needs a record of the command, which
    is this event.
    """

    phone_id: int

    def describe(self) -> str:
        return (
            f"[slot {self.slot}] phone {self.phone_id} reported as a "
            f"non-deliverer"
        )


@dataclasses.dataclass(frozen=True)
class SlotAdvanced(AuctionEvent):
    """The platform was told to close the current slot (command record)."""

    def describe(self) -> str:
        return f"[slot {self.slot}] slot close requested"


@dataclasses.dataclass(frozen=True)
class RoundFinalized(AuctionEvent):
    """The round's outcome was sealed (command record)."""

    def describe(self) -> str:
        return f"[slot {self.slot}] round finalized"


#: Every concrete event type, keyed by class name (the ``"event"`` tag
#: of :meth:`AuctionEvent.to_dict`).
EVENT_TYPES: Dict[str, type] = {
    cls.__name__: cls
    for cls in (
        BidSubmitted,
        TasksAnnounced,
        TaskAllocated,
        TaskUnserved,
        PaymentSettled,
        SlotClosed,
        PhoneDropped,
        TaskFailed,
        TaskReassigned,
        PaymentWithheld,
        RoundStarted,
        FailureReported,
        SlotAdvanced,
        RoundFinalized,
    )
}


def event_from_dict(payload: Dict[str, Any]) -> AuctionEvent:
    """Reconstruct an event from its :meth:`~AuctionEvent.to_dict` form.

    Raises :class:`~repro.errors.EventDecodeError` — a ``ValueError``
    subclass carrying the offending payload — when the payload is not a
    mapping, the ``"event"`` tag is missing or unknown (e.g. a trace
    written by an incompatible version), or the fields do not match the
    event class (missing, extra, or keyword-invalid).
    """
    if not isinstance(payload, dict):
        raise EventDecodeError(
            f"event payload must be a mapping, got "
            f"{type(payload).__name__}",
            payload=payload,
        )
    tag = payload.get("event")
    if tag not in EVENT_TYPES:
        raise EventDecodeError(
            f"unknown event type {tag!r}; expected one of "
            f"{sorted(EVENT_TYPES)}",
            payload=payload,
        )
    fields = {k: v for k, v in payload.items() if k != "event"}
    try:
        return EVENT_TYPES[tag](**fields)  # type: ignore[no-any-return]
    except TypeError as exc:
        raise EventDecodeError(
            f"malformed {tag} payload: {exc}", payload=payload
        ) from exc
