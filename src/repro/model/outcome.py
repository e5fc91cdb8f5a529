"""The result of running a mechanism: allocation + payments.

An :class:`AuctionOutcome` is a frozen record of what a mechanism decided:
which bid won which task (the allocation rule ``π``), how much each phone
is paid (the payment rule ``p``), and in which slot each payment is
delivered.  It also keeps the inputs (bids and schedule) so the metrics
layer can compute claimed welfare without re-plumbing arguments.

True (private-cost) welfare and utilities live in :mod:`repro.metrics`,
which combines an outcome with the private profiles.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, Optional, Sequence, Tuple

from repro.errors import MechanismError, ValidationError
from repro.model.bid import Bid
from repro.model.task import SensingTask, TaskSchedule


class AuctionOutcome:
    """Immutable allocation and payment record for one round.

    Parameters
    ----------
    bids:
        The bids the mechanism saw (one per phone).
    schedule:
        The task schedule of the round.
    allocation:
        Mapping ``task_id -> phone_id`` of winning assignments.  Tasks
        absent from the mapping went unserved.
    payments:
        Mapping ``phone_id -> payment``.  Phones absent from the mapping
        are paid zero.
    payment_slots:
        Mapping ``phone_id -> slot`` in which the payment is delivered
        (the paper's online mechanism pays at the reported departure
        slot).  Optional; phones absent from the mapping are settled at
        the end of the round.
    """

    def __init__(
        self,
        bids: Sequence[Bid],
        schedule: TaskSchedule,
        allocation: Mapping[int, int],
        payments: Mapping[int, float],
        payment_slots: Optional[Mapping[int, int]] = None,
    ) -> None:
        self._bids_by_phone: Dict[int, Bid] = {
            bid.phone_id: bid for bid in bids
        }
        if len(self._bids_by_phone) != len(bids):
            seen = set()
            for bid in bids:
                if bid.phone_id in seen:
                    raise MechanismError(
                        f"duplicate bid for phone {bid.phone_id} in outcome"
                    )
                seen.add(bid.phone_id)
        self._schedule = schedule
        self._allocation: Dict[int, int] = dict(allocation)
        self._payments: Dict[int, float] = {
            phone: float(amount) for phone, amount in payments.items()
        }
        self._payment_slots: Dict[int, int] = dict(payment_slots or {})
        self._validate()
        self._phone_to_task: Dict[int, int] = {
            phone_id: task_id
            for task_id, phone_id in self._allocation.items()
        }

    def _validate(self) -> None:
        """Raise :class:`MechanismError` at the first inconsistent entry.

        One fused test passes a consistent outcome: distinct winners,
        known tasks and phones, each winner active at its task's slot,
        and payments and payment slots only for known phones, inside the
        horizon.  Anything else runs :meth:`_check_each_entry`, which
        raises the error for the first bad entry in the order the checks
        are written there.
        """
        bids = self._bids_by_phone
        task_of = self._schedule.task
        num_slots = self._schedule.num_slots
        try:
            consistent = (
                len(set(self._allocation.values())) == len(self._allocation)
                and all(
                    bids[phone_id].arrival
                    <= task_of(task_id).slot
                    <= bids[phone_id].departure
                    for task_id, phone_id in self._allocation.items()
                )
                and self._payments.keys() <= bids.keys()
                and self._payment_slots.keys() <= bids.keys()
                and all(
                    1 <= slot <= num_slots
                    for slot in self._payment_slots.values()
                )
            )
        except (KeyError, TypeError, ValidationError):
            consistent = False
        if not consistent:
            self._check_each_entry()

    def _check_each_entry(self) -> None:
        assigned_phones = set()
        for task_id, phone_id in self._allocation.items():
            if task_id not in self._schedule:
                raise MechanismError(
                    f"allocation references unknown task_id {task_id}"
                )
            if phone_id not in self._bids_by_phone:
                raise MechanismError(
                    f"allocation references unknown phone_id {phone_id}"
                )
            if phone_id in assigned_phones:
                raise MechanismError(
                    f"phone {phone_id} allocated more than one task; the "
                    f"model allows at most one task per phone per round"
                )
            assigned_phones.add(phone_id)
            task = self._schedule.task(task_id)
            bid = self._bids_by_phone[phone_id]
            if not bid.is_active(task.slot):
                raise MechanismError(
                    f"task {task.label} (slot {task.slot}) allocated to "
                    f"phone {phone_id} whose claimed window is "
                    f"[{bid.arrival}, {bid.departure}]"
                )
        for phone_id in self._payments:
            if phone_id not in self._bids_by_phone:
                raise MechanismError(
                    f"payment recorded for unknown phone_id {phone_id}"
                )
        for phone_id, slot in self._payment_slots.items():
            if phone_id not in self._bids_by_phone:
                raise MechanismError(
                    f"payment slot recorded for unknown phone_id {phone_id}"
                )
            if slot < 1 or slot > self._schedule.num_slots:
                raise MechanismError(
                    f"payment slot {slot} for phone {phone_id} outside the "
                    f"round horizon"
                )

    # ------------------------------------------------------------------
    # Inputs
    # ------------------------------------------------------------------
    @property
    def bids(self) -> Tuple[Bid, ...]:
        """The bids the mechanism saw, ordered by phone id."""
        return tuple(
            self._bids_by_phone[pid] for pid in sorted(self._bids_by_phone)
        )

    @property
    def schedule(self) -> TaskSchedule:
        """The round's task schedule."""
        return self._schedule

    @property
    def bid_phone_ids(self) -> FrozenSet[int]:
        """The phone ids that submitted a bid (unordered).

        Cheaper than deriving the set from :attr:`bids`, which sorts and
        materialises the full bid tuple — the metrics layer walks this
        per phone on the city tier.
        """
        return frozenset(self._bids_by_phone)

    def bid_of(self, phone_id: int) -> Bid:
        """The bid phone ``phone_id`` submitted."""
        try:
            return self._bids_by_phone[phone_id]
        except KeyError as exc:
            raise MechanismError(f"unknown phone_id {phone_id}") from exc

    # ------------------------------------------------------------------
    # Allocation (the rule π)
    # ------------------------------------------------------------------
    @property
    def allocation(self) -> Dict[int, int]:
        """Copy of the ``task_id -> phone_id`` winning assignments."""
        return dict(self._allocation)

    @property
    def winners(self) -> Tuple[int, ...]:
        """Phone ids holding a winning bid, sorted."""
        return tuple(sorted(self._phone_to_task))

    @property
    def served_tasks(self) -> Tuple[SensingTask, ...]:
        """The tasks that were allocated, in schedule order."""
        return tuple(
            task for task in self._schedule if task.task_id in self._allocation
        )

    @property
    def unserved_tasks(self) -> Tuple[SensingTask, ...]:
        """The tasks no smartphone was assigned to."""
        return tuple(
            task
            for task in self._schedule
            if task.task_id not in self._allocation
        )

    def is_winner(self, phone_id: int) -> bool:
        """Whether ``phone_id`` holds a winning bid."""
        return phone_id in self._phone_to_task

    def task_of(self, phone_id: int) -> Optional[SensingTask]:
        """The task allocated to ``phone_id``, or ``None`` if it lost."""
        task_id = self._phone_to_task.get(phone_id)
        return None if task_id is None else self._schedule.task(task_id)

    def phone_of(self, task_id: int) -> Optional[int]:
        """The phone serving ``task_id``, or ``None`` if unserved."""
        return self._allocation.get(task_id)

    # ------------------------------------------------------------------
    # Payments (the rule p)
    # ------------------------------------------------------------------
    @property
    def payments(self) -> Dict[int, float]:
        """Copy of the ``phone_id -> payment`` mapping (losers omitted)."""
        return dict(self._payments)

    def payment(self, phone_id: int) -> float:
        """Payment to ``phone_id`` (zero when it lost)."""
        if phone_id not in self._bids_by_phone:
            raise MechanismError(f"unknown phone_id {phone_id}")
        return self._payments.get(phone_id, 0.0)

    def payment_slot(self, phone_id: int) -> int:
        """Slot in which ``phone_id`` is paid (round end if unrecorded)."""
        if phone_id not in self._bids_by_phone:
            raise MechanismError(f"unknown phone_id {phone_id}")
        return self._payment_slots.get(phone_id, self._schedule.num_slots)

    @property
    def total_payment(self) -> float:
        """Sum of all payments made by the platform."""
        return sum(self._payments.values())

    # ------------------------------------------------------------------
    # Claimed welfare (Definition 3 evaluated on *claimed* costs)
    # ------------------------------------------------------------------
    @property
    def claimed_welfare(self) -> float:
        """Social welfare computed from claimed costs, Σ (ν − b_i).

        Under a truthful mechanism this equals the true social welfare;
        for untruthful baselines the two can differ, which is exactly what
        the metrics layer measures.
        """
        total = 0.0
        for task_id, phone_id in self._allocation.items():
            task = self._schedule.task(task_id)
            total += task.value - self._bids_by_phone[phone_id].cost
        return total

    # ------------------------------------------------------------------
    # Serialisation (experiment archiving)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """A self-contained, JSON-friendly representation.

        Includes the inputs (bids and schedule), so a stored outcome can
        be audited later without the original scenario object.
        """
        return {
            "num_slots": self._schedule.num_slots,
            "tasks": [task.to_dict() for task in self._schedule],
            "bids": [bid.to_dict() for bid in self.bids],
            "allocation": {
                str(task_id): phone_id
                for task_id, phone_id in sorted(self._allocation.items())
            },
            "payments": {
                str(phone_id): amount
                for phone_id, amount in sorted(self._payments.items())
            },
            "payment_slots": {
                str(phone_id): slot
                for phone_id, slot in sorted(self._payment_slots.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "AuctionOutcome":
        """Inverse of :meth:`to_dict` (validates on reconstruction)."""
        from repro.model.task import SensingTask  # local: avoid cycle noise

        try:
            schedule = TaskSchedule(
                num_slots=int(payload["num_slots"]),
                tasks=[
                    SensingTask.from_dict(entry)
                    for entry in payload["tasks"]
                ],
            )
            bids = [Bid.from_dict(entry) for entry in payload["bids"]]
            allocation = {
                int(task_id): int(phone_id)
                for task_id, phone_id in payload["allocation"].items()
            }
            payments = {
                int(phone_id): float(amount)
                for phone_id, amount in payload["payments"].items()
            }
            payment_slots = {
                int(phone_id): int(slot)
                for phone_id, slot in payload["payment_slots"].items()
            }
        except (KeyError, TypeError, AttributeError) as exc:
            raise MechanismError(
                f"malformed outcome payload: {exc}"
            ) from exc
        return cls(
            bids=bids,
            schedule=schedule,
            allocation=allocation,
            payments=payments,
            payment_slots=payment_slots,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AuctionOutcome):
            return NotImplemented
        return (
            self._bids_by_phone == other._bids_by_phone
            and self._schedule == other._schedule
            and self._allocation == other._allocation
            and self._payments == other._payments  # repro: noqa-no-float-equality -- record identity: outcomes are equal iff stored exactly alike
            and self._payment_slots == other._payment_slots
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AuctionOutcome(winners={len(self._phone_to_task)}, "
            f"served={len(self._allocation)}/{len(self._schedule)}, "
            f"total_payment={self.total_payment:.2f})"
        )
