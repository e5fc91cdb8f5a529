"""Capacitated supply: phones that can serve several tasks (extension).

The base model caps every phone at one task per round (constraint (5)
of the paper).  Real devices can often take a handful of tasks during a
long idle window.  This module implements the *offline* mechanism for
per-phone capacities via the classic unit-expansion reduction:

* each bid with capacity ``k`` becomes ``k`` identical unit columns of
  the assignment matrix (same window, same cost);
* the maximum-weight matching over the expanded graph is the optimal
  capacitated allocation (costs are additive per task, so a phone's
  supply curve is flat up to its capacity);
* **payments are whole-phone VCG**: winner ``i`` serving ``u_i`` tasks
  is paid ``p_i = ω*(B) + u_i · b_i − ω*(B₋ᵢ)`` where ``B₋ᵢ`` removes
  *all* of ``i``'s units at once.  Removing units one at a time and
  paying per-unit critical values is **not** truthful in general (a
  multi-unit supplier can profit by shading one unit to move another
  unit's price), which is why no capacitated *online* mechanism is
  provided — designing a truthful one is genuinely open and out of the
  paper's scope.  DESIGN.md §7 records this boundary.

Truthfulness of the whole-phone VCG follows the standard argument: a
phone's utility equals ``ω*(B) − ω*(B₋ᵢ)`` plus terms independent of
its report, maximised by reporting truthfully.  The property tests fuzz
this (unilateral cost misreports across capacities).

Because a capacitated allocation violates the base model's
one-task-per-phone invariant, results are returned as a dedicated
:class:`CapacitatedOutcome` rather than an
:class:`~repro.model.AuctionOutcome`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import MechanismError, ValidationError
from repro.matching.solver import max_weight_matching
from repro.model.bid import Bid
from repro.model.round_config import RoundConfig
from repro.model.task import TaskSchedule


@dataclasses.dataclass(frozen=True)
class CapacitatedOutcome:
    """Allocation and payments of one capacitated offline round.

    Attributes
    ----------
    allocation:
        ``task_id -> phone_id``; a phone may appear multiple times, up
        to its capacity.
    payments:
        ``phone_id -> payment`` (covers all of the phone's tasks).
    claimed_welfare:
        ``Σ (ν − b_i)`` over served tasks, on claimed costs.
    """

    allocation: Dict[int, int]
    payments: Dict[int, float]
    claimed_welfare: float

    def units_of(self, phone_id: int) -> int:
        """How many tasks ``phone_id`` serves."""
        return sum(1 for p in self.allocation.values() if p == phone_id)

    @property
    def winners(self) -> Tuple[int, ...]:
        """Phones serving at least one task, sorted."""
        return tuple(sorted(set(self.allocation.values())))

    @property
    def total_payment(self) -> float:
        """Sum of all payments."""
        return sum(self.payments.values())


class CapacitatedOfflineVCGMechanism:
    """Offline optimal allocation + whole-phone VCG with capacities.

    Parameters
    ----------
    capacities:
        ``phone_id -> capacity``; phones absent from the mapping have
        capacity 1 (the paper's base model).
    """

    name = "capacitated-offline-vcg"
    is_truthful = True
    is_online = False

    def __init__(
        self, capacities: Optional[Mapping[int, int]] = None
    ) -> None:
        self._capacities: Dict[int, int] = {}
        for phone_id, capacity in (capacities or {}).items():
            if not isinstance(capacity, int) or isinstance(capacity, bool):
                raise ValidationError(
                    f"capacity of phone {phone_id} must be an int, got "
                    f"{type(capacity).__name__}"
                )
            if capacity < 1:
                raise ValidationError(
                    f"capacity of phone {phone_id} must be >= 1, got "
                    f"{capacity}"
                )
            self._capacities[phone_id] = capacity

    def capacity_of(self, phone_id: int) -> int:
        """The phone's capacity (1 when unspecified)."""
        return self._capacities.get(phone_id, 1)

    # ------------------------------------------------------------------
    def run(
        self,
        bids: Sequence[Bid],
        schedule: TaskSchedule,
        config: Optional[RoundConfig] = None,
    ) -> CapacitatedOutcome:
        """Run one capacitated offline round."""
        effective = config or RoundConfig.for_schedule(schedule)
        effective.validate_schedule(schedule)
        effective.validate_bids(bids)

        tasks = schedule.tasks
        if not tasks or not bids:
            return CapacitatedOutcome(
                allocation={}, payments={}, claimed_welfare=0.0
            )

        # Unit expansion: column j belongs to unit_owner[j].
        unit_owner: List[int] = []
        unit_bids: List[Bid] = []
        for bid in sorted(bids, key=lambda b: b.phone_id):
            for _ in range(self.capacity_of(bid.phone_id)):
                unit_owner.append(bid.phone_id)
                unit_bids.append(bid)

        weights = np.zeros((len(tasks), len(unit_bids)))
        for row, task in enumerate(tasks):
            for col, bid in enumerate(unit_bids):
                if bid.is_active(task.slot):
                    weights[row, col] = task.value - bid.cost
        matching = max_weight_matching(weights)
        welfare = matching.total_weight

        allocation: Dict[int, int] = {}
        units_won: Dict[int, int] = {}
        for row, col in matching.pairs:
            phone_id = unit_owner[col]
            allocation[tasks[row].task_id] = phone_id
            units_won[phone_id] = units_won.get(phone_id, 0) + 1

        bid_by_phone = {bid.phone_id: bid for bid in bids}
        payments: Dict[int, float] = {}
        for phone_id, units in units_won.items():
            welfare_without = self._welfare_without_phone(
                weights, unit_owner, phone_id
            )
            payments[phone_id] = (
                welfare
                + units * bid_by_phone[phone_id].cost
                - welfare_without
            )
        return CapacitatedOutcome(
            allocation=allocation,
            payments=payments,
            claimed_welfare=welfare,
        )

    @staticmethod
    def _welfare_without_phone(
        weights: np.ndarray,
        unit_owner: List[int],
        phone_id: int,
    ) -> float:
        """``ω*(B₋ᵢ)``: drop *all* of the phone's unit columns, re-solve."""
        keep = [
            col
            for col, owner in enumerate(unit_owner)
            if owner != phone_id
        ]
        return max_weight_matching(weights[:, keep]).total_weight


def check_capacitated_outcome(
    outcome: CapacitatedOutcome,
    mechanism: CapacitatedOfflineVCGMechanism,
) -> None:
    """Assert no phone serves more tasks than its capacity.

    Raises :class:`~repro.errors.MechanismError` on a violation.
    """
    for phone_id in outcome.winners:
        units = outcome.units_of(phone_id)
        capacity = mechanism.capacity_of(phone_id)
        if units > capacity:
            raise MechanismError(
                f"phone {phone_id} serves {units} tasks, capacity "
                f"{capacity}"
            )
