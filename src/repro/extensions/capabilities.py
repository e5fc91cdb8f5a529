"""Typed sensing tasks and phone capabilities (extension).

The base model lets any phone serve any task.  Real sensing tasks need
specific hardware — a noise map needs microphones, an air-quality map a
gas sensor, a coverage map a radio scan.  This module adds a
:class:`CapabilityModel` (task kinds + per-phone capability sets, both
**public, verifiable** information — the platform can check a phone's
hardware profile, so capabilities are not part of the strategic type)
and capability-aware versions of both mechanisms:

* :class:`TypedOfflineVCGMechanism` — the Fig. 3 graph restricted to
  compatible (task, phone) pairs; VCG payments unchanged.  Truthfulness
  and individual rationality carry over verbatim: the VCG argument never
  used the completeness of the compatibility graph.
* :class:`TypedOnlineGreedyMechanism` — per slot, each task takes the
  cheapest *capable* active unallocated bid; payments are exact critical
  values computed by the same monotone binary search as the base exact
  rule (winning remains monotone non-increasing in the claimed cost).
  Algorithm 2's shortcut ("max winning cost in the window") is *not*
  valid here — the critical player for a microphone task may be hidden
  behind winners of unrelated kinds — which is why the typed online
  mechanism always uses the search.

Both are audited by the same property tests as the base mechanisms.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import MechanismError, ValidationError
from repro.matching.graph import TaskAssignmentGraph
from repro.mechanisms.base import Mechanism
from repro.model.bid import Bid
from repro.model.outcome import AuctionOutcome
from repro.model.round_config import RoundConfig
from repro.model.task import SensingTask, TaskSchedule

#: The kind assigned to tasks/phones not mentioned by a model.
GENERIC_KIND = "generic"


@dataclasses.dataclass(frozen=True)
class CapabilityModel:
    """Which phone can serve which task.

    Attributes
    ----------
    task_kinds:
        ``task_id -> kind``.  Tasks absent from the mapping are
        :data:`GENERIC_KIND`.
    phone_capabilities:
        ``phone_id -> frozenset of kinds``.  Phones absent from the
        mapping can serve only :data:`GENERIC_KIND`.  A phone serves a
        task iff the task's kind is in its capability set; every phone
        implicitly supports :data:`GENERIC_KIND`.
    """

    task_kinds: Mapping[int, str] = dataclasses.field(default_factory=dict)
    phone_capabilities: Mapping[int, FrozenSet[str]] = dataclasses.field(
        default_factory=dict
    )

    def kind_of(self, task: SensingTask) -> str:
        """The task's kind."""
        return self.task_kinds.get(task.task_id, GENERIC_KIND)

    def capabilities_of(self, phone_id: int) -> FrozenSet[str]:
        """The phone's capability set (always includes the generic kind)."""
        return self.phone_capabilities.get(
            phone_id, frozenset()
        ) | {GENERIC_KIND}

    def compatible(self, task: SensingTask, bid: Bid) -> bool:
        """Whether the bidding phone can serve the task (hardware-wise)."""
        return self.kind_of(task) in self.capabilities_of(bid.phone_id)

    def kinds(self) -> Tuple[str, ...]:
        """All kinds mentioned by the model, sorted."""
        mentioned = set(self.task_kinds.values())
        for capabilities in self.phone_capabilities.values():
            mentioned |= set(capabilities)
        mentioned.add(GENERIC_KIND)
        return tuple(sorted(mentioned))


def generate_capability_model(
    schedule: TaskSchedule,
    phone_ids: Sequence[int],
    kinds: Sequence[str],
    rng: np.random.Generator,
    capability_probability: float = 0.5,
) -> CapabilityModel:
    """A random capability model for experiments.

    Each task gets a uniformly random kind from ``kinds``; each phone
    gets each kind independently with ``capability_probability``.
    """
    if not kinds:
        raise ValidationError("kinds must not be empty")
    if not (0.0 <= capability_probability <= 1.0):
        raise ValidationError(
            f"capability_probability must be in [0, 1], got "
            f"{capability_probability}"
        )
    task_kinds = {
        task.task_id: kinds[int(rng.integers(len(kinds)))]
        for task in schedule
    }
    phone_capabilities = {
        phone_id: frozenset(
            kind
            for kind in kinds
            if rng.random() < capability_probability
        )
        for phone_id in phone_ids
    }
    return CapabilityModel(
        task_kinds=task_kinds, phone_capabilities=phone_capabilities
    )


# ----------------------------------------------------------------------
# Offline
# ----------------------------------------------------------------------
class TypedOfflineVCGMechanism(Mechanism):
    """Offline optimal + VCG on the capability-restricted graph."""

    name = "typed-offline-vcg"
    is_truthful = True
    is_online = False

    def __init__(self, model: CapabilityModel) -> None:
        self._model = model

    @property
    def model(self) -> CapabilityModel:
        """The (public) capability model in force."""
        return self._model

    def run(
        self,
        bids: Sequence[Bid],
        schedule: TaskSchedule,
        config: Optional[RoundConfig] = None,
    ) -> AuctionOutcome:
        self._resolve_config(bids, schedule, config)
        graph = TaskAssignmentGraph(
            schedule, bids, compatible=self._model.compatible
        )
        allocation, optimal_welfare = graph.solve()

        bid_by_phone = {bid.phone_id: bid for bid in bids}
        payments: Dict[int, float] = {}
        payment_slots: Dict[int, int] = {}
        # Sorted so payment-dict insertion order (and therefore the
        # outcome's serialised bytes) never depends on set hash order.
        for phone_id in sorted(set(allocation.values())):
            welfare_without = graph.welfare_without_phone(phone_id)
            bid = bid_by_phone[phone_id]
            payments[phone_id] = optimal_welfare + bid.cost - welfare_without
            payment_slots[phone_id] = bid.departure

        return AuctionOutcome(
            bids=bids,
            schedule=schedule,
            allocation=allocation,
            payments=payments,
            payment_slots=payment_slots,
        )


# ----------------------------------------------------------------------
# Online
# ----------------------------------------------------------------------
def _typed_greedy_allocation(
    bids: Sequence[Bid],
    schedule: TaskSchedule,
    model: CapabilityModel,
    reserve_price: bool,
    exclude_phone: Optional[int] = None,
    stop_after_slot: Optional[int] = None,
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Algorithm 1 generalised: cheapest *capable* pooled bid per task.

    Returns ``(allocation task_id -> phone_id, win_slots phone_id -> slot)``.
    The pool is scanned per task; with per-slot task counts this is
    ``O(n)`` per task, fine for the experiment scale (per-kind heaps are
    the production optimisation and are not needed here).
    """
    last_slot = schedule.num_slots if stop_after_slot is None else min(
        stop_after_slot, schedule.num_slots
    )
    arrivals: Dict[int, List[Bid]] = {}
    for bid in bids:
        if exclude_phone is not None and bid.phone_id == exclude_phone:
            continue
        arrivals.setdefault(bid.arrival, []).append(bid)

    pool: Dict[int, Bid] = {}
    allocation: Dict[int, int] = {}
    win_slots: Dict[int, int] = {}
    for slot in range(1, last_slot + 1):
        for bid in arrivals.get(slot, ()):
            pool[bid.phone_id] = bid
        for phone_id in [p for p, b in pool.items() if b.departure < slot]:
            del pool[phone_id]

        for task in schedule.tasks_in_slot(slot):
            candidates = [
                bid
                for bid in pool.values()
                if model.compatible(task, bid)
                and not (reserve_price and bid.cost > task.value)
            ]
            if not candidates:
                continue
            chosen = min(
                candidates, key=lambda b: (b.cost, b.arrival, b.phone_id)
            )
            del pool[chosen.phone_id]
            allocation[task.task_id] = chosen.phone_id
            win_slots[chosen.phone_id] = slot
    return allocation, win_slots


class TypedOnlineGreedyMechanism(Mechanism):
    """Capability-aware greedy allocation + exact critical payments."""

    name = "typed-online-greedy"
    is_truthful = True
    is_online = True

    def __init__(
        self, model: CapabilityModel, reserve_price: bool = True
    ) -> None:
        self._model = model
        self._reserve_price = bool(reserve_price)

    @property
    def model(self) -> CapabilityModel:
        """The (public) capability model in force."""
        return self._model

    @property
    def reserve_price(self) -> bool:
        """Whether bids above a task's value are refused (default on —
        required for the exact critical value to stay bounded for
        uncontested winners)."""
        return self._reserve_price

    def run(
        self,
        bids: Sequence[Bid],
        schedule: TaskSchedule,
        config: Optional[RoundConfig] = None,
    ) -> AuctionOutcome:
        self._resolve_config(bids, schedule, config)
        allocation, win_slots = _typed_greedy_allocation(
            bids, schedule, self._model, self._reserve_price
        )
        bid_by_phone = {bid.phone_id: bid for bid in bids}
        payments: Dict[int, float] = {}
        payment_slots: Dict[int, int] = {}
        for phone_id in win_slots:
            winner = bid_by_phone[phone_id]
            payments[phone_id] = self._critical_payment(
                bids, schedule, winner
            )
            payment_slots[phone_id] = winner.departure
        return AuctionOutcome(
            bids=bids,
            schedule=schedule,
            allocation=allocation,
            payments=payments,
            payment_slots=payment_slots,
        )

    # ------------------------------------------------------------------
    def _wins_with_cost(
        self,
        bids: Sequence[Bid],
        schedule: TaskSchedule,
        winner: Bid,
        candidate_cost: float,
    ) -> bool:
        replaced = [
            b.with_cost(candidate_cost) if b.phone_id == winner.phone_id else b
            for b in bids
        ]
        _, win_slots = _typed_greedy_allocation(
            replaced,
            schedule,
            self._model,
            self._reserve_price,
            stop_after_slot=winner.departure,
        )
        return winner.phone_id in win_slots

    def _critical_payment(
        self,
        bids: Sequence[Bid],
        schedule: TaskSchedule,
        winner: Bid,
    ) -> float:
        """The exact critical value by monotone binary search.

        Thresholds: every other bid's cost plus (with the reserve) every
        task value; winning is a step function of the claimed cost that
        can only change at those points.
        """
        thresholds = sorted(
            {
                b.cost
                for b in bids
                if b.phone_id != winner.phone_id and b.cost > 0.0
            }
            | (
                {task.value for task in schedule}
                if self._reserve_price
                else set()
            )
        )
        if not thresholds:
            return winner.cost

        if self._wins_with_cost(
            bids, schedule, winner, thresholds[-1] + 1.0
        ):
            if self._reserve_price:
                return max(thresholds[-1], winner.cost)
            # Unbounded critical value (documented Algorithm-2 gap in the
            # base mechanism); fall back to the winner's claimed cost.
            return winner.cost

        def representative(region: int) -> float:
            upper = thresholds[region]
            lower = 0.0 if region == 0 else thresholds[region - 1]
            return (lower + upper) / 2.0

        low, high = 0, len(thresholds) - 1
        best: Optional[int] = None
        while low <= high:
            mid = (low + high) // 2
            if self._wins_with_cost(
                bids, schedule, winner, representative(mid)
            ):
                best = mid
                low = mid + 1
            else:
                high = mid - 1
        if best is None:
            return winner.cost
        return max(thresholds[best], winner.cost)


def check_typed_outcome(
    outcome: AuctionOutcome, model: CapabilityModel
) -> None:
    """Assert every allocation respects the capability model.

    Raises :class:`~repro.errors.MechanismError` on a violation; used by
    tests as a one-line oracle.
    """
    for task_id, phone_id in outcome.allocation.items():
        task = outcome.schedule.task(task_id)
        bid = outcome.bid_of(phone_id)
        if not model.compatible(task, bid):
            raise MechanismError(
                f"task {task.label} (kind {model.kind_of(task)}) "
                f"allocated to phone {phone_id} with capabilities "
                f"{sorted(model.capabilities_of(phone_id))}"
            )
