"""Social welfare (Definitions 2 and 3) evaluated on *real* costs.

An outcome knows the claimed costs it allocated against
(:attr:`~repro.model.AuctionOutcome.claimed_welfare`); the true welfare
needs the private costs, which live with the round.  Under a truthful
mechanism with truthful agents the two coincide — a fact the integration
tests assert.

The round metrics here and in :mod:`repro.metrics.overpayment` read a
round through :class:`RoundCosts`: its task schedule and its real cost
per phone.  A :class:`~repro.simulation.scenario.Scenario` provides it
from its profiles, a :class:`~repro.model.columnar.RoundColumns` straight
from its columns.
"""

from __future__ import annotations

from typing import Dict, Mapping, Protocol

from repro.errors import SimulationError
from repro.model.outcome import AuctionOutcome
from repro.model.task import TaskSchedule


class RoundCosts(Protocol):
    """What the round metrics read about a round."""

    @property
    def schedule(self) -> TaskSchedule:
        """The round's task schedule."""

    @property
    def real_costs(self) -> Mapping[int, float]:
        """``phone_id -> real cost``, iterating in ascending phone id."""


def real_cost(round_costs: RoundCosts, phone_id: int) -> float:
    """One phone's real cost; :class:`SimulationError` if it is unknown."""
    try:
        return round_costs.real_costs[phone_id]
    except KeyError as exc:
        raise SimulationError(f"unknown phone_id {phone_id}") from exc


def true_social_welfare(
    outcome: AuctionOutcome, round_costs: RoundCosts
) -> float:
    """Definition 3: ``ω = Σ_{allocated τ} (ν − c_i)`` with real costs."""
    schedule = round_costs.schedule
    total = 0.0
    for task_id, phone_id in outcome.allocation.items():
        task = schedule.task(task_id)
        total += task.value - real_cost(round_costs, phone_id)
    return total


def welfare_per_task(
    outcome: AuctionOutcome, round_costs: RoundCosts
) -> Dict[int, float]:
    """Definition 2 per task: ``u(τ) = ν − c_i`` for each allocated task."""
    schedule = round_costs.schedule
    utilities: Dict[int, float] = {}
    for task_id, phone_id in outcome.allocation.items():
        task = schedule.task(task_id)
        utilities[task_id] = task.value - real_cost(round_costs, phone_id)
    return utilities


def phone_utilities(
    outcome: AuctionOutcome, round_costs: RoundCosts
) -> Dict[int, float]:
    """Definition 1 per phone: ``u_i = p_i − c_i·I(allocated)``.

    Covers every phone of the round; phones that submitted no bid (or
    lost) have utility equal to their payment, which is zero under all
    sane mechanisms.
    """
    costs = round_costs.real_costs
    unknown = outcome.bid_phone_ids - costs.keys()
    if unknown:
        raise SimulationError(
            f"outcome contains a bid from phone {min(unknown)} that is "
            f"not in the round"
        )
    # Every phone starts at the loser's ``0.0 - 0.0``; only paid phones
    # and winners differ.  Keys keep ascending phone-id order, and each
    # value is SmartphoneProfile.utility's expression, operation for
    # operation.
    utilities: Dict[int, float] = dict.fromkeys(costs, 0.0)
    winner_set = set(outcome.winners)
    for phone_id, payment in outcome.payments.items():
        utilities[phone_id] = payment - (
            costs[phone_id] if phone_id in winner_set else 0.0
        )
    for phone_id in sorted(winner_set.difference(outcome.payments)):
        utilities[phone_id] = 0.0 - costs[phone_id]
    return utilities
