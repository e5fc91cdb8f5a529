"""Overpayment ratio (Definition 11).

The overpayment is the excess of total payments over the total *real*
costs of contributing (allocated) smartphones; the ratio normalises by
those real costs:

.. math::

    σ = \\frac{Σ_{i \\in winners} (p_i − c_i)}{Σ_{i \\in winners} c_i}

A ratio of zero means the platform pays exactly cost (no incentive
margin); the paper reports values around 0.7–1.0 for its workloads.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.metrics.welfare import RoundCosts, real_cost
from repro.model.outcome import AuctionOutcome


def total_real_cost(
    outcome: AuctionOutcome, round_costs: RoundCosts
) -> float:
    """Sum of real costs over allocated smartphones."""
    return sum(
        real_cost(round_costs, phone_id) for phone_id in outcome.winners
    )


def total_overpayment(
    outcome: AuctionOutcome, round_costs: RoundCosts
) -> float:
    """Total payments minus total real costs, over allocated phones.

    Payments to non-winners (possible only under pathological payment
    rules) are counted in full — they are pure overpayment.
    """
    winner_ids = set(outcome.winners)
    overpayment = 0.0
    for phone_id, payment in outcome.payments.items():
        cost = (
            real_cost(round_costs, phone_id)
            if phone_id in winner_ids
            else 0.0
        )
        overpayment += payment - cost
    # Winners that somehow received no payment entry still incur cost.
    # Sorted: float addition is order-sensitive, and set hash order
    # would make the total differ in the last bit across processes.
    for phone_id in sorted(winner_ids):
        if phone_id not in outcome.payments:
            overpayment -= real_cost(round_costs, phone_id)
    return overpayment


def overpayment_and_ratio(
    outcome: AuctionOutcome, round_costs: RoundCosts
) -> Tuple[float, Optional[float]]:
    """``(total_overpayment, overpayment_ratio)``, summing payments once."""
    overpayment = total_overpayment(outcome, round_costs)
    denominator = total_real_cost(outcome, round_costs)
    if denominator <= 0.0:
        return overpayment, None
    return overpayment, overpayment / denominator


def overpayment_ratio(
    outcome: AuctionOutcome, round_costs: RoundCosts
) -> Optional[float]:
    """Definition 11's ratio ``σ``; ``None`` when nothing was allocated.

    Returning ``None`` (rather than 0 or NaN) for an empty allocation
    forces callers to handle the degenerate case explicitly; the sweep
    aggregator skips such rounds.
    """
    return overpayment_and_ratio(outcome, round_costs)[1]
