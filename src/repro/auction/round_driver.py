"""The platform's feeding order: one round, slot by slot.

:func:`round_commands` is *the* feeding order of a round (Section V):
each phone bids in its arrival slot, each slot's tasks are announced in
that slot, every slot is closed in turn.  :func:`execute_commands`
feeds that command stream, one ``apply`` per command, to a
:class:`~repro.auction.CrowdsourcingPlatform` or a journaling
:class:`~repro.durability.JournaledPlatform`; every round driver in the
package (:func:`replay_scenario`, fault runs, journaled campaign
rounds, replay checks, resume) feeds its platform this way.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.agents.base import BiddingStrategy
from repro.auction.events import (
    AuctionEvent,
    BidSubmitted,
    FailureReported,
    PhoneDropped,
    RoundFinalized,
    SlotAdvanced,
    TasksAnnounced,
)
from repro.auction.platform import CrowdsourcingPlatform
from repro.errors import SimulationError
from repro.model.bid import Bid
from repro.model.outcome import AuctionOutcome
from repro.simulation.scenario import Scenario

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from repro.durability.journaled import JournaledPlatform
    from repro.faults.plan import FaultPlan


def round_commands(
    bids: Sequence[Bid],
    scenario: Scenario,
    plan: Optional[FaultPlan] = None,
    include_finalize: bool = True,
) -> List[AuctionEvent]:
    """The deterministic command stream of one round.

    Per slot: bids in arrival order, each immediately followed by a
    failure report when ``plan`` marks the phone as a non-deliverer;
    then the slot's dropouts; then the slot's tasks, announced one by
    one; then the slot close.  With a ``plan``, ``bids`` must already
    have submission faults applied
    (:func:`repro.faults.recovery.apply_bid_faults`).

    Because the stream is a pure function of ``(bids, scenario,
    plan)``, a crashed round can be resumed by regenerating it and
    continuing from the journal's high-water mark
    (:func:`repro.durability.resume_round`).
    """
    by_arrival: Dict[int, List[Bid]] = {}
    for bid in bids:
        by_arrival.setdefault(bid.arrival, []).append(bid)
    dropouts_at: Dict[int, List[int]] = {}
    if plan is not None:
        departures = {bid.phone_id: bid.departure for bid in bids}
        for record in plan:
            if record.phone_id not in departures:
                continue  # bid lost: the phone never joined
            if record.dropout_slot is None:
                continue
            if record.dropout_slot > departures[record.phone_id]:
                continue  # "drops" after its claimed departure: a no-op
            dropouts_at.setdefault(record.dropout_slot, []).append(
                record.phone_id
            )

    commands: List[AuctionEvent] = []
    for slot in range(1, scenario.num_slots + 1):
        for bid in by_arrival.get(slot, ()):
            commands.append(
                BidSubmitted(
                    slot=slot,
                    phone_id=bid.phone_id,
                    arrival=bid.arrival,
                    departure=bid.departure,
                    cost=bid.cost,
                )
            )
            if plan is not None:
                record = plan.for_phone(bid.phone_id)
                if record is not None and record.fails_task:
                    commands.append(
                        FailureReported(slot=slot, phone_id=bid.phone_id)
                    )
        for phone_id in dropouts_at.get(slot, ()):
            commands.append(PhoneDropped(slot=slot, phone_id=phone_id))
        for task in scenario.schedule.tasks_in_slot(slot):
            commands.append(
                TasksAnnounced(slot=slot, count=1, value=task.value)
            )
        commands.append(SlotAdvanced(slot=slot))
    if include_finalize:
        commands.append(RoundFinalized(slot=scenario.num_slots))
    return commands


def execute_commands(
    platform: Union[CrowdsourcingPlatform, JournaledPlatform],
    commands: Sequence[AuctionEvent],
) -> Optional[AuctionOutcome]:
    """Apply a command stream to ``platform``, in order.

    Returns the outcome when the stream ends the round, else ``None``.
    """
    outcome: Optional[AuctionOutcome] = None
    for command in commands:
        result = platform.apply(command)
        if isinstance(command, RoundFinalized):
            outcome = result
    return outcome


def replay_scenario(
    scenario: Scenario,
    reserve_price: bool = False,
    payment_rule: str = "paper",
    strategies: Optional[Mapping[int, BiddingStrategy]] = None,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[AuctionOutcome, Tuple[AuctionEvent, ...]]:
    """Run ``scenario`` through the incremental platform.

    Each phone submits (truthfully, or via its strategy) in its claimed
    arrival slot.  Returns the finalized
    :class:`~repro.model.AuctionOutcome` and the full ordered event log.
    With default arguments the outcome is identical to
    ``OnlineGreedyMechanism().run(...)`` on the truthful bids (asserted
    by the integration tests).

    Raises
    ------
    SimulationError
        If ``strategies`` assigns a strategy to a phone id that does not
        exist in the scenario (a silent skip would make a typo in an
        experiment config unfalsifiable).
    """
    if strategies is not None:
        known = {profile.phone_id for profile in scenario.profiles}
        unknown = sorted(set(strategies) - known)
        if unknown:
            raise SimulationError(
                f"strategies assigned to phone ids {unknown} that do not "
                f"exist in the scenario (known ids: {sorted(known)})"
            )
    if strategies:
        bids = scenario.bids_from_strategies(strategies, rng)
    else:
        bids = scenario.truthful_bids()

    platform = CrowdsourcingPlatform(
        num_slots=scenario.num_slots,
        reserve_price=reserve_price,
        payment_rule=payment_rule,
    )
    outcome = execute_commands(platform, round_commands(bids, scenario))
    assert outcome is not None
    return outcome, platform.events
