"""Drive a scenario through the platform with faults injected.

:func:`run_with_faults` applies a :class:`~repro.faults.plan.FaultPlan`
(or draws one from a :class:`~repro.faults.plan.FaultConfig` and a
seed) while feeding the scenario through
:class:`~repro.auction.CrowdsourcingPlatform`, lets the platform's
recovery machinery reallocate failed tasks, and returns the finalized
outcome together with complete fault bookkeeping.  The feeding order is
:func:`~repro.auction.round_driver.round_commands`, the platform's one
slot-by-slot order, with the plan's failure reports and dropouts in
their slots; the same command stream drives the plain platform, the
journaled one and the ``paired=True`` fault-free run of the *same* bids
(which enables welfare-degradation metrics).

Every recovered outcome is sanitized by default: structural feasibility
(constraints (4)-(6)), individual rationality for paying winners, and
zero payments to non-deliverers are enforced via
:func:`repro.analysis.sanitizer.sanitize_outcome`.
"""

from __future__ import annotations

import dataclasses
import os
from typing import List, Mapping, Optional, Set, Tuple, Union

import numpy as np

from repro.agents.base import BiddingStrategy
from repro.analysis.sanitizer import sanitize_outcome
from repro.auction.events import AuctionEvent, TaskFailed
from repro.auction.platform import CrowdsourcingPlatform
from repro.auction.round_driver import execute_commands, round_commands
from repro.durability.journal import Journal
from repro.durability.journaled import JournaledPlatform
from repro.durability.replay import start_round
from repro.errors import FaultError, SanitizationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultConfig, FaultPlan
from repro.metrics.reliability import ReliabilityReport, reliability_report
from repro.model.bid import Bid
from repro.model.outcome import AuctionOutcome
from repro.simulation.engine import SimulationEngine, SimulationResult
from repro.simulation.scenario import Scenario


@dataclasses.dataclass(frozen=True)
class FaultReport:
    """Complete bookkeeping of one fault-injected run.

    Attributes
    ----------
    plan:
        The fault schedule that was applied.
    submitted / lost_bids / delayed_bids:
        Phones whose bid reached the platform, never reached it, and
        reached it late (delayed bids also appear in ``submitted``).
    dropped:
        Phones that departed early (the reported dropouts).
    failed_deliverers / withheld:
        Winners whose delivery failed, and phones whose payment was
        withheld (identical sets by construction).
    delivered:
        Winners whose delivery was confirmed and paid.
    reassignments:
        Per-task recovery chain lengths (``task_id -> count``).
    failure_events:
        Every ``TaskFailed`` incident, in platform order.
    failed_tasks / recovered_tasks / abandoned_tasks:
        Tasks that failed at least once; the subset ultimately delivered
        by a replacement winner; the subset that ended unserved.
    """

    plan: FaultPlan
    submitted: Tuple[int, ...]
    lost_bids: Tuple[int, ...]
    delayed_bids: Tuple[int, ...]
    dropped: Tuple[int, ...]
    failed_deliverers: Tuple[int, ...]
    withheld: Tuple[int, ...]
    delivered: Tuple[int, ...]
    reassignments: Mapping[int, int]
    failure_events: Tuple[TaskFailed, ...]
    failed_tasks: Tuple[int, ...]
    recovered_tasks: Tuple[int, ...]
    abandoned_tasks: Tuple[int, ...]


@dataclasses.dataclass(frozen=True)
class FaultyRunResult:
    """Everything produced by one fault-injected platform run.

    Attributes
    ----------
    outcome / events:
        The recovered :class:`~repro.model.AuctionOutcome` and the full
        platform event log (including the fault events).
    report:
        The :class:`FaultReport` bookkeeping.
    result:
        The metric bundle of the faulty run.
    fault_free:
        The paired fault-free run of the same bids (``paired=True``
        only).
    reliability:
        Completion/recovery/degradation metrics (``paired=True`` only).
    """

    outcome: AuctionOutcome
    events: Tuple[AuctionEvent, ...]
    report: FaultReport
    result: SimulationResult
    fault_free: Optional[SimulationResult] = None
    reliability: Optional[ReliabilityReport] = None


def apply_bid_faults(
    bids: List[Bid], plan: FaultPlan
) -> Tuple[List[Bid], Tuple[int, ...], Tuple[int, ...]]:
    """Apply submission faults: lost and delayed bids.

    Returns the effective bid list plus the phone ids whose bids were
    lost and delayed.  A delayed bid claims its (later) submission slot
    as arrival; a bid delayed past its departure — or past the phone's
    scheduled dropout — is lost.
    """
    effective: List[Bid] = []
    lost: List[int] = []
    delayed: List[int] = []
    for bid in bids:
        record = plan.for_phone(bid.phone_id)
        if record is None:
            effective.append(bid)
            continue
        if record.bid_lost:
            lost.append(bid.phone_id)
            continue
        arrival = bid.arrival + record.bid_delay
        if arrival > bid.departure:
            lost.append(bid.phone_id)
            continue
        if record.dropout_slot is not None and arrival > record.dropout_slot:
            lost.append(bid.phone_id)
            continue
        if record.bid_delay:
            delayed.append(bid.phone_id)
            bid = bid.with_window(arrival, bid.departure)
        effective.append(bid)
    return effective, tuple(lost), tuple(delayed)


def _play(
    bids: List[Bid],
    scenario: Scenario,
    plan: Optional[FaultPlan],
    journal_dir: Optional[os.PathLike],
    reserve_price: bool,
    payment_rule: str,
    max_reassignments: int,
) -> Tuple[AuctionOutcome, Union[CrowdsourcingPlatform, JournaledPlatform]]:
    """Feed ``bids`` to a platform in the round's command order.

    The faults of ``plan`` are reported when given; with ``journal_dir``
    the platform journals every command there first.
    """
    commands = round_commands(bids, scenario, plan)
    if journal_dir is None:
        platform = CrowdsourcingPlatform(
            num_slots=scenario.num_slots,
            reserve_price=reserve_price,
            payment_rule=payment_rule,
            max_reassignments=max_reassignments,
        )
        outcome = execute_commands(platform, commands)
        assert outcome is not None
        return outcome, platform
    with Journal(journal_dir) as journal:
        run = start_round(
            journal,
            commands,
            scenario.num_slots,
            reserve_price=reserve_price,
            payment_rule=payment_rule,
            max_reassignments=max_reassignments,
        )
    return run.outcome, run.platform


def run_with_faults(
    scenario: Scenario,
    faults: Union[FaultConfig, FaultPlan],
    seed: int = 0,
    reserve_price: bool = False,
    payment_rule: str = "paper",
    strategies: Optional[Mapping[int, BiddingStrategy]] = None,
    rng: Optional[np.random.Generator] = None,
    sanitize: bool = True,
    paired: bool = False,
    journal_dir: Optional[os.PathLike] = None,
) -> FaultyRunResult:
    """Run ``scenario`` through the platform with faults injected.

    Parameters
    ----------
    scenario:
        The round to execute.
    faults:
        Either a materialised :class:`FaultPlan`, or a
        :class:`FaultConfig` from which a plan is drawn using ``seed``.
    seed:
        Master seed of the fault draw (ignored when a plan is given).
    reserve_price / payment_rule:
        Forwarded to the platform.
    strategies / rng:
        Optional per-phone bidding strategies (default: truthful); bids
        are generated once and shared with the paired run.
    sanitize:
        Check the recovered outcome (feasibility, IR for paying winners,
        zero payments to non-deliverers) and raise
        :class:`~repro.errors.SanitizationError` on any violation.
    paired:
        Also run the same bids fault-free and attach the comparison
        (:class:`~repro.metrics.reliability.ReliabilityReport`).
    journal_dir:
        When given, the faulty run is driven through a
        :class:`~repro.durability.JournaledPlatform` writing a
        write-ahead journal into this directory — the outcome is
        identical to the unjournaled drive (same feeding order), and a
        crashed round can be resumed from the journal via
        :func:`repro.durability.resume_round`.
    """
    if isinstance(faults, FaultPlan):
        plan = faults
    elif isinstance(faults, FaultConfig):
        plan = FaultInjector(faults).plan(scenario, seed=seed)
    else:
        raise FaultError(
            f"faults must be a FaultConfig or FaultPlan, got "
            f"{type(faults).__name__}"
        )

    if strategies:
        bids = scenario.bids_from_strategies(strategies, rng)
    else:
        bids = scenario.truthful_bids()

    effective, lost, delayed = apply_bid_faults(bids, plan)
    outcome, platform = _play(
        effective,
        scenario,
        plan,
        journal_dir,
        reserve_price=reserve_price,
        payment_rule=payment_rule,
        max_reassignments=plan.config.max_reassignments,
    )
    events = platform.events

    failure_events = tuple(
        event for event in events if isinstance(event, TaskFailed)
    )
    failed_tasks: Set[int] = {event.task_id for event in failure_events}
    allocated = set(outcome.allocation)
    report = FaultReport(
        plan=plan,
        submitted=tuple(bid.phone_id for bid in effective),
        lost_bids=lost,
        delayed_bids=delayed,
        dropped=tuple(sorted(platform.dropped_phones)),
        failed_deliverers=tuple(sorted(platform.failed_deliverers)),
        withheld=tuple(sorted(platform.withheld_payments)),
        delivered=platform.delivered_phones,
        reassignments=platform.reassignment_counts,
        failure_events=failure_events,
        failed_tasks=tuple(sorted(failed_tasks)),
        recovered_tasks=tuple(sorted(failed_tasks & allocated)),
        abandoned_tasks=tuple(sorted(failed_tasks - allocated)),
    )

    if sanitize:
        violations = sanitize_outcome(
            outcome,
            non_deliverers=report.failed_deliverers,
            require_ir=True,
        )
        if violations:
            details = "; ".join(str(v) for v in violations)
            raise SanitizationError(
                f"fault recovery produced an outcome violating "
                f"{len(violations)} invariant"
                f"{'s' if len(violations) != 1 else ''}: {details}",
                violations=violations,
            )

    result = SimulationEngine.package("online-greedy+faults", outcome, scenario)

    fault_free: Optional[SimulationResult] = None
    reliability: Optional[ReliabilityReport] = None
    if paired:
        clean, _ = _play(
            bids,
            scenario,
            plan=None,
            journal_dir=None,
            reserve_price=reserve_price,
            payment_rule=payment_rule,
            max_reassignments=plan.config.max_reassignments,
        )
        fault_free = SimulationEngine.package("online-greedy", clean, scenario)
        reliability = reliability_report(result, report, fault_free)

    return FaultyRunResult(
        outcome=outcome,
        events=events,
        report=report,
        result=result,
        fault_free=fault_free,
        reliability=reliability,
    )
