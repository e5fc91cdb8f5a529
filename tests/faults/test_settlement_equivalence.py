"""The platform's slot-fed settlement engine prices like a fresh engine.

:class:`~repro.auction.CrowdsourcingPlatform` feeds one engine per round
slot by slot and prices departing winners from its records.  The oracle
here is the rule it replaced: every payment priced on a fresh engine
built over the bids that arrived by the settlement slot and the tasks
announced by then.  Both platforms run the same command stream, with
and without faults, under both payment rules, with and without a
reserve price, and over task values that are uniform or change
mid-round (which switches a reserve-price round onto re-runs for good).
CI rotates the base seed with ``--chaos-seed``.
"""

from __future__ import annotations

import itertools

import pytest

from repro.auction import CrowdsourcingPlatform
from repro.auction.events import PaymentSettled
from repro.durability import execute_commands, round_commands
from repro.faults import FaultConfig
from repro.faults.injector import FaultInjector
from repro.faults.recovery import apply_bid_faults
from repro.mechanisms import StreamingGreedyEngine
from repro.mechanisms.critical_payment import (
    algorithm2_payment,
    exact_critical_payment,
)
from repro.model.task import SensingTask, TaskSchedule
from repro.simulation import WorkloadConfig
from repro.simulation.scenario import Scenario

NUM_SEEDS = 25

WORKLOAD = WorkloadConfig(
    num_slots=12,
    phone_rate=4.0,
    task_rate=2.0,
    mean_cost=10.0,
    mean_active_length=3,
    task_value=20.0,
)

FAULTS = {
    "no-faults": None,
    "heavy": FaultConfig(
        dropout_prob=0.3,
        task_failure_prob=0.2,
        bid_delay_prob=0.2,
        bid_loss_prob=0.1,
    ),
}


class RebuildingPlatform(CrowdsourcingPlatform):
    """Prices each payment on a fresh engine over what is known now."""

    def _price(self, winner, win_slot):
        bids = list(self._all_bids.values())
        schedule = TaskSchedule(
            num_slots=self.num_slots,
            tasks=[
                task
                for task in self._tasks_by_id.values()
                if task.slot <= self.current_slot
            ],
        )
        engine = StreamingGreedyEngine(
            bids, schedule, reserve_price=self._reserve_price
        )
        if self._payment_rule == "paper":
            return algorithm2_payment(
                bids,
                schedule,
                winner,
                win_slot,
                reserve_price=self._reserve_price,
                engine=engine,
            )
        return exact_critical_payment(
            bids,
            schedule,
            winner,
            reserve_price=self._reserve_price,
            engine=engine,
        )


def _values_change_mid_round(scenario):
    """The scenario with every task after the middle slot worth 1.5×."""
    middle = scenario.num_slots // 2
    tasks = [
        SensingTask(
            task_id=task.task_id,
            slot=task.slot,
            index=task.index,
            value=task.value * 1.5 if task.slot > middle else task.value,
        )
        for task in scenario.schedule
    ]
    return Scenario(
        scenario.profiles, TaskSchedule(scenario.num_slots, tasks)
    )


def _commands(scenario, faults, seed):
    bids = scenario.truthful_bids()
    if faults is None:
        return round_commands(bids, scenario)
    plan = FaultInjector(faults).plan(scenario, seed=seed)
    effective, _, _ = apply_bid_faults(bids, plan)
    return round_commands(effective, scenario, plan)


def _drive(platform_cls, commands, num_slots, options):
    platform = platform_cls(num_slots=num_slots, **options)
    outcome = execute_commands(platform, commands)
    return outcome, platform.events


@pytest.mark.parametrize("faults", sorted(FAULTS))
@pytest.mark.parametrize("values", ["uniform", "change-mid-round"])
@pytest.mark.parametrize("reserve_price", [False, True])
@pytest.mark.parametrize("payment_rule", ["paper", "exact"])
def test_settlement_matches_a_fresh_engine_per_settle(
    chaos_seed, faults, values, reserve_price, payment_rule
):
    options = dict(reserve_price=reserve_price, payment_rule=payment_rule)
    settled = 0
    for seed in range(chaos_seed, chaos_seed + NUM_SEEDS):
        scenario = WORKLOAD.generate(seed=seed)
        if values == "change-mid-round":
            scenario = _values_change_mid_round(scenario)
        commands = _commands(scenario, FAULTS[faults], seed)
        outcome, events = _drive(
            CrowdsourcingPlatform, commands, scenario.num_slots, options
        )
        expected_outcome, expected_events = _drive(
            RebuildingPlatform, commands, scenario.num_slots, options
        )
        amounts = [
            (event.phone_id, event.amount.hex())
            for event in events
            if isinstance(event, PaymentSettled)
        ]
        expected_amounts = [
            (event.phone_id, event.amount.hex())
            for event in expected_events
            if isinstance(event, PaymentSettled)
        ]
        assert amounts == expected_amounts, f"seed {seed}"
        assert events == expected_events, f"seed {seed}"
        assert outcome == expected_outcome, f"seed {seed}"
        settled += len(amounts)
    assert settled, "no payment was settled"


def test_values_change_mid_round_switches_reserve_rounds_to_reruns():
    """The heterogeneous case really leaves the records path."""
    scenario = _values_change_mid_round(WORKLOAD.generate(seed=0))
    platform = CrowdsourcingPlatform(
        num_slots=scenario.num_slots, reserve_price=True
    )
    commands = _commands(scenario, None, seed=0)
    regimes = []
    for command in commands:
        execute_commands(platform, [command])
        regimes.append(platform._engine.supports_incremental_payments)
    assert regimes[0] is False  # no task announced yet
    flips = [key for key, _ in itertools.groupby(regimes)]
    assert flips == [False, True, False]
