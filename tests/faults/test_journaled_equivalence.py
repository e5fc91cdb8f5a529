"""A journaled drive feeds the platform exactly like an unjournaled one.

``run_with_faults(journal_dir=...)`` promises the outcome of the plain
run: the journal records the round, it does not steer it.  These tests
hold that promise byte for byte (pickled outcome, event log and fault
report) over many seeds, fault regimes and payment settings, and hold
:func:`~repro.auction.round_driver.replay_scenario` under a misreporting
strategy to a journaled drive of the same bids.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.agents import CostScalingStrategy
from repro.auction import replay_scenario
from repro.durability import (
    Journal,
    JournaledPlatform,
    execute_commands,
    round_commands,
)
from repro.faults import FaultConfig, run_with_faults
from repro.simulation import WorkloadConfig

NUM_SEEDS = 20

WORKLOAD = WorkloadConfig(
    num_slots=12,
    phone_rate=4.0,
    task_rate=2.0,
    mean_cost=10.0,
    mean_active_length=3,
    task_value=20.0,
)

HEAVY = dict(
    dropout_prob=0.3,
    task_failure_prob=0.2,
    bid_delay_prob=0.2,
    bid_loss_prob=0.1,
)

FAULT_REGIMES = {
    "no-faults": FaultConfig(),
    "heavy": FaultConfig(**HEAVY),
    "no-reassignment": FaultConfig(**HEAVY, max_reassignments=0),
}

SETTINGS = {
    "paper": dict(reserve_price=False, payment_rule="paper"),
    "reserve-exact": dict(reserve_price=True, payment_rule="exact"),
}


@pytest.mark.parametrize("setting", sorted(SETTINGS))
@pytest.mark.parametrize("regime", sorted(FAULT_REGIMES))
def test_journaled_run_pickles_like_plain_run(tmp_path, regime, setting):
    faults = FAULT_REGIMES[regime]
    options = SETTINGS[setting]
    for seed in range(NUM_SEEDS):
        scenario = WORKLOAD.generate(seed=seed)
        plain = run_with_faults(
            scenario, faults, seed=seed, paired=True, **options
        )
        journaled = run_with_faults(
            scenario,
            faults,
            seed=seed,
            paired=True,
            journal_dir=tmp_path / f"seed-{seed}",
            **options,
        )
        for field in ("outcome", "events", "report", "fault_free"):
            assert pickle.dumps(getattr(journaled, field)) == pickle.dumps(
                getattr(plain, field)
            ), f"seed {seed}: journaled {field} differs from the plain run"
        # The paired fault-free run is the plain platform drive.
        clean, _ = replay_scenario(scenario, **options)
        assert pickle.dumps(plain.fault_free.outcome) == pickle.dumps(
            clean
        ), f"seed {seed}: paired fault-free run differs from replay"


@pytest.mark.parametrize("seed", range(5))
def test_strategic_replay_matches_journaled_drive(tmp_path, seed):
    scenario = WORKLOAD.generate(seed=seed)
    strategies = {
        profile.phone_id: CostScalingStrategy(1.5)
        for profile in scenario.profiles[::2]
    }
    outcome, events = replay_scenario(
        scenario, strategies=strategies, rng=np.random.default_rng(seed)
    )
    bids = scenario.bids_from_strategies(
        strategies, np.random.default_rng(seed)
    )
    with Journal(tmp_path / "journal") as journal:
        platform = JournaledPlatform(journal, num_slots=scenario.num_slots)
        journaled = execute_commands(
            platform, round_commands(bids, scenario)
        )
    assert pickle.dumps(journaled) == pickle.dumps(outcome)
    assert pickle.dumps(platform.events) == pickle.dumps(events)
