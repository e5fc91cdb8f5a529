"""The crash-recovery property: kill anywhere, recover byte-identically.

For each seeded faulty round this suite re-runs the journaled round
once per journal-write index, simulating a process death *after every
single write* (cycling through all four corruption modes: clean kill,
torn final record, duplicated final record, flipped checksum byte),
then recovers from the journal on disk and resumes.  The resumed
:class:`~repro.model.AuctionOutcome` must be byte-identical (pickled
bytes) to the uncrashed run's — the durability layer's core guarantee.

CI rotates ``--crash-seed`` with the run number so every run explores a
fresh region of crash-schedule space.
"""

from __future__ import annotations

import pickle

import pytest

from repro.durability import (
    Journal,
    JournaledPlatform,
    execute_commands,
    resume_round,
    round_commands,
)
from repro.faults import (
    CRASH_MODES,
    CrashController,
    CrashPlan,
    FaultConfig,
    FaultInjector,
    SimulatedCrash,
    draw_crash_plan,
)
from repro.faults.recovery import apply_bid_faults
from repro.simulation import WorkloadConfig
from repro.utils.rng import RngStreams

#: Seeds per session; each seed exercises EVERY write index of its round.
NUM_SEEDS = 50

WORKLOAD = WorkloadConfig(
    num_slots=4,
    phone_rate=1.5,
    task_rate=1.0,
    mean_cost=10.0,
    mean_active_length=2,
    task_value=20.0,
)

FAULTS = FaultConfig(
    dropout_prob=0.3,
    task_failure_prob=0.25,
    bid_delay_prob=0.15,
    bid_loss_prob=0.1,
)


def _round_under_test(seed):
    """The faulty round's command stream and platform configuration."""
    scenario = WORKLOAD.generate(seed=seed)
    plan = FaultInjector(FAULTS).plan(scenario, seed=seed)
    bids, _, _ = apply_bid_faults(list(scenario.truthful_bids()), plan)
    commands = round_commands(bids, scenario, plan)
    return scenario, plan, commands


def _run_journaled(directory, scenario, plan, commands, crash_hook=None):
    journal = Journal(directory, crash_hook=crash_hook)
    try:
        platform = JournaledPlatform(
            journal,
            num_slots=scenario.num_slots,
            max_reassignments=plan.config.max_reassignments,
        )
        outcome = execute_commands(platform, commands)
    finally:
        journal.close()
    return outcome, journal


def _recover_and_resume(directory, scenario, plan, commands):
    with Journal(directory) as journal:  # open repairs any torn tail
        result = resume_round(
            journal,
            commands,
            num_slots=scenario.num_slots,
            max_reassignments=plan.config.max_reassignments,
        )
    return result.outcome


@pytest.fixture(scope="module", params=range(NUM_SEEDS))
def crash_round(request, crash_seed, tmp_path_factory):
    seed = crash_seed + request.param
    scenario, plan, commands = _round_under_test(seed)
    base_dir = tmp_path_factory.mktemp(f"crash-{seed}")
    baseline, journal = _run_journaled(
        base_dir / "baseline", scenario, plan, commands
    )
    assert baseline is not None
    return seed, scenario, plan, commands, journal.last_seq, baseline


class TestCrashAfterEveryWrite:
    def test_recovery_is_byte_identical_at_every_write_index(
        self, crash_round, tmp_path
    ):
        seed, scenario, plan, commands, total_writes, baseline = crash_round
        expected = pickle.dumps(baseline)
        assert total_writes > len(commands)  # commands + derived events
        for index in range(1, total_writes + 1):
            mode = CRASH_MODES[index % len(CRASH_MODES)]
            directory = tmp_path / f"write-{index}"
            controller = CrashController(
                CrashPlan(
                    after_writes=index,
                    mode=mode,
                    torn_fraction=0.3 + 0.4 * (index % 2),
                    flip_offset=index % 64,
                )
            )
            with pytest.raises(SimulatedCrash):
                _run_journaled(
                    directory, scenario, plan, commands,
                    crash_hook=controller,
                )
            assert controller.fired, (
                f"seed {seed}: crash at write {index} never fired"
            )
            recovered = _recover_and_resume(
                directory, scenario, plan, commands
            )
            assert pickle.dumps(recovered) == expected, (
                f"seed {seed}: recovery after {mode} crash at write "
                f"{index}/{total_writes} diverged from the uncrashed run"
            )


class TestSeededCrashPlans:
    def test_drawn_plan_recovers_byte_identically(self, crash_round, tmp_path):
        seed, scenario, plan, commands, total_writes, baseline = crash_round
        crash_plan = draw_crash_plan(
            RngStreams(seed), total_writes=total_writes
        )
        directory = tmp_path / "drawn"
        with pytest.raises(SimulatedCrash):
            _run_journaled(
                directory,
                scenario,
                plan,
                commands,
                crash_hook=CrashController(crash_plan),
            )
        recovered = _recover_and_resume(directory, scenario, plan, commands)
        assert pickle.dumps(recovered) == pickle.dumps(baseline), (
            f"seed {seed}: drawn plan {crash_plan} diverged"
        )

    def test_draw_is_deterministic_per_seed(self, crash_seed):
        first = draw_crash_plan(RngStreams(crash_seed + 1), total_writes=40)
        second = draw_crash_plan(RngStreams(crash_seed + 1), total_writes=40)
        assert first == second
        assert 1 <= first.after_writes <= 40
        assert first.mode in CRASH_MODES

    def test_plan_round_trips_through_dict(self, crash_seed):
        plan = draw_crash_plan(RngStreams(crash_seed), total_writes=25)
        assert CrashPlan.from_dict(plan.to_dict()) == plan
