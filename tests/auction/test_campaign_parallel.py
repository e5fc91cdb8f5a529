"""Parallel campaign rounds — byte-identical results, guarded policies."""

from __future__ import annotations

import pickle

import pytest

from repro.auction.multi_round import run_campaign
from repro.errors import SimulationError
from repro.faults.plan import FaultConfig
from repro.mechanisms import create_mechanism
from repro.simulation import WorkloadConfig


@pytest.fixture(scope="module")
def workload():
    return WorkloadConfig.paper_default().replace(num_slots=12)


@pytest.fixture(scope="module")
def mechanism():
    return create_mechanism("online-greedy")


class TestParallelCampaign:
    def test_equal_to_serial(self, mechanism, workload):
        serial = run_campaign(mechanism, workload, 4, seed=3)
        parallel = run_campaign(mechanism, workload, 4, seed=3, workers=3)
        assert pickle.dumps(serial) == pickle.dumps(parallel)

    def test_equal_to_serial_with_faults(self, mechanism, workload):
        faults = FaultConfig(dropout_prob=0.2, task_failure_prob=0.1)
        serial = run_campaign(
            mechanism, workload, 3, seed=5, fault_config=faults
        )
        parallel = run_campaign(
            mechanism, workload, 3, seed=5, fault_config=faults, workers=2
        )
        assert pickle.dumps(serial) == pickle.dumps(parallel)

    def test_workers_must_be_positive(self, mechanism, workload):
        with pytest.raises(SimulationError, match="workers"):
            run_campaign(mechanism, workload, 2, workers=0)

    def test_losers_policy_rejects_workers(self, mechanism, workload):
        with pytest.raises(SimulationError, match="retry_policy"):
            run_campaign(
                mechanism,
                workload,
                2,
                retry_policy="losers",
                workers=2,
            )
