"""Shared fixtures: the paper's worked example and small workloads."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.sanitizer import SanitizedMechanism
from repro.mechanisms import OfflineVCGMechanism, OnlineGreedyMechanism
from repro.mechanisms import registry as mechanism_registry
from repro.simulation import SimulationEngine, WorkloadConfig
from repro.simulation.paper_example import (
    paper_example_bids,
    paper_example_profiles,
    paper_example_schedule,
)


def pytest_addoption(parser):
    parser.addoption(
        "--chaos-seed",
        type=int,
        default=0,
        help=(
            "base seed of the fault-injection property suite "
            "(CI rotates it with the run number)"
        ),
    )
    parser.addoption(
        "--crash-seed",
        type=int,
        default=0,
        help=(
            "base seed of the crash-fault durability property suite "
            "(CI rotates it with the run number)"
        ),
    )
    parser.addoption(
        "--schedule-fuzz",
        action="store_true",
        default=False,
        help=(
            "run the full schedule-fuzzing determinism matrix "
            "(worker counts x chunk orders, campaign rounds, shard pools) "
            "before the suite; a nondeterministic sweep point fails "
            "the session at collection"
        ),
    )


@pytest.fixture(scope="session")
def chaos_seed(request):
    """Base seed for the seeded fault-scenario property tests."""
    return request.config.getoption("--chaos-seed")


@pytest.fixture(scope="session")
def crash_seed(request):
    """Base seed for the crash-fault durability property tests."""
    return request.config.getoption("--crash-seed")


@pytest.fixture(autouse=True, scope="session")
def _sanitize_all_mechanisms():
    """Run the whole suite with the outcome sanitizer switched on.

    Every mechanism served by the registry is wrapped in
    :class:`SanitizedMechanism`, so each ``run`` anywhere in the suite
    re-checks structural feasibility, individual rationality, and
    welfare accounting (see ``repro/analysis/sanitizer.py``).  A
    mechanism regression then fails loudly at its first bad outcome
    instead of skewing downstream metrics.
    """
    mechanism_registry.set_sanitize_outcomes(True)
    yield
    mechanism_registry.set_sanitize_outcomes(False)


@pytest.fixture(autouse=True, scope="session")
def _schedule_fuzz_determinism(request):
    """Optionally gate the whole suite on schedule-fuzzed determinism.

    With ``--schedule-fuzz``, the session first re-runs one sweep point
    under permuted worker counts and submission orders — plus a
    sharded campaign under permuted shard submission
    orders and shard-pool sizes (see
    :func:`repro.analysis.sanitizer.check_parallel_determinism`) — and
    fails immediately if any combination's outcome bytes differ from
    the serial reference — the runtime twin of the static REP010–REP015
    flow rules.  Off by default: the matrix spawns dozens of process
    pools, and ``tests/analysis/test_parallel_determinism.py`` keeps a
    reduced version always-on.
    """
    if request.config.getoption("--schedule-fuzz"):
        from repro.analysis.sanitizer import check_parallel_determinism

        check_parallel_determinism(
            worker_counts=(1, 2, 3, 4),
            shard_worker_counts=(1, 2, 4),
        )
    yield


@pytest.fixture
def paper_profiles():
    """The 7 private profiles of the Fig. 4 worked example."""
    return paper_example_profiles()


@pytest.fixture
def paper_bids():
    """The truthful bids of the Fig. 4 worked example."""
    return paper_example_bids()


@pytest.fixture
def paper_schedule():
    """One task per slot over 5 slots (Figs. 4/5)."""
    return paper_example_schedule()


@pytest.fixture
def engine():
    return SimulationEngine()


@pytest.fixture
def offline_mechanism():
    return SanitizedMechanism(OfflineVCGMechanism())


@pytest.fixture
def online_mechanism():
    return SanitizedMechanism(OnlineGreedyMechanism())


@pytest.fixture
def small_workload():
    """A small, dense workload that keeps full VCG runs fast."""
    return WorkloadConfig(
        num_slots=10,
        phone_rate=4.0,
        task_rate=2.0,
        mean_cost=10.0,
        mean_active_length=3,
        task_value=15.0,
    )


@pytest.fixture
def small_scenario(small_workload):
    return small_workload.generate(seed=42)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
