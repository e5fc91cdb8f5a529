"""Cross-engine equivalence properties of the matching engines.

The guarantee under test: on the same instance the CSR ``sparse`` engine
and the ``dense`` engine choose the same winner set, report bit-identical
claimed welfare and pay every winner bit-identically (the graph layer
re-prices repaired matchings from raw edge weights and canonicalises the
summation order, so the equality is exact, not approximate).  On tied
optima they may serve different tasks with those winners, so the
``task -> phone`` map is *not* part of the guarantee.  The pure-Python
reference Hungarian is held to the same bitwise bar on the payment path;
scipy (skipped when absent) is a welfare-level oracle (it breaks ties
differently by design).  ``tests/matching/engines.py`` builds each
engine directly.

Exact float equality on money-valued quantities is the entire point of
this suite, hence the REP002 suppressions.
"""

import pickle
from typing import List

import numpy as np
import pytest

from repro.matching.graph import TaskAssignmentGraph
from repro.model.bid import Bid
from repro.model.task import TaskSchedule
from repro.simulation.costs import CostDistribution
from repro.simulation.workload import WorkloadConfig
from tests.matching.engines import forced_engine, offline_vcg, solve

#: The headline property sweep: 50 independent Table-I style rounds.
SEEDS = range(50)


class TieHeavyCosts(CostDistribution):
    """Costs drawn from a handful of small integers.

    Small integers are exact in floating point and collide constantly,
    so every instance is saturated with tied optima — the regime where
    engines are most likely to disagree if their tie handling or
    summation order leaks into the observable outcome.
    """

    def sample(self, count: int, rng: np.random.Generator) -> List[float]:
        self._check_count(count)
        return [float(c) for c in rng.integers(20, 26, size=count)]

    @property
    def mean(self) -> float:
        return 22.5

    def __repr__(self) -> str:
        return "TieHeavyCosts()"


def _round(seed: int, cost_distribution=None, num_slots: int = 20):
    scenario = WorkloadConfig(num_slots=num_slots).generate(
        seed=seed, cost_distribution=cost_distribution
    )
    return scenario.truthful_bids(), scenario.schedule


def _run(engine: str, bids, schedule):
    return offline_vcg(bids, schedule, engine)


@pytest.mark.parametrize("seed", SEEDS)
def test_sparse_is_bitwise_identical_to_dense(seed):
    bids, schedule = _round(seed)
    dense = _run("dense", bids, schedule)
    sparse = _run("sparse", bids, schedule)
    assert sparse.payments == dense.payments  # repro: noqa-REP002 -- bitwise engine equivalence is the property under test
    assert set(sparse.allocation.values()) == set(dense.allocation.values())
    assert len(sparse.allocation) == len(dense.allocation)
    for phone_id in dense.payments:
        assert sparse.payment_slot(phone_id) == dense.payment_slot(phone_id)
    welfare_dense = solve(schedule, bids, "dense")[1]
    welfare_sparse = solve(schedule, bids, "sparse")[1]
    assert welfare_sparse == welfare_dense  # repro: noqa-REP002 -- bitwise engine equivalence is the property under test


@pytest.mark.parametrize("seed", range(0, 50, 5))
def test_python_reference_payments_are_bitwise_identical(seed):
    bids, schedule = _round(seed, num_slots=10)
    dense = _run("dense", bids, schedule)
    reference = _run("python", bids, schedule)
    assert reference.payments == dense.payments  # repro: noqa-REP002 -- bitwise engine equivalence is the property under test
    assert reference.allocation == dense.allocation


@pytest.mark.parametrize("seed", range(0, 50, 5))
def test_tie_heavy_costs_stay_bitwise_identical(seed):
    bids, schedule = _round(seed, cost_distribution=TieHeavyCosts())
    dense = _run("dense", bids, schedule)
    sparse = _run("sparse", bids, schedule)
    assert sparse.payments == dense.payments  # repro: noqa-REP002 -- exact arithmetic on integer costs, ties included
    assert len(sparse.allocation) == len(dense.allocation)
    welfare_dense = solve(schedule, bids, "dense")[1]
    welfare_sparse = solve(schedule, bids, "sparse")[1]
    assert welfare_sparse == welfare_dense  # repro: noqa-REP002 -- exact arithmetic on integer costs, ties included


@pytest.mark.parametrize("seed", range(8))
def test_warm_repair_matches_cold_exclusion_per_winner(seed):
    bids, schedule = _round(seed, num_slots=14)
    for engine in ("dense", "sparse"):
        with forced_engine(engine):
            graph = TaskAssignmentGraph(schedule, bids)
            allocation, _ = graph.solve()
            for phone_id in sorted(set(allocation.values())):
                warm = graph.welfare_without_phone(phone_id)
                cold = graph.solve(exclude_phone=phone_id)[1]
                assert warm == pytest.approx(cold, abs=1e-9)


def test_degenerate_single_slot_windows():
    """Phones with ``arrival == departure`` (one-slot windows)."""
    schedule = TaskSchedule.from_counts([2, 1, 1], value=30.0)
    bids = [
        Bid(phone_id=0, arrival=1, departure=1, cost=10.0),
        Bid(phone_id=1, arrival=1, departure=1, cost=12.0),
        Bid(phone_id=2, arrival=2, departure=2, cost=8.0),
        Bid(phone_id=3, arrival=3, departure=3, cost=15.0),
        Bid(phone_id=4, arrival=3, departure=3, cost=40.0),  # priced out
    ]
    dense = _run("dense", bids, schedule)
    sparse = _run("sparse", bids, schedule)
    assert sparse.payments == dense.payments  # repro: noqa-REP002 -- bitwise engine equivalence is the property under test
    assert set(sparse.allocation.values()) == set(dense.allocation.values())
    assert 4 not in sparse.payments


def test_phones_with_zero_active_tasks():
    """Windows that cover only task-free slots yield losing phones."""
    schedule = TaskSchedule.from_counts([1, 0, 0, 1], value=30.0)
    bids = [
        Bid(phone_id=0, arrival=1, departure=1, cost=10.0),
        Bid(phone_id=1, arrival=2, departure=3, cost=1.0),  # no tasks
        Bid(phone_id=2, arrival=4, departure=4, cost=9.0),
    ]
    for engine in ("dense", "sparse", "python"):
        outcome = _run(engine, bids, schedule)
        assert set(outcome.allocation.values()) == {0, 2}
        assert 1 not in outcome.payments
    with forced_engine("sparse"):
        graph = TaskAssignmentGraph(schedule, bids)
    assert graph.weight(schedule.tasks[0].task_id, 1) == 0.0


def test_empty_rounds_agree():
    schedule = TaskSchedule.from_counts([0, 0], value=30.0)
    bids = [Bid(phone_id=0, arrival=1, departure=2, cost=5.0)]
    for engine in ("dense", "sparse", "python"):
        allocation, welfare = solve(schedule, bids, engine)
        assert allocation == {}
        assert welfare == 0.0  # repro: noqa-REP002 -- empty optimum is exactly zero


@pytest.mark.parametrize("seed", range(0, 50, 5))
def test_scipy_welfare_crosscheck(seed):
    """scipy confirms the optimal value (ties may differ by design)."""
    bids, schedule = _round(seed)
    welfare_dense = solve(schedule, bids, "dense")[1]
    allocation, welfare_scipy = solve(schedule, bids, "scipy")
    assert welfare_scipy == pytest.approx(welfare_dense, abs=1e-9)
    assert len(allocation) > 0


def test_engines_agree_on_winners_welfare_and_payments_not_on_task_map():
    """The cross-engine contract on a tie-heavy paper-scale round.

    On this round the two engines serve different tasks (asserted, so
    the fixture keeps exercising the tie case), yet the winner set, the
    claimed welfare and every payment — values, bit patterns and dict
    order — are identical.
    """
    bids, schedule = _round(3, cost_distribution=TieHeavyCosts(), num_slots=50)
    dense_map, dense_welfare = solve(schedule, bids, "dense")
    sparse_map, sparse_welfare = solve(schedule, bids, "sparse")
    assert sparse_map != dense_map
    assert set(sparse_map.values()) == set(dense_map.values())
    assert sparse_welfare == dense_welfare  # repro: noqa-REP002 -- bitwise engine equivalence is the property under test
    dense = _run("dense", bids, schedule)
    sparse = _run("sparse", bids, schedule)
    assert pickle.dumps(sparse.payments) == pickle.dumps(dense.payments)
