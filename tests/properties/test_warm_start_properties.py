"""Warm-started solver repairs vs cold re-solves, across 50 seeds.

The warm paths (:meth:`AssignmentSolver.matching_without_column`,
:meth:`TaskAssignmentGraph.welfare_without_phone`) must agree with a
from-scratch solve of the reduced instance — on the optimal value
always, and on the matching itself whenever the optimum is unique
(continuous random costs make ties measure-zero).  The pure-Python
reference solver cross-checks the vectorised one, and the dense-input
entry point, on every seed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.matching import max_weight_matching
from repro.matching.graph import TaskAssignmentGraph
from repro.matching.hungarian import solve_assignment_min
from repro.matching.solver import AssignmentSolver, padded_cost
from repro.simulation import WorkloadConfig

SEEDS = range(50)


def _random_cost(seed: int) -> np.ndarray:
    """A random rectangular cost matrix with ``rows <= cols``."""
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(2, 8))
    cols = rows + int(rng.integers(1, 4))
    return rng.random((rows, cols)) * 10.0


class TestWarmColumnRemoval:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_cold_resolve(self, seed):
        cost = _random_cost(seed)
        solver = AssignmentSolver(cost)
        solver.solve()
        for column in range(cost.shape[1]):
            repaired = solver.matching_without_column(column)
            cold_assignment, cold_total = AssignmentSolver(
                np.delete(cost, column, axis=1)
            ).solve()
            rows = np.arange(cost.shape[0])
            assert float(cost[rows, repaired].sum()) == pytest.approx(
                cold_total
            )
            # Continuous costs: the reduced optimum is unique, so the
            # warm matching is the cold one (in the full column numbering).
            cold_in_full = np.where(
                cold_assignment >= column, cold_assignment + 1, cold_assignment
            )
            np.testing.assert_array_equal(repaired, cold_in_full)


class TestBackendCrossCheck:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_solver_matches_python_reference(self, seed):
        cost = _random_cost(seed)
        assignment, total = AssignmentSolver(cost).solve()
        reference_assignment, reference_total = solve_assignment_min(
            cost.tolist()
        )
        assert total == pytest.approx(reference_total)
        np.testing.assert_array_equal(
            assignment, np.asarray(reference_assignment)
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_backend_flag_selects_identical_matchings(self, seed):
        """The dense entry point and the reference pick the same pairs."""
        rng = np.random.default_rng(seed)
        weights = rng.random((4, 6)) * 10.0 - 2.0
        fast = max_weight_matching(weights.tolist())
        assignment, _ = solve_assignment_min(padded_cost(weights).tolist())
        pairs = tuple(
            (row, col)
            for row, col in enumerate(assignment)
            if col < 6 and weights[row, col] > 0.0
        )
        assert fast.pairs == pairs
        assert fast.total_weight == pytest.approx(
            sum(weights[row, col] for row, col in pairs)
        )


class TestGraphWelfareWithoutPhone:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_exclusion_solve(self, seed):
        scenario = WorkloadConfig.paper_default().replace(
            num_slots=10
        ).generate(seed=seed)
        bids = scenario.truthful_bids()
        graph = TaskAssignmentGraph(scenario.schedule, bids)
        allocation, _ = graph.solve()
        for phone_id in sorted(set(allocation.values())):
            _, cold_welfare = graph.solve(exclude_phone=phone_id)
            assert graph.welfare_without_phone(phone_id) == pytest.approx(
                cold_welfare
            )
