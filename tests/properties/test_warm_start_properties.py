"""Warm-started solver repairs vs cold re-solves, across 50 seeds.

The warm paths (:meth:`AssignmentSolver.resolve_without_row`,
:meth:`AssignmentSolver.total_cost_without_column`,
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


class TestWarmRowRemoval:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_cold_resolve(self, seed):
        cost = _random_cost(seed)
        solver = AssignmentSolver(cost)
        solver.solve()
        rng = np.random.default_rng(seed + 1000)
        row = int(rng.integers(0, cost.shape[0]))

        warm_assignment, warm_total = solver.resolve_without_row(row)

        reduced = np.delete(cost, row, axis=0)
        cold = AssignmentSolver(reduced)
        cold.solve()
        cold_assignment = cold.row_to_col()

        assert warm_total == pytest.approx(cold.total_cost())
        # Continuous costs: the reduced optimum is unique, so the warm
        # matching (original minus the dropped row) must be the cold one.
        assert warm_assignment[row] == -1
        kept = [r for r in range(cost.shape[0]) if r != row]
        np.testing.assert_array_equal(
            warm_assignment[kept], cold_assignment
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_total_cost_without_row_matches_cold(self, seed):
        cost = _random_cost(seed)
        solver = AssignmentSolver(cost)
        solver.solve()
        for row in range(cost.shape[0]):
            cold = AssignmentSolver(np.delete(cost, row, axis=0))
            cold.solve()
            assert solver.total_cost_without_row(row) == pytest.approx(
                cold.total_cost()
            )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_delete_row_keeps_later_repairs_exact(self, seed):
        cost = _random_cost(seed)
        solver = AssignmentSolver(cost)
        solver.solve()
        rng = np.random.default_rng(seed + 2000)
        row = int(rng.integers(0, cost.shape[0]))
        solver.delete_row(row)

        reduced = np.delete(cost, row, axis=0)
        cold = AssignmentSolver(reduced)
        cold.solve()
        assert solver.total_cost() == pytest.approx(cold.total_cost())
        # Column repairs stay exact after the deletion.
        column = int(rng.integers(0, cost.shape[1]))
        cold_reduced = AssignmentSolver(np.delete(reduced, column, axis=1))
        cold_reduced.solve()
        assert solver.total_cost_without_column(column) == pytest.approx(
            cold_reduced.total_cost()
        )


class TestWarmColumnRemoval:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_cold_resolve(self, seed):
        cost = _random_cost(seed)
        solver = AssignmentSolver(cost)
        solver.solve()
        for column in range(cost.shape[1]):
            cold = AssignmentSolver(np.delete(cost, column, axis=1))
            cold.solve()
            assert solver.total_cost_without_column(
                column
            ) == pytest.approx(cold.total_cost())


class TestBackendCrossCheck:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_solver_matches_python_reference(self, seed):
        cost = _random_cost(seed)
        solver = AssignmentSolver(cost)
        _, total = solver.solve()
        reference_assignment, reference_total = solve_assignment_min(
            cost.tolist()
        )
        assert total == pytest.approx(reference_total)
        np.testing.assert_array_equal(
            solver.row_to_col(), np.asarray(reference_assignment)
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
