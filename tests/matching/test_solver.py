"""Unit tests for the vectorised AssignmentSolver and its repair query."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MatchingError
from repro.matching.hungarian import solve_assignment_min
from repro.matching.solver import AssignmentSolver


def _random_cost(rng, rows, cols):
    return rng.uniform(0.0, 10.0, size=(rows, cols))


class TestSolve:
    def test_matches_python_reference_small(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            rows = int(rng.integers(1, 6))
            cols = int(rng.integers(rows, rows + 5))
            cost = _random_cost(rng, rows, cols)
            _, fast_total = AssignmentSolver(cost).solve()
            _, ref_total = solve_assignment_min(cost.tolist())
            assert fast_total == pytest.approx(ref_total)

    def test_matches_scipy_larger(self):
        scipy_opt = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(1)
        for _ in range(5):
            cost = _random_cost(rng, 40, 55)
            _, total = AssignmentSolver(cost).solve()
            rows, cols = scipy_opt.linear_sum_assignment(cost)
            assert total == pytest.approx(float(cost[rows, cols].sum()))

    def test_assignment_structure(self):
        rng = np.random.default_rng(2)
        cost = _random_cost(rng, 6, 9)
        row_to_col, total = AssignmentSolver(cost).solve()
        assert len(row_to_col) == 6
        assert len(set(row_to_col.tolist())) == 6  # distinct columns
        assert total == pytest.approx(
            float(sum(cost[i, int(j)] for i, j in enumerate(row_to_col)))
        )

    def test_solve_cached(self):
        cost = np.array([[1.0, 2.0], [2.0, 1.0]])
        solver = AssignmentSolver(cost)
        first = solver.solve()
        second = solver.solve()
        assert np.array_equal(first[0], second[0])
        assert first[1] == second[1]

    def test_negative_costs(self):
        cost = np.array([[-3.0, 1.0], [1.0, -3.0]])
        _, total = AssignmentSolver(cost).solve()
        assert total == pytest.approx(-6.0)

    def test_rows_gt_cols_rejected(self):
        with pytest.raises(MatchingError, match="rows <= cols"):
            AssignmentSolver(np.zeros((3, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(MatchingError, match="finite"):
            AssignmentSolver(np.array([[np.inf, 1.0]]))

    def test_non_2d_rejected(self):
        with pytest.raises(MatchingError, match="2-D"):
            AssignmentSolver(np.zeros(3))

    def test_input_matrix_copied(self):
        cost = np.array([[1.0, 2.0], [2.0, 1.0]])
        solver = AssignmentSolver(cost)
        cost[0, 0] = 99.0
        _, total = solver.solve()
        assert total == pytest.approx(2.0)


def _priced(cost, assignment):
    """Total cost of ``assignment`` read from the raw matrix."""
    return float(sum(cost[row, int(col)] for row, col in enumerate(assignment)))


class TestRepair:
    """matching_without_column must be a cold re-solve's optimum."""

    def test_against_full_resolve_random(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            rows = int(rng.integers(2, 8))
            cols = rows + int(rng.integers(1, 6))
            cost = _random_cost(rng, rows, cols)
            solver = AssignmentSolver(cost)
            solver.solve()
            for col in range(cols):
                repaired = solver.matching_without_column(col)
                assert col not in repaired.tolist()
                reduced = np.delete(cost, col, axis=1)
                _, expected = AssignmentSolver(reduced).solve()
                assert _priced(cost, repaired) == pytest.approx(expected), (
                    f"col {col} of\n{cost}"
                )

    def test_unmatched_column_is_free(self):
        cost = np.array([[0.0, 5.0, 9.0]])
        solver = AssignmentSolver(cost)
        assignment, total = solver.solve()
        assert total == 0.0
        # Column 2 is unmatched; removing it changes nothing.
        assert (
            solver.matching_without_column(2).tolist() == assignment.tolist()
        )

    def test_repair_does_not_mutate_state(self):
        rng = np.random.default_rng(4)
        cost = _random_cost(rng, 5, 8)
        solver = AssignmentSolver(cost)
        assignment_before, total_before = solver.solve()
        solver.matching_without_column(0)
        solver.matching_without_column(3)
        assignment_after, total_after = solver.solve()
        assert assignment_before.tolist() == assignment_after.tolist()
        assert total_before == total_after

    def test_column_out_of_range(self):
        solver = AssignmentSolver(np.zeros((1, 2)))
        with pytest.raises(MatchingError, match="outside"):
            solver.matching_without_column(2)

    def test_square_matrix_removal_rejected(self):
        solver = AssignmentSolver(np.zeros((2, 2)))
        with pytest.raises(MatchingError, match="dummy columns"):
            solver.matching_without_column(0)

    def test_repair_with_ties(self):
        # Several equal-cost optima; repair must still be exact.
        cost = np.array(
            [
                [1.0, 1.0, 1.0, 0.0],
                [1.0, 1.0, 1.0, 0.0],
                [1.0, 1.0, 1.0, 0.0],
            ]
        )
        solver = AssignmentSolver(cost)
        solver.solve()
        for col in range(4):
            reduced = np.delete(cost, col, axis=1)
            _, expected = AssignmentSolver(reduced).solve()
            repaired = solver.matching_without_column(col)
            assert col not in repaired.tolist()
            assert _priced(cost, repaired) == pytest.approx(expected)
