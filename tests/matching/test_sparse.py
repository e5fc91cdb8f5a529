"""Unit tests for the CSR sparse assignment solver.

The full solve is cross-checked against the dense
:class:`AssignmentSolver` on the same instance, and the column-removal
repair against cold re-solves of the reduced instance.
"""

import numpy as np
import pytest

from repro.errors import MatchingError
from repro.matching.solver import AssignmentSolver
from repro.matching.sparse import SparseAssignmentSolver
from tests.matching.scipy_oracle import csr_from_dense


def _random_dense(rng, rows, cols, low=1.0, high=50.0):
    return rng.uniform(low, high, size=(rows, cols))


def _sparse_from(matrix, keep=None, dummy_cost=None):
    indptr, indices, data = csr_from_dense(matrix, keep=keep)
    rows, cols = np.asarray(matrix).shape
    return SparseAssignmentSolver(
        rows, cols, indptr, indices, data, dummy_cost=dummy_cost
    )


def _priced(matrix, dummy_cost, assignment):
    """Total cost of ``assignment``: real columns from ``matrix``, row
    ``r``'s implicit dummy ``cols + r`` at ``dummy_cost``."""
    cols = matrix.shape[1]
    return float(
        sum(
            matrix[row, col] if col < cols else dummy_cost
            for row, col in enumerate(assignment.tolist())
        )
    )


class TestConstruction:
    def test_csr_from_dense_roundtrip(self):
        matrix = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        indptr, indices, data = csr_from_dense(matrix)
        assert indptr.tolist() == [0, 3, 6]
        assert indices.tolist() == [0, 1, 2, 0, 1, 2]
        assert data.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_csr_from_dense_with_mask(self):
        matrix = np.array([[1.0, 2.0], [3.0, 4.0]])
        keep = np.array([[True, False], [False, True]])
        indptr, indices, data = csr_from_dense(matrix, keep=keep)
        assert indptr.tolist() == [0, 1, 2]
        assert indices.tolist() == [0, 1]
        assert data.tolist() == [1.0, 4.0]

    def test_rejects_bad_indptr_length(self):
        with pytest.raises(MatchingError, match="indptr"):
            SparseAssignmentSolver(
                2,
                2,
                np.array([0, 1]),
                np.array([0]),
                np.array([1.0]),
            )

    def test_rejects_decreasing_indptr(self):
        with pytest.raises(MatchingError, match="monotone"):
            SparseAssignmentSolver(
                2,
                2,
                np.array([0, 2, 1]),
                np.array([0]),
                np.array([1.0]),
            )

    def test_rejects_unsorted_row_indices(self):
        with pytest.raises(MatchingError, match="strictly increasing"):
            SparseAssignmentSolver(
                1,
                3,
                np.array([0, 2]),
                np.array([2, 0]),
                np.array([1.0, 2.0]),
            )

    def test_rejects_duplicate_row_indices(self):
        with pytest.raises(MatchingError, match="strictly increasing"):
            SparseAssignmentSolver(
                1,
                3,
                np.array([0, 2]),
                np.array([1, 1]),
                np.array([1.0, 2.0]),
            )

    def test_rejects_out_of_range_column(self):
        with pytest.raises(MatchingError, match=r"\[0, 2\)"):
            SparseAssignmentSolver(
                1,
                2,
                np.array([0, 1]),
                np.array([2]),
                np.array([1.0]),
            )

    def test_rejects_non_finite_cost(self):
        with pytest.raises(MatchingError, match="finite"):
            SparseAssignmentSolver(
                1,
                2,
                np.array([0, 1]),
                np.array([0]),
                np.array([np.inf]),
            )

    def test_rejects_non_finite_dummy_cost(self):
        with pytest.raises(MatchingError, match="dummy_cost"):
            SparseAssignmentSolver(
                1,
                2,
                np.array([0, 1]),
                np.array([0]),
                np.array([1.0]),
                dummy_cost=np.nan,
            )

    def test_rejects_more_rows_than_cols_without_dummies(self):
        with pytest.raises(MatchingError, match="rows <= cols"):
            SparseAssignmentSolver(
                3,
                2,
                np.array([0, 2, 4, 6]),
                np.array([0, 1, 0, 1, 0, 1]),
                np.ones(6),
            )

    def test_edge_cost_lookup(self):
        solver = _sparse_from(
            np.array([[1.0, 2.0], [3.0, 4.0]]), dummy_cost=9.0
        )
        assert solver._edge_cost(0, 1) == 2.0  # repro: noqa-REP002 -- stored costs round-trip exactly
        assert solver._edge_cost(1, 0) == 3.0  # repro: noqa-REP002 -- stored costs round-trip exactly
        assert solver._edge_cost(0, 2) == 9.0  # repro: noqa-REP002 -- row 0's implicit dummy, exact
        with pytest.raises(MatchingError, match="not an edge"):
            solver._edge_cost(0, 3)  # row 1's dummy is private to row 1

    def test_shape_counts_implicit_dummies(self):
        # Columns 3 and 4 are the rows' implicit dummies.
        solver = _sparse_from(np.full((2, 3), 2.0), dummy_cost=1.0)
        assert solver.solve()[0].tolist() == [3, 4]
        # Without row 1's dummy, row 1 takes a real column.
        assert solver.matching_without_column(4).tolist() == [3, 0]
        with pytest.raises(MatchingError, match=r"outside \[0, 5\)"):
            solver.matching_without_column(5)
        bare = _sparse_from(np.ones((2, 3)))
        with pytest.raises(MatchingError, match=r"outside \[0, 3\)"):
            bare.matching_without_column(3)


class TestSolveEquivalence:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_dense_total_on_full_matrices(self, seed):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(rows, 12))
        matrix = _random_dense(rng, rows, cols)
        dense = AssignmentSolver(matrix)
        sparse = _sparse_from(matrix)
        assignment_d, total_d = dense.solve()
        assignment_s, total_s = sparse.solve()
        assert total_s == pytest.approx(total_d, abs=1e-9)
        # Full continuous matrices have a unique optimum a.s.
        assert assignment_s.tolist() == assignment_d.tolist()

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_dense_with_explicit_dummies(self, seed):
        """Implicit per-row dummies == dense explicit dummy block."""
        rng = np.random.default_rng(100 + seed)
        rows = int(rng.integers(1, 8))
        cols = int(rng.integers(1, 8))
        matrix = _random_dense(rng, rows, cols)
        keep = rng.random((rows, cols)) < 0.5
        dummy = float(matrix.max()) + 1.0

        dense_matrix = np.full((rows, cols + rows), dummy)
        dense_matrix[:, :cols] = np.where(keep, matrix, dummy * 4)
        dense_total = AssignmentSolver(dense_matrix).solve()[1]

        sparse = _sparse_from(matrix, keep=keep, dummy_cost=dummy)
        total_s = sparse.solve()[1]
        # The dense stand-in prices missing edges at an unattractive
        # finite cost instead of removing them, so compare totals only
        # when the optimum uses no such edge.
        if total_s < dummy * 4:
            assert total_s == pytest.approx(dense_total, abs=1e-9)

    def test_empty_instance(self):
        solver = SparseAssignmentSolver(
            0, 0, np.array([0]), np.empty(0), np.empty(0)
        )
        assignment, total = solver.solve()
        assert assignment.tolist() == []
        assert total == 0.0

    def test_infeasible_raises(self):
        # Two rows, one shared column, no dummies.
        solver = SparseAssignmentSolver(
            2,
            2,
            np.array([0, 1, 2]),
            np.array([0, 0]),
            np.array([1.0, 2.0]),
        )
        with pytest.raises(MatchingError, match="no augmenting path"):
            solver.solve()

    def test_all_rows_park_on_dummies_when_cheapest(self):
        solver = _sparse_from(np.full((3, 3), 10.0), dummy_cost=1.0)
        assignment, total = solver.solve()
        assert assignment.tolist() == [3, 4, 5]
        assert total == pytest.approx(3.0)


class TestColumnRemoval:
    @pytest.mark.parametrize("seed", range(15))
    def test_total_without_column_matches_cold(self, seed):
        rng = np.random.default_rng(200 + seed)
        rows = int(rng.integers(2, 7))
        cols = int(rng.integers(2, 7))
        matrix = _random_dense(rng, rows, cols)
        dummy = float(matrix.max()) + 5.0
        solver = _sparse_from(matrix, dummy_cost=dummy)
        solver.solve()
        for column in range(cols):
            kept = [c for c in range(cols) if c != column]
            cold = _sparse_from(
                matrix[:, kept], dummy_cost=dummy
            ).solve()[1]
            warm = solver.matching_without_column(column)
            assert _priced(matrix, dummy, warm) == pytest.approx(
                cold, abs=1e-9
            )

    @pytest.mark.parametrize("seed", range(15))
    def test_matching_without_column_is_optimal_and_avoids_it(self, seed):
        rng = np.random.default_rng(300 + seed)
        rows = int(rng.integers(2, 7))
        cols = int(rng.integers(2, 7))
        matrix = _random_dense(rng, rows, cols)
        dummy = float(matrix.max()) + 5.0
        solver = _sparse_from(matrix, dummy_cost=dummy)
        assignment, total = solver.solve()
        for column in range(cols):
            repaired = solver.matching_without_column(column)
            assert column not in repaired.tolist()
            assert len(set(repaired.tolist())) == rows
            kept = [c for c in range(cols) if c != column]
            cold = _sparse_from(
                matrix[:, kept], dummy_cost=dummy
            ).solve()[1]
            assert _priced(matrix, dummy, repaired) == pytest.approx(
                cold, abs=1e-9
            )
            # Non-mutating: the cached optimum is untouched.
            after, after_total = solver.solve()
            assert after.tolist() == assignment.tolist()
            assert after_total == total  # repro: noqa-REP002 -- the cached total itself, not a recomputation

    def test_unmatched_column_removal_is_free(self):
        matrix = np.array([[1.0, 50.0, 60.0]])
        solver = _sparse_from(matrix, dummy_cost=100.0)
        assert (
            solver.matching_without_column(1).tolist()
            == solver.solve()[0].tolist()
        )

    def test_column_out_of_range(self):
        solver = _sparse_from(np.ones((1, 2)), dummy_cost=5.0)
        with pytest.raises(MatchingError, match="outside"):
            solver.matching_without_column(99)

    def test_requires_dummies_when_square(self):
        solver = _sparse_from(np.ones((2, 2)))
        with pytest.raises(MatchingError, match="every column is needed"):
            solver.matching_without_column(0)
