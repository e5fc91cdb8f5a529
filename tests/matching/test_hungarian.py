"""Unit tests for the pure-Python Hungarian reference implementation."""

from __future__ import annotations

import pytest

from repro.errors import MatchingError
from repro.matching import max_weight_matching, solve_assignment_min
from repro.matching.validate import check_matching


class TestSolveAssignmentMin:
    def test_identity_optimal(self):
        cost = [[0.0, 9.0], [9.0, 0.0]]
        assignment, total = solve_assignment_min(cost)
        assert assignment == [0, 1]
        assert total == 0.0

    def test_cross_optimal(self):
        cost = [[9.0, 1.0], [1.0, 9.0]]
        assignment, total = solve_assignment_min(cost)
        assert assignment == [1, 0]
        assert total == 2.0

    def test_rectangular_chooses_cheapest_columns(self):
        cost = [[5.0, 1.0, 3.0]]
        assignment, total = solve_assignment_min(cost)
        assert assignment == [1]
        assert total == 1.0

    def test_three_by_three_known_optimum(self):
        cost = [
            [4.0, 1.0, 3.0],
            [2.0, 0.0, 5.0],
            [3.0, 2.0, 2.0],
        ]
        _, total = solve_assignment_min(cost)
        assert total == 5.0  # 1 + 2 + 2

    def test_negative_costs_supported(self):
        cost = [[-5.0, 0.0], [0.0, -5.0]]
        assignment, total = solve_assignment_min(cost)
        assert total == -10.0
        assert assignment == [0, 1]

    def test_empty_matrix(self):
        assignment, total = solve_assignment_min([])
        assert assignment == []
        assert total == 0.0

    def test_more_rows_than_cols_rejected(self):
        with pytest.raises(MatchingError, match="rows <= cols"):
            solve_assignment_min([[1.0], [2.0]])

    def test_ragged_matrix_rejected(self):
        with pytest.raises(MatchingError, match="ragged"):
            solve_assignment_min([[1.0, 2.0], [1.0]])

    def test_nan_rejected(self):
        with pytest.raises(MatchingError, match="finite"):
            solve_assignment_min([[float("nan")]])

    def test_assignment_is_permutation(self):
        cost = [
            [3.0, 8.0, 2.0, 4.0],
            [9.0, 1.0, 5.0, 6.0],
            [2.0, 7.0, 3.0, 1.0],
            [4.0, 4.0, 4.0, 4.0],
        ]
        assignment, _ = solve_assignment_min(cost)
        assert sorted(assignment) == [0, 1, 2, 3]


class TestMaxWeightMatching:
    def test_simple_positive(self):
        weights = [[3.0, 1.0], [1.0, 3.0]]
        result = max_weight_matching(weights)
        assert result.total_weight == 6.0
        assert set(result.pairs) == {(0, 0), (1, 1)}

    def test_skips_non_positive_edges(self):
        weights = [[0.0, -2.0], [0.0, 0.0]]
        result = max_weight_matching(weights)
        assert result.pairs == ()
        assert result.total_weight == 0.0

    def test_prefers_leaving_row_unmatched_over_negative(self):
        weights = [[5.0, -1.0], [5.0, -1.0]]
        result = max_weight_matching(weights)
        # Only one row can take the weight-5 column; the other stays out.
        assert result.total_weight == 5.0
        assert len(result.pairs) == 1

    def test_rectangular_more_rows(self):
        weights = [[2.0], [3.0], [1.0]]
        result = max_weight_matching(weights)
        assert result.total_weight == 3.0
        assert result.pairs == ((1, 0),)

    def test_rectangular_more_cols(self):
        weights = [[1.0, 5.0, 2.0]]
        result = max_weight_matching(weights)
        assert result.pairs == ((0, 1),)

    def test_empty(self):
        assert max_weight_matching([]).total_weight == 0.0
        assert max_weight_matching([[]]).total_weight == 0.0

    def test_result_valid_matching(self):
        weights = [
            [4.0, 0.0, 2.0],
            [2.0, 3.0, 0.0],
            [0.0, 1.0, 5.0],
        ]
        result = max_weight_matching(weights)
        assert check_matching(weights, result.pairs) == pytest.approx(
            result.total_weight
        )
        assert result.total_weight == 12.0

    def test_pairs_sorted_by_row(self):
        weights = [[0.0, 1.0], [2.0, 0.0]]
        result = max_weight_matching(weights)
        assert result.pairs == ((0, 1), (1, 0))

    def test_greedy_trap(self):
        # Greedy would take (0,0)=10 then leave row 1 with 0;
        # optimal is (0,1)=9 + (1,0)=9.
        weights = [[10.0, 9.0], [9.0, 0.0]]
        result = max_weight_matching(weights)
        assert result.total_weight == 18.0
