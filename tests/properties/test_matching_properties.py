"""Property-based tests of the matching substrate (hypothesis)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching import (
    brute_force_max_weight_matching,
    check_matching,
    max_weight_matching,
)
from repro.matching.solver import AssignmentSolver
from tests.matching.maxcard_oracle import hopcroft_karp

weight_matrices = st.integers(1, 5).flatmap(
    lambda rows: st.integers(1, 5).flatmap(
        lambda cols: st.lists(
            st.lists(
                st.floats(
                    min_value=-10.0,
                    max_value=10.0,
                    allow_nan=False,
                    allow_infinity=False,
                ),
                min_size=cols,
                max_size=cols,
            ),
            min_size=rows,
            max_size=rows,
        )
    )
)


class TestMaxWeightMatchingProperties:
    @given(weights=weight_matrices)
    @settings(max_examples=60, deadline=None)
    def test_equals_brute_force(self, weights):
        fast = max_weight_matching(weights)
        exact = brute_force_max_weight_matching(weights)
        assert fast.total_weight == pytest.approx(exact.total_weight)

    @given(weights=weight_matrices)
    @settings(max_examples=60, deadline=None)
    def test_result_is_valid_matching(self, weights):
        result = max_weight_matching(weights)
        total = check_matching(weights, result.pairs)
        assert total == pytest.approx(result.total_weight)

    @given(weights=weight_matrices)
    @settings(max_examples=40, deadline=None)
    def test_total_weight_nonnegative(self, weights):
        # Leaving everything unmatched is always available.
        assert max_weight_matching(weights).total_weight >= 0.0

    @given(weights=weight_matrices, scale=st.floats(0.1, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_scaling_invariance(self, weights, scale):
        """Scaling all weights scales the optimum."""
        scaled = [[w * scale for w in row] for row in weights]
        base = max_weight_matching(weights).total_weight
        assert max_weight_matching(scaled).total_weight == pytest.approx(
            base * scale, abs=1e-6
        )

    @given(weights=weight_matrices)
    @settings(max_examples=30, deadline=None)
    def test_adding_column_never_hurts(self, weights):
        """More smartphones can only increase the optimal welfare."""
        extended = [row + [5.0] for row in weights]
        assert (
            max_weight_matching(extended).total_weight
            >= max_weight_matching(weights).total_weight - 1e-9
        )


def _priced(cost, assignment):
    """Total cost of ``assignment`` read from the raw matrix."""
    return float(sum(cost[row, int(col)] for row, col in enumerate(assignment)))


class TestRepairProperties:
    @given(
        seed=st.integers(0, 10_000),
        rows=st.integers(1, 6),
        extra=st.integers(1, 5),
    )
    @settings(max_examples=50, deadline=None)
    def test_repair_equals_resolve(self, seed, rows, extra):
        rng = np.random.default_rng(seed)
        cost = rng.uniform(0.0, 10.0, size=(rows, rows + extra))
        solver = AssignmentSolver(cost)
        solver.solve()
        column = int(rng.integers(rows + extra))
        repaired = solver.matching_without_column(column)
        assert column not in repaired.tolist()
        reduced = np.delete(cost, column, axis=1)
        _, expected = AssignmentSolver(reduced).solve()
        assert _priced(cost, repaired) == pytest.approx(expected)

    @given(seed=st.integers(0, 10_000), rows=st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_removing_column_never_decreases_cost(self, seed, rows):
        rng = np.random.default_rng(seed)
        cost = rng.uniform(0.0, 10.0, size=(rows, rows + 3))
        solver = AssignmentSolver(cost)
        _, full = solver.solve()
        for column in range(rows + 3):
            repaired = solver.matching_without_column(column)
            assert _priced(cost, repaired) >= full - 1e-9


class TestHopcroftKarpProperties:
    @given(
        seed=st.integers(0, 10_000),
        n_left=st.integers(1, 7),
        n_right=st.integers(1, 7),
        density=st.floats(0.0, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_cardinality_equals_weighted_01(
        self, seed, n_left, n_right, density
    ):
        rng = np.random.default_rng(seed)
        mask = rng.random((n_left, n_right)) < density
        adjacency = [
            [j for j in range(n_right) if mask[i, j]]
            for i in range(n_left)
        ]
        size, matching = hopcroft_karp(adjacency, num_right=n_right)
        assert size == len(matching)
        weighted = max_weight_matching(mask.astype(float).tolist())
        assert size == len(weighted.pairs)

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 7),
    )
    @settings(max_examples=30, deadline=None)
    def test_matching_edges_exist(self, seed, n):
        rng = np.random.default_rng(seed)
        mask = rng.random((n, n)) < 0.5
        adjacency = [
            [j for j in range(n) if mask[i, j]] for i in range(n)
        ]
        _, matching = hopcroft_karp(adjacency, num_right=n)
        for left, right in matching.items():
            assert mask[left, right]
