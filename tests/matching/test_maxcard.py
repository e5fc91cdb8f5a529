"""Unit tests for Hopcroft-Karp maximum-cardinality matching."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MatchingError
from repro.matching import max_weight_matching
from tests.matching.maxcard_oracle import hopcroft_karp


class TestHopcroftKarp:
    def test_perfect_matching(self):
        size, matching = hopcroft_karp([[0], [1]], num_right=2)
        assert size == 2
        assert matching == {0: 0, 1: 1}

    def test_contended_vertex(self):
        # Both left vertices only like right vertex 0.
        size, matching = hopcroft_karp([[0], [0]], num_right=1)
        assert size == 1
        assert len(matching) == 1

    def test_augmenting_path_needed(self):
        # 0-{0}, 1-{0,1}: greedy 1->0 would block 0; HK must fix it.
        size, matching = hopcroft_karp([[0], [0, 1]], num_right=2)
        assert size == 2
        assert matching[0] == 0
        assert matching[1] == 1

    def test_empty_graph(self):
        size, matching = hopcroft_karp([], num_right=0)
        assert size == 0
        assert matching == {}

    def test_isolated_left_vertices(self):
        size, matching = hopcroft_karp([[], [0], []], num_right=1)
        assert size == 1
        assert matching == {1: 0}

    def test_out_of_range_right_vertex(self):
        with pytest.raises(MatchingError, match="out of range"):
            hopcroft_karp([[5]], num_right=2)

    def test_matching_is_injective(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n_left = int(rng.integers(1, 12))
            n_right = int(rng.integers(1, 12))
            adjacency = [
                sorted(
                    set(
                        int(v)
                        for v in rng.integers(
                            0, n_right, size=rng.integers(0, n_right + 1)
                        )
                    )
                )
                for _ in range(n_left)
            ]
            size, matching = hopcroft_karp(adjacency, num_right=n_right)
            assert size == len(matching)
            assert len(set(matching.values())) == len(matching)
            for left, right in matching.items():
                assert right in adjacency[left]

    def test_cardinality_matches_weighted_matcher_on_01(self):
        """Cross-check: HK cardinality == max-weight matching size on a
        0/1 weight matrix."""
        rng = np.random.default_rng(1)
        for _ in range(10):
            n_left = int(rng.integers(1, 8))
            n_right = int(rng.integers(1, 8))
            mask = rng.random((n_left, n_right)) < 0.4
            adjacency = [
                [j for j in range(n_right) if mask[i, j]]
                for i in range(n_left)
            ]
            hk_size, _ = hopcroft_karp(adjacency, num_right=n_right)
            weights = mask.astype(float).tolist()
            result = max_weight_matching(weights)
            assert hk_size == len(result.pairs)
