"""Hopcroft-Karp maximum-cardinality bipartite matching, a test oracle.

An independent structural check on the weighted matcher: a
maximum-weight matching over a 0/1 weight matrix must have the same
cardinality as Hopcroft-Karp reports.  Nothing in the program needs a
cardinality-only matcher, so it lives with the tests.
"""

from __future__ import annotations

import collections
from typing import Dict, List, Sequence, Tuple

from repro.errors import MatchingError

_INF = float("inf")


def hopcroft_karp(
    adjacency: Sequence[Sequence[int]], num_right: int
) -> Tuple[int, Dict[int, int]]:
    """Maximum-cardinality matching of a bipartite graph.

    Parameters
    ----------
    adjacency:
        ``adjacency[u]`` lists the right-vertex indices adjacent to left
        vertex ``u``.
    num_right:
        Number of right vertices (right indices must be ``< num_right``).

    Returns
    -------
    ``(size, matching)`` where ``matching`` maps each matched left vertex
    to its right partner.

    Complexity ``O(E * sqrt(V))``.
    """
    num_left = len(adjacency)
    for u, neighbours in enumerate(adjacency):
        for v in neighbours:
            if not (0 <= v < num_right):
                raise MatchingError(
                    f"right vertex {v} (adjacent to left {u}) out of range "
                    f"[0, {num_right})"
                )

    match_left: List[int] = [-1] * num_left
    match_right: List[int] = [-1] * num_right
    distance: List[float] = [0.0] * num_left

    def bfs() -> bool:
        queue = collections.deque()
        for u in range(num_left):
            if match_left[u] == -1:
                distance[u] = 0.0
                queue.append(u)
            else:
                distance[u] = _INF
        found_augmenting = False
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                partner = match_right[v]
                if partner == -1:
                    found_augmenting = True
                elif distance[partner] == _INF:
                    distance[partner] = distance[u] + 1.0
                    queue.append(partner)
        return found_augmenting

    def dfs(u: int) -> bool:
        for v in adjacency[u]:
            partner = match_right[v]
            if partner == -1 or (
                distance[partner] == distance[u] + 1.0 and dfs(partner)
            ):
                match_left[u] = v
                match_right[v] = u
                return True
        distance[u] = _INF
        return False

    size = 0
    while bfs():
        for u in range(num_left):
            if match_left[u] == -1 and dfs(u):
                size += 1

    matching = {u: v for u, v in enumerate(match_left) if v != -1}
    return size, matching
