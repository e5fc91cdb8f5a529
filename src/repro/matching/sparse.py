"""CSR shortest-augmenting-path assignment solver for sparse instances.

The offline winning-bid determination graph is interval-structured: an
edge (task, phone) exists only when the phone's claimed window covers
the task's slot, so with short active windows relative to the round the
graph is overwhelmingly sparse.  The dense
:class:`~repro.matching.solver.AssignmentSolver` scans full matrix rows
on every Dijkstra pivot (``O(V)`` per pivot, ``O(V^2)`` per
augmentation); this solver stores the edges in CSR form and runs a
heap-based Dijkstra that touches only a row's actual neighbours —
``O(E + V log V)`` per augmentation, where ``E`` is the number of edges
reachable from the inserted row.  On city-scale instances (thousands of
slots, tens of thousands of bids) the reachable neighbourhood is tiny
because augmenting paths cannot leave a time-window cluster, so
augmentations are effectively local.

The public API is the dense solver's: ``solve`` and the one
warm-started repair query ``matching_without_column`` — so
:class:`~repro.matching.graph.TaskAssignmentGraph` runs its payment
paths unchanged on whichever engine it picked.

Optional rows are modelled natively: when ``dummy_cost`` is given,
every row ``r`` owns a private *implicit* dummy column ``num_cols + r``
at that cost.  This is equivalent to the dense solver's explicit dummy
columns (all dummies cost the same, so private assignment is never a
restriction) but costs no memory and keeps the CSR arrays dense-free.
With ``dummy_cost=None`` the solver behaves exactly like the dense one
on the stored edges and raises :class:`MatchingError` when no perfect
row assignment exists.

Rows are inserted in index order and the heap orders frontier columns
by ``(distance, column)``, a lowest-index-first rule like the dense
``argmin``.  Even so, the two solvers may settle a degenerate optimum on
different optimal matchings: the optimal cost always agrees, the
matching itself only when the optimum is unique.  The property suites in
``tests/matching/test_sparse.py`` and
``tests/properties/test_backend_properties.py`` cross-check every query
against the dense solver and against cold re-solves.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

import numpy as np

from repro import obs
from repro.errors import MatchingError

_INF = float("inf")


class SparseAssignmentSolver:
    """Minimum-cost assignment over a CSR edge list.

    Parameters
    ----------
    num_rows, num_cols:
        Vertex counts.  Columns ``0..num_cols-1`` are the real columns;
        when ``dummy_cost`` is set, column ``num_cols + r`` is row
        ``r``'s private dummy column.
    indptr, indices, data:
        CSR arrays: row ``r``'s edges are ``indices[indptr[r]:
        indptr[r+1]]`` with costs ``data[indptr[r]:indptr[r+1]]``.
        Column indices must be strictly increasing within each row.
    dummy_cost:
        Cost of leaving a row on its implicit dummy column, or ``None``
        for no dummies (every row must then match a real column).
    """

    def __init__(
        self,
        num_rows: int,
        num_cols: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        dummy_cost: Optional[float] = None,
    ) -> None:
        if num_rows < 0 or num_cols < 0:
            raise MatchingError(
                f"negative shape ({num_rows} x {num_cols})"
            )
        self._indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self._indices = np.ascontiguousarray(indices, dtype=np.int64)
        self._data = np.ascontiguousarray(data, dtype=float)
        if self._indptr.shape != (num_rows + 1,):
            raise MatchingError(
                f"indptr must have length num_rows + 1 = {num_rows + 1}, "
                f"got {self._indptr.shape[0]}"
            )
        if self._indices.shape != self._data.shape or self._indices.ndim != 1:
            raise MatchingError("indices and data must be equal-length 1-D")
        nnz = self._indices.shape[0]
        if (
            self._indptr[0] != 0
            or self._indptr[-1] != nnz
            or np.any(np.diff(self._indptr) < 0)
        ):
            raise MatchingError("indptr must be monotone from 0 to nnz")
        if nnz:
            if self._indices.min() < 0 or self._indices.max() >= num_cols:
                raise MatchingError(
                    f"edge column indices must lie in [0, {num_cols})"
                )
            # Strictly increasing within each row: the only places the
            # global diff may be non-positive are the row boundaries.
            boundaries = np.zeros(nnz, dtype=bool)
            inner = self._indptr[1:-1]
            boundaries[inner[inner < nnz]] = True
            if np.any((np.diff(self._indices) <= 0) & ~boundaries[1:]):
                raise MatchingError(
                    "edge column indices must be strictly increasing "
                    "within each row"
                )
        if not np.all(np.isfinite(self._data)):
            raise MatchingError("edge costs must be finite")
        if dummy_cost is not None and not np.isfinite(dummy_cost):
            raise MatchingError("dummy_cost must be finite")
        if dummy_cost is None and num_rows > num_cols:
            raise MatchingError(
                f"without dummy columns rows <= cols is required, got "
                f"{num_rows} x {num_cols}"
            )

        self._num_rows = num_rows
        self._num_cols = num_cols
        self._dummy_cost = (
            None if dummy_cost is None else float(dummy_cost)
        )
        total_cols = num_cols + (num_rows if dummy_cost is not None else 0)
        self._total_cols = total_cols
        # The hot Dijkstra loops run over plain Python lists: per-row
        # neighbourhoods are tiny (tens of edges), where per-element
        # list access beats the fixed per-call overhead of numpy slice
        # arithmetic by a wide margin.
        self._indptr_list: List[int] = self._indptr.tolist()
        self._cols_list: List[int] = self._indices.tolist()
        self._data_list: List[float] = self._data.tolist()
        # Pre-zipped per-row (col, cost) pairs: the relax loop unpacks
        # tuples instead of double-subscripting by position.
        self._row_edges: List[List[Tuple[int, float]]] = [
            list(
                zip(
                    self._cols_list[
                        self._indptr_list[r]:self._indptr_list[r + 1]
                    ],
                    self._data_list[
                        self._indptr_list[r]:self._indptr_list[r + 1]
                    ],
                )
            )
            for r in range(num_rows)
        ]
        self._u: List[float] = [0.0] * num_rows
        self._v: List[float] = [0.0] * total_cols
        # match_of_col[j] = row matched to column j, -1 when free.
        self._match_of_col: List[int] = [-1] * total_cols
        self._solved = False
        # The solved optimum, filled in once by solve().
        self._row_to_col = np.full(num_rows, -1, dtype=np.int64)
        self._total = 0.0

    # ------------------------------------------------------------------
    # Edge lookup
    # ------------------------------------------------------------------
    def _edge_cost(self, row: int, column: int) -> float:
        """Cost of edge ``(row, column)``; dummies included.

        Raises :class:`MatchingError` when the pair is not an edge.
        """
        if not (0 <= row < self._num_rows):
            raise MatchingError(f"row {row} outside [0, {self._num_rows})")
        if self._dummy_cost is not None and column == self._num_cols + row:
            return self._dummy_cost
        position = self._edge_position(row, column)
        if position < 0:
            raise MatchingError(
                f"({row}, {column}) is not an edge of this instance"
            )
        return float(self._data[position])

    def _edge_position(self, row: int, column: int) -> int:
        """Index of edge ``(row, column)`` in the CSR arrays, or ``-1``."""
        start = int(self._indptr[row])
        end = int(self._indptr[row + 1])
        position = start + int(
            np.searchsorted(self._indices[start:end], column)
        )
        if position < end and int(self._indices[position]) == column:
            return position
        return -1

    # ------------------------------------------------------------------
    # Core shortest-augmenting-path search
    # ------------------------------------------------------------------
    def _dijkstra(
        self,
        row: int,
        forbidden: Optional[int],
        parent: Optional[List[int]],
    ) -> Tuple[float, int, int, List[int], List[float]]:
        """Shortest alternating path from ``row`` to any free column.

        Heap-ordered by ``(distance, column)`` — the dense solver's
        lowest-index-first ``argmin`` tie-break, without scanning
        columns the search never reaches.  Absolute reduced distances
        mirror the dense solver's expression ``(cost - v) - (u -
        path_len)`` so the two solvers compute the same distances
        whenever the arithmetic is exact.  Returns the same tuple as the dense
        ``_dijkstra``: ``(distance, free_col, pivots, retired_cols,
        retired_dist)``.
        """
        row_edges = self._row_edges
        u = self._u
        v = self._v
        num_cols = self._num_cols
        dummy_cost = self._dummy_cost
        match_of_col = self._match_of_col
        push = heapq.heappush
        pop = heapq.heappop
        shortest = [_INF] * self._total_cols
        visited = [False] * self._total_cols
        if forbidden is not None:
            visited[forbidden] = True

        heap: List[Tuple[float, int]] = []
        retired_cols: List[int] = []
        retired_dist: List[float] = []
        pivots = 0
        path_len = 0.0
        current_row = row
        previous_col = -1
        while True:
            pivots += 1
            # Relax every edge of the current row at the current
            # alternating-path length.
            offset = u[current_row] - path_len
            for col, cost in row_edges[current_row]:
                if visited[col]:
                    continue
                slack = (cost - v[col]) - offset
                if slack < shortest[col]:
                    shortest[col] = slack
                    if parent is not None:
                        parent[col] = previous_col
                    push(heap, (slack, col))
            if dummy_cost is not None:
                dummy = num_cols + current_row
                if not visited[dummy]:
                    slack = (dummy_cost - v[dummy]) - offset
                    if slack < shortest[dummy]:
                        shortest[dummy] = slack
                        if parent is not None:
                            parent[dummy] = previous_col
                        push(heap, (slack, dummy))
            while True:
                if not heap:
                    raise MatchingError(
                        "no augmenting path: the reduced problem has no "
                        "perfect row assignment"
                    )
                distance, col = pop(heap)
                if not visited[col] and distance <= shortest[col]:
                    break
            if match_of_col[col] == -1:
                return distance, col, pivots, retired_cols, retired_dist
            visited[col] = True
            retired_cols.append(col)
            retired_dist.append(distance)
            current_row = match_of_col[col]
            previous_col = col
            path_len = distance

    def _augment(self, row: int) -> int:
        """Insert ``row`` into the matching; one Dijkstra + one dual pass."""
        parent: List[int] = [-2] * self._total_cols
        min_val, free_col, pivots, retired_cols, retired_dist = (
            self._dijkstra(row, None, parent)
        )

        # Deferred dual update, identical to the dense solver's: one
        # pass over the Dijkstra tree, before the flip.
        self._u[row] += min_val
        match_of_col = self._match_of_col
        u = self._u
        v = self._v
        for col, distance in zip(retired_cols, retired_dist):
            delta = distance - min_val
            u[match_of_col[col]] -= delta
            v[col] += delta

        col = free_col
        while True:
            prev = parent[col]
            if prev == -1:
                match_of_col[col] = row
                break
            match_of_col[col] = match_of_col[prev]
            col = prev
        return pivots

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def solve(self) -> Tuple[np.ndarray, float]:
        """The optimal assignment: ``(row_to_col, total_cost)``.

        Cached after the first call.  Rows map to real columns or to
        their implicit dummy ``num_cols + row``.
        """
        if not self._solved:
            with obs.span(
                "matching.sparse.solve",
                rows=self._num_rows,
                cols=self._total_cols,
                edges=int(self._indices.shape[0]),
            ) as sp:
                pivots = 0
                for row in range(self._num_rows):
                    pivots += self._augment(row)
                self._solved = True
                costs: List[float] = []
                for col, row in enumerate(self._match_of_col):
                    if row >= 0:
                        self._row_to_col[row] = col
                        costs.append(self._edge_cost(row, col))
                if costs:
                    self._total = float(np.asarray(costs).sum())
                sp.set_attribute("pivots", pivots)
                obs.counter("matching.augmentations", self._num_rows)
                obs.counter("matching.pivots", pivots)
        return self._row_to_col.copy(), self._total

    # ------------------------------------------------------------------
    # Column-removal sensitivity (the VCG ``ω*(B₋ᵢ)`` query)
    # ------------------------------------------------------------------
    def matching_without_column(self, column: int) -> np.ndarray:
        """``row_to_col`` of the optimum with ``column`` removed.

        Warm-started repair: the cached dual potentials stay feasible on
        the reduced column set, so one parent-tracked heap Dijkstra from
        the displaced row finds the augmenting path, which is flipped on
        a copy (non-mutating; the removed column appears in no row's
        image).  The payment path prices the repaired matching from raw
        edge weights.
        """
        if not (0 <= column < self._total_cols):
            raise MatchingError(
                f"column {column} outside [0, {self._total_cols})"
            )
        if self._dummy_cost is None and self._num_rows >= self._num_cols:
            raise MatchingError(
                "cannot remove a column: every column is needed to match "
                "all rows (add dummy columns)"
            )
        assignment, _ = self.solve()
        displaced_row = int(self._match_of_col[column])
        if displaced_row == -1:
            return assignment
        with obs.span("matching.sparse.repair", column=column) as sp:
            parent: List[int] = [-2] * self._total_cols
            _, free_col, pivots, _, _ = self._dijkstra(
                displaced_row, column, parent
            )
            sp.set_attribute("pivots", pivots)
            obs.counter("matching.pivots", pivots)
            obs.counter("matching.warm_resolves")
        col = free_col
        while True:
            prev = parent[col]
            if prev == -1:
                assignment[displaced_row] = col
                break
            assignment[self._match_of_col[prev]] = col
            col = prev
        return assignment
