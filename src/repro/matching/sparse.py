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

The public API mirrors :class:`AssignmentSolver` — ``solve``,
``row_to_col``, ``total_cost``, the warm-started repair queries
``total_cost_without_column`` / ``matching_without_column``, and the
row-removal family ``total_cost_without_row`` / ``resolve_without_row``
/ ``delete_row`` — so :class:`~repro.matching.graph.TaskAssignmentGraph`
runs its payment paths unchanged on whichever engine it picked.

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
        self._row_deleted = np.zeros(num_rows, dtype=bool)
        self._num_active_rows = num_rows
        self._duals_stale = False
        self._solved = False
        self._total: Optional[float] = None
        self._row_to_col_cache: Optional[np.ndarray] = None
        # Column-major view, built lazily for row-removal chain searches.
        self._csc_indptr_list: Optional[List[int]] = None
        self._csc_rows_list: Optional[List[int]] = None
        self._csc_data_list: Optional[List[float]] = None

    # ------------------------------------------------------------------
    # Structure accessors
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        """``(rows, cols)`` counting the implicit dummy columns."""
        return self._num_rows, self._total_cols

    @property
    def num_real_cols(self) -> int:
        """Real columns (excluding the implicit per-row dummies)."""
        return self._num_cols

    @property
    def num_edges(self) -> int:
        """Stored edges (dummies excluded)."""
        return int(self._indices.shape[0])

    @property
    def num_active_rows(self) -> int:
        """Rows still present (total rows minus :meth:`delete_row` calls)."""
        return self._num_active_rows

    def edge_cost(self, row: int, column: int) -> float:
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

        Cached after the first call.  Rows map to real columns, their
        implicit dummy, or ``-1`` when deleted.
        """
        if not self._solved:
            with obs.span(
                "matching.sparse.solve",
                rows=self._num_rows,
                cols=self._total_cols,
                edges=self.num_edges,
            ) as sp:
                pivots = 0
                for row in range(self._num_rows):
                    if not self._row_deleted[row]:
                        pivots += self._augment(row)
                self._solved = True
                self._total = self._matched_cost()
                sp.set_attribute("pivots", pivots)
                obs.counter(
                    "matching.augmentations", self._num_active_rows
                )
                obs.counter("matching.pivots", pivots)
        return self.row_to_col(), self.total_cost()

    def _matched_cost(self) -> float:
        """Total cost of the stored matching, recomputed from the edges."""
        costs = [
            self.edge_cost(row, col)
            for col, row in enumerate(self._match_of_col)
            if row >= 0
        ]
        if not costs:
            return 0.0
        return float(np.asarray(costs).sum())

    def row_to_col(self) -> np.ndarray:
        """The cached assignment as ``row -> col`` (solves if needed).

        Deleted rows map to ``-1``; rows parked on their implicit dummy
        map to ``num_real_cols + row``.
        """
        if not self._solved:
            self.solve()
        if self._row_to_col_cache is None:
            row_to_col = np.full(self._num_rows, -1, dtype=np.int64)
            for col, row in enumerate(self._match_of_col):
                if row >= 0:
                    row_to_col[row] = col
            self._row_to_col_cache = row_to_col
        return self._row_to_col_cache.copy()

    def total_cost(self) -> float:
        """Total cost of the cached optimum (solves if needed)."""
        if not self._solved:
            self.solve()
        assert self._total is not None
        return self._total

    # ------------------------------------------------------------------
    # Column-removal sensitivity (the VCG ``ω*(B₋ᵢ)`` query)
    # ------------------------------------------------------------------
    def _check_column(self, column: int) -> None:
        if not (0 <= column < self._total_cols):
            raise MatchingError(
                f"column {column} outside [0, {self._total_cols})"
            )
        if self._dummy_cost is None and (
            self._num_active_rows >= self._num_cols
        ):
            raise MatchingError(
                "cannot remove a column: every column is needed to match "
                "all rows (add dummy columns)"
            )

    def total_cost_without_column(self, column: int) -> float:
        """Optimal total cost when ``column`` is removed.

        Distance-only warm-started repair: the cached dual potentials
        stay feasible on the reduced column set, so one heap Dijkstra
        from the displaced row prices the repair exactly.  The solver's
        own state is untouched.
        """
        self._check_column(column)
        if not self._solved:
            self.solve()
        self._refresh_duals()
        displaced_row = int(self._match_of_col[column])
        if displaced_row == -1:
            return self.total_cost()
        with obs.span("matching.sparse.repair", column=column) as sp:
            distance, free_col, pivots, _, _ = self._dijkstra(
                displaced_row, column, None
            )
            sp.set_attribute("pivots", pivots)
            obs.counter("matching.pivots", pivots)
            obs.counter("matching.warm_resolves")
            return float(
                self.total_cost()
                - self.edge_cost(displaced_row, column)
                + distance
                + self._u[displaced_row]
                + self._v[free_col]
            )

    def matching_without_column(self, column: int) -> np.ndarray:
        """``row_to_col`` of the optimum with ``column`` removed.

        Same one-Dijkstra repair as :meth:`total_cost_without_column`
        but parent-tracked, so the repaired matching itself is returned
        (non-mutating; the removed column appears in no row's image).
        The payment path uses this to recompute reduced welfare from
        raw edge weights instead of from dual arithmetic.
        """
        self._check_column(column)
        if not self._solved:
            self.solve()
        self._refresh_duals()
        assignment = self.row_to_col()
        displaced_row = int(self._match_of_col[column])
        if displaced_row == -1:
            return assignment
        with obs.span(
            "matching.sparse.repair", column=column, matching=True
        ) as sp:
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

    # ------------------------------------------------------------------
    # Row-removal sensitivity
    # ------------------------------------------------------------------
    def _check_row(self, row: int) -> None:
        if not (0 <= row < self._num_rows):
            raise MatchingError(f"row {row} outside [0, {self._num_rows})")
        if self._row_deleted[row]:
            raise MatchingError(f"row {row} was already deleted")

    def _refresh_duals(self) -> None:
        """Re-solve from scratch when :meth:`delete_row` left duals stale."""
        if not self._duals_stale:
            return
        self._u = [0.0] * self._num_rows
        self._v = [0.0] * self._total_cols
        self._match_of_col = [-1] * self._total_cols
        self._row_to_col_cache = None
        self._total = None
        self._solved = False
        self._duals_stale = False
        self.solve()

    def _ensure_csc(self) -> None:
        """Build the column-major edge view (movers-into-a-hole lookups)."""
        if self._csc_indptr_list is not None:
            return
        rows = np.repeat(
            np.arange(self._num_rows, dtype=np.int64),
            np.diff(self._indptr),
        )
        order = np.lexsort((rows, self._indices))
        csc_cols = self._indices[order]
        self._csc_rows_list = rows[order].tolist()
        self._csc_data_list = self._data[order].tolist()
        self._csc_indptr_list = (
            np.searchsorted(csc_cols, np.arange(self._num_cols + 1))
            .astype(np.int64)
            .tolist()
        )

    def _row_removal_search(
        self, row: int, column: int
    ) -> Tuple[float, int, List[int], List[int], int]:
        """Cheapest reassignment chain into the column freed by ``row``.

        The sparse mirror of the dense hole-Dijkstra: from a real hole
        ``h`` the candidate movers are the rows adjacent to ``h`` in the
        column-major view; from a dummy hole only its owning row can
        move in.  Terminal credit and the telescoped improvement are
        identical to the dense derivation.
        """
        self._ensure_csc()
        csc_indptr = self._csc_indptr_list
        csc_rows = self._csc_rows_list
        csc_data = self._csc_data_list
        assert csc_indptr is not None
        assert csc_rows is not None
        assert csc_data is not None
        u = self._u
        v = self._v
        row_to_col: List[int] = self.row_to_col().tolist()

        dist = [_INF] * self._total_cols
        dist[column] = 0.0
        visited = [False] * self._total_cols
        parent_row = [-1] * self._total_cols
        parent_hole = [-1] * self._total_cols

        heap: List[Tuple[float, int]] = [(0.0, column)]
        best = _INF
        best_col = column
        pivots = 0
        while heap:
            hole_dist, hole = heapq.heappop(heap)
            if visited[hole] or hole_dist > dist[hole]:
                continue
            # Unexplored chains cost at least ``hole_dist`` and end with
            # a credit ``-v >= 0``, so none can beat ``best`` any more.
            if hole_dist >= best:
                break
            pivots += 1
            visited[hole] = True
            ending_here = hole_dist - v[hole]
            if ending_here < best:
                best = ending_here
                best_col = hole
            if hole < self._num_cols:
                v_hole = v[hole]
                for position in range(
                    csc_indptr[hole], csc_indptr[hole + 1]
                ):
                    mover = csc_rows[position]
                    if mover == row:
                        continue
                    target = row_to_col[mover]
                    if target < 0 or visited[target]:
                        continue
                    candidate = hole_dist + (
                        (csc_data[position] - v_hole) - u[mover]
                    )
                    if candidate < dist[target]:
                        dist[target] = candidate
                        parent_row[target] = mover
                        parent_hole[target] = hole
                        heapq.heappush(heap, (candidate, target))
            else:
                assert self._dummy_cost is not None
                mover = hole - self._num_cols
                if mover == row or self._row_deleted[mover]:
                    continue
                target = row_to_col[mover]
                if target < 0 or target == hole or visited[target]:
                    continue
                candidate = hole_dist + (
                    (self._dummy_cost - v[hole]) - u[mover]
                )
                if candidate < dist[target]:
                    dist[target] = candidate
                    parent_row[target] = mover
                    parent_hole[target] = hole
                    heapq.heappush(heap, (candidate, target))
        improvement = min(v[column] + best, 0.0)
        return improvement, best_col, parent_row, parent_hole, pivots

    def _removal_plan(
        self, row: int
    ) -> Tuple[int, float, int, List[int], List[int]]:
        """Shared front half of the row-removal queries."""
        self._check_row(row)
        if not self._solved:
            self.solve()
        self._refresh_duals()
        column = int(self.row_to_col()[row])
        if column < 0:
            empty: List[int] = []
            return column, 0.0, column, empty, empty
        with obs.span("matching.sparse.row_removal", row=row) as sp:
            improvement, end_col, parent_row, parent_hole, pivots = (
                self._row_removal_search(row, column)
            )
            sp.set_attribute("pivots", pivots)
            obs.counter("matching.pivots", pivots)
            obs.counter("matching.warm_resolves")
        return column, improvement, end_col, parent_row, parent_hole

    def total_cost_without_row(self, row: int) -> float:
        """Optimal total cost when ``row`` is removed (non-mutating)."""
        column, improvement, _, _, _ = self._removal_plan(row)
        if column < 0:
            return self.total_cost()
        return float(
            self.total_cost() - self.edge_cost(row, column) + improvement
        )

    def resolve_without_row(self, row: int) -> Tuple[np.ndarray, float]:
        """``(row_to_col, total)`` of the optimum without ``row``."""
        column, improvement, end_col, parent_row, parent_hole = (
            self._removal_plan(row)
        )
        assignment = self.row_to_col()
        total = self.total_cost()
        assignment[row] = -1
        if column >= 0:
            total = total - self.edge_cost(row, column) + improvement
            current = end_col
            while current != column:
                mover = int(parent_row[current])
                assignment[mover] = int(parent_hole[current])
                current = int(parent_hole[current])
        return assignment, total

    def delete_row(self, row: int) -> float:
        """Remove ``row`` permanently; returns the new optimal total.

        Applies the repair chain to the stored matching (same dance as
        the dense solver); the chain's new edges are generally not
        tight under the old potentials, so the next dual-based repair
        triggers one fresh solve over the remaining rows first.
        """
        column, improvement, end_col, parent_row, parent_hole = (
            self._removal_plan(row)
        )
        if column >= 0:
            assert self._total is not None
            self._total = float(
                self._total - self.edge_cost(row, column) + improvement
            )
            self._match_of_col[end_col] = -1
            current = end_col
            while current != column:
                mover = parent_row[current]
                self._match_of_col[parent_hole[current]] = mover
                current = parent_hole[current]
            self._row_to_col_cache = None
            if end_col != column or self._v[column] != 0.0:
                self._duals_stale = True
        self._row_deleted[row] = True
        self._num_active_rows -= 1
        return self.total_cost()
