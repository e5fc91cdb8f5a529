"""Vectorised assignment solver with warm-started sensitivity queries.

The offline VCG mechanism needs one full optimum ``ω*(B)`` plus one
reduced optimum ``ω*(B₋ᵢ)`` *per winner*.  Re-solving from scratch per
winner costs ``O(n^4)`` overall; this solver instead:

* solves the full min-cost assignment once with a numpy-vectorised
  shortest-augmenting-path Hungarian (Jonker-Volgenant style
  potentials).  Dual updates are deferred: each augmentation runs one
  Dijkstra search over reduced costs and applies a *single* vectorised
  potential update at the end, instead of re-pricing the whole tree on
  every pivot.  Rows are inserted in index order with a
  lowest-index-first tie-break so the matching — ties included — is the
  same deterministic function of the matrix as the pure-Python
  reference solver.
* does as little numpy work per pivot as that search allows, without
  changing a pivot, an ``argmin`` or a float:

  - *Row classes.*  Rows with bit-identical costs (under one task value
    ``ν``, the tasks of one slot) share one row of ``cost - v``; dual
    updates subtract from whole columns, so they stay identical, and
    the update touches one row per class.
  - *Class skip.*  A tree row relaxes ``fl(C - a)`` into the frontier,
    ``a`` its offset.  Rounding is monotone, so ``fl(C - a) <= fl(C -
    b)`` whenever ``a >= b``: once a class was relaxed at an offset at
    least this row's, every open column already holds a value at or
    below this row's slack, and a strict-``<`` relax would change
    nothing.  Such a row skips its relax (it still counts as a pivot).
  - *Parents after the search.*  Under strict ``<`` a column's parent is
    the column retired just before the *first* tree row whose slack
    equals the column's final distance; a later equal slack never
    replaced it, and a skipped row cannot be first (its class's earlier
    row attains the same value).  :meth:`AssignmentSolver._path`
    recomputes the slacks with the search's expression, so equality is
    exact and ties resolve exactly as the per-pivot parent update did.
  - *Relax in three calls, no mask.*  ``slack = C - a``, then ``slack +=
    closed`` (``+inf`` on retired columns, ``-0.0`` on open ones, and
    ``x + -0.0 == x`` bit for bit), then ``minimum(slack, shortest)``,
    which keeps its second operand on ties as a strict ``<`` would.
* answers "the optimum without column ``j``" by *repairing* the cached
  optimum: the cached dual potentials remain feasible on the reduced
  column set, so one Dijkstra pass from the displaced row — with ``j``
  forbidden — finds the cheapest alternating path to a free column, and
  flipping it (on a copy) gives the reduced optimal matching.  No
  potentials are copied or updated.  Each repair is ``O(cols^2)``
  instead of a full solve; :meth:`matching_without_column` is the one
  repair query, and callers price the returned matching from their own
  weights.

Correctness of the repair is cross-checked against full re-solves by
the property tests in ``tests/matching/`` and
``tests/properties/test_warm_start_properties.py``.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.errors import MatchingError
from repro.matching.hungarian import MatchingResult, _validate_matrix

_INF = float("inf")


class _Search(NamedTuple):
    """One Dijkstra pass: where it ended and the columns it retired.

    ``distance`` is the shortest reduced distance from ``root`` to the
    free column ``free_col``.  ``retired_cols[t]`` left the frontier at
    distance ``retired_dist[t]`` and brought its matched row into the
    tree, so the tree rows are ``root`` followed by the rows matched to
    ``retired_cols``: one per pivot.
    """

    root: int
    distance: float
    free_col: int
    retired_cols: List[int]
    retired_dist: List[float]

    @property
    def pivots(self) -> int:
        """Tree-growth iterations: one per tree row."""
        return len(self.retired_cols) + 1


class AssignmentSolver:
    """Minimum-cost assignment of ``n`` rows to ``m >= n`` columns.

    Every row is matched to a distinct column (callers model optional
    rows by adding dummy columns).  The matrix is copied; apart from
    lazy solving the solver is immutable after construction.
    """

    def __init__(self, cost: np.ndarray) -> None:
        matrix = np.asarray(cost, dtype=float)
        if matrix.ndim != 2:
            raise MatchingError(
                f"cost must be a 2-D matrix, got ndim={matrix.ndim}"
            )
        if not np.all(np.isfinite(matrix)):
            raise MatchingError("cost matrix entries must be finite")
        num_rows, num_cols = matrix.shape
        if num_rows > num_cols:
            raise MatchingError(
                f"AssignmentSolver requires rows <= cols, got "
                f"{num_rows} x {num_cols}"
            )
        self._cost = matrix.copy()
        self._num_rows = num_rows
        self._num_cols = num_cols
        self._solved = False
        # Rows of one class share one row of ``cost - v`` (dual updates
        # subtract from whole columns, so they stay identical).
        self._row_class = self._cost_classes(self._cost)
        class_first_row = np.unique(self._row_class, return_index=True)[1]
        # ``cost - v`` per class, maintained incrementally: the Dijkstra
        # hot loop reads one row of it per pivot instead of recombining
        # ``cost``/``v`` arrays every time.
        self._cost_minus_v = self._cost[class_first_row]
        self._class_rows = list(self._cost_minus_v)
        # Row potentials and the matching are Python lists: the hot loop
        # reads them one scalar at a time.
        self._u: List[float] = [0.0] * num_rows
        self._v = np.zeros(num_cols)
        # match_of_col[j] = row matched to column j, -1 when free.
        self._match_of_col: List[int] = [-1] * num_cols
        # The solved optimum, filled in once by solve().
        self._row_to_col = np.full(num_rows, -1, dtype=np.int64)
        self._total = 0.0
        # Scratch buffers reused by every Dijkstra pass.
        self._shortest = np.empty(num_cols)
        self._closed = np.empty(num_cols)
        self._slack = np.empty(num_cols)

    @staticmethod
    def _cost_classes(cost: np.ndarray) -> List[int]:
        """Each row's class: rows with bit-identical costs share one.

        Classes are numbered ``0, 1, ...`` by first occurrence.
        """
        class_of: Dict[bytes, int] = {}
        return [
            class_of.setdefault(cost_row.tobytes(), len(class_of))
            for cost_row in cost
        ]

    # ------------------------------------------------------------------
    # Core shortest-augmenting-path search
    # ------------------------------------------------------------------
    def _dijkstra(self, row: int, forbidden: Optional[int]) -> _Search:
        """Shortest alternating path from ``row`` to any free column.

        Runs over reduced costs ``cost[i][j] - u[i] - v[j]`` without
        touching any solver state.  ``forbidden`` excludes one column
        entirely (treated as already retired).  Each pivot relaxes its
        tree row's slack ``cost_minus_v[class] - (u[row] - k)``, where
        ``k`` is the distance of the column that brought the row into
        the tree, unless a row of the same class was already relaxed in
        this search at an offset ``>=`` its own.  No parent pointers are
        kept; :meth:`_path` recovers them from the returned tree.
        """
        class_rows = self._class_rows
        row_class = self._row_class
        u = self._u
        match_of_col = self._match_of_col

        # ``shortest`` doubles as the frontier: retired columns are set
        # to +inf so a plain argmin always yields the nearest open one.
        # ``closed`` is +inf on retired columns and -0.0 on open ones;
        # adding it to a slack keeps retired columns out of the frontier
        # and leaves open ones bit for bit (``x + -0.0 == x``, zero sign
        # included), which is cheaper than a masked ``where=`` ufunc.
        shortest = self._shortest
        closed = self._closed
        slack = self._slack
        shortest.fill(_INF)
        closed.fill(-0.0)
        if forbidden is not None:
            closed[forbidden] = _INF
        subtract = np.subtract
        add = np.add
        minimum = np.minimum

        # The largest offset each class was relaxed at in this search.
        relaxed = [-_INF] * len(class_rows)
        retired_cols: List[int] = []
        retired_dist: List[float] = []
        min_val = 0.0
        current_row = row
        while True:
            offset = u[current_row] - min_val
            row_cls = row_class[current_row]
            # ``fl(C - a) <= fl(C - b)`` whenever ``a >= b``: a class
            # already relaxed at a larger offset holds every open column
            # at or below this row's slack, so the relax is skipped.
            if offset > relaxed[row_cls]:
                relaxed[row_cls] = offset
                subtract(class_rows[row_cls], offset, out=slack)
                add(slack, closed, out=slack)
                # ``minimum`` keeps its second operand on ties, so an
                # equal slack leaves the frontier value (and its zero
                # sign) as a strict ``<`` update would.
                minimum(slack, shortest, out=shortest)

            next_col = int(shortest.argmin())
            min_val = shortest.item(next_col)
            if min_val == _INF:
                raise MatchingError(
                    "no augmenting path: the reduced problem has no "
                    "perfect row assignment"
                )
            current_row = match_of_col[next_col]
            if current_row == -1:
                return _Search(
                    row, min_val, next_col, retired_cols, retired_dist
                )
            closed[next_col] = _INF
            shortest[next_col] = _INF
            retired_cols.append(next_col)
            retired_dist.append(min_val)

    def _path(self, search: _Search) -> List[int]:
        """The augmenting path's columns, from the free column to the root's.

        A column's parent is the column retired just before the *first*
        tree row whose slack equals the column's final distance: the
        search's strict-improvement rule never let a later equal slack
        replace it.  Some row before the column's retirement attains
        that distance, so the scan stops in time, and the slacks are
        recomputed with the search's own expression, so the comparison
        is exact.  Paths are short and their parents early in the tree,
        so the scan is scalar.  Must run before the dual update changes
        ``u`` and ``cost_minus_v``.
        """
        class_rows = self._class_rows
        row_class = self._row_class
        u = self._u
        match_of_col = self._match_of_col
        retired_cols = search.retired_cols
        retired_dist = search.retired_dist
        col = search.free_col
        distance = search.distance
        path = [col]
        while True:
            row, entry, tree_row = search.root, 0.0, 0
            while (
                class_rows[row_class[row]].item(col) - (u[row] - entry)
                != distance
            ):
                row = match_of_col[retired_cols[tree_row]]
                entry = retired_dist[tree_row]
                tree_row += 1
            if tree_row == 0:
                return path
            col = retired_cols[tree_row - 1]
            distance = retired_dist[tree_row - 1]
            path.append(col)

    def _augment(self, row: int) -> int:
        """Insert ``row`` into the matching; one Dijkstra + one dual pass.

        Returns the number of tree-growth iterations (pivots) the search
        needed — the telemetry layer's unit of matching work.
        """
        search = self._dijkstra(row, None)
        path = self._path(search)
        u = self._u
        match_of_col = self._match_of_col

        # Deferred dual update: one vectorised pass over the tree.  Must
        # run before the flip (it reads the pre-augmentation matching).
        # ``cost_minus_v`` holds one row per class, not per row.
        min_val = search.distance
        u[row] += min_val
        if search.retired_cols:
            cols = np.array(search.retired_cols, dtype=np.int64)
            delta = np.array(search.retired_dist) - min_val
            for col, step in zip(search.retired_cols, delta.tolist()):
                u[match_of_col[col]] -= step
            self._v[cols] += delta
            self._cost_minus_v[:, cols] -= delta

        # Flip matched edges along the path back to the root.
        for col, prev in zip(path, path[1:]):
            match_of_col[col] = match_of_col[prev]
        match_of_col[path[-1]] = row
        return search.pivots

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def solve(self) -> Tuple[np.ndarray, float]:
        """The optimal assignment: ``(row_to_col, total_cost)``.

        ``row_to_col[i]`` is the column matched to row ``i``.  Cached
        after the first call.
        """
        if not self._solved:
            with obs.span(
                "matching.solver.solve",
                rows=self._num_rows,
                cols=self._num_cols,
            ) as sp:
                # Rows are inserted in index order with the same
                # nearest-column-first tie-break at every pivot, so the
                # matching (ties included) is a deterministic function
                # of the matrix alone — mechanisms rely on that.
                pivots = 0
                for row in range(self._num_rows):
                    pivots += self._augment(row)
                self._solved = True
                match_of_col = np.asarray(self._match_of_col)
                cols = np.nonzero(match_of_col >= 0)[0]
                rows = match_of_col[cols]
                self._total = float(self._cost[rows, cols].sum())
                self._row_to_col[rows] = cols
                sp.set_attribute("pivots", pivots)
                obs.counter("matching.augmentations", self._num_rows)
                obs.counter("matching.pivots", pivots)
        return self._row_to_col.copy(), self._total

    def matching_without_column(self, column: int) -> np.ndarray:
        """``row_to_col`` of the optimum with ``column`` removed.

        One warm-started Dijkstra from the row displaced from
        ``column`` (see the module docstring); its augmenting path is
        flipped on a copy, so the solver's own state is untouched and
        the removed column appears in no row's image.  The payment path
        prices the repaired matching from raw edge weights.
        """
        if not (0 <= column < self._num_cols):
            raise MatchingError(
                f"column {column} outside [0, {self._num_cols})"
            )
        if self._num_rows >= self._num_cols:
            raise MatchingError(
                "cannot remove a column: every column is needed to match "
                "all rows (add dummy columns)"
            )
        assignment, _ = self.solve()
        displaced_row = self._match_of_col[column]
        if displaced_row == -1:
            return assignment
        with obs.span("matching.solver.repair", column=column) as sp:
            search = self._dijkstra(displaced_row, column)
            path = self._path(search)
            pivots = search.pivots
            sp.set_attribute("pivots", pivots)
            obs.counter("matching.pivots", pivots)
            obs.counter("matching.warm_resolves")
        for col, prev in zip(path, path[1:]):
            assignment[self._match_of_col[prev]] = col
        assignment[displaced_row] = path[-1]
        return assignment


def padded_cost(weights: np.ndarray) -> np.ndarray:
    """The min-cost form of a max-weight matrix, with one dummy per row.

    Negative weights are clamped to zero (leaving the pair unmatched is
    never worse), each row gets a private zero-weight dummy column so a
    perfect row assignment always exists, and maximisation becomes
    minimisation against the largest clamped entry.
    """
    clamped = np.maximum(weights, 0.0)
    max_entry = float(clamped.max())
    num_rows, num_cols = clamped.shape
    cost = np.full((num_rows, num_cols + num_rows), max_entry)
    cost[:, :num_cols] = max_entry - clamped
    return cost


def max_weight_matching(
    weights: Union[Sequence[Sequence[float]], np.ndarray],
) -> MatchingResult:
    """Maximum-weight bipartite matching with optional participation.

    ``weights[i][j]`` (a nested sequence or a 2-D array) is the gain from
    matching row ``i`` to column ``j``.  Entries ``<= 0`` are treated as
    "matching is never beneficial" and are never part of the returned
    matching — equivalently, every vertex may stay unmatched at gain
    zero.  This matches the paper's graph where an
    edge between task ``τ_{j,k}`` and an *inactive* smartphone has weight
    zero and a winning assignment contributes ``ν − b_i``.

    The matrix goes through :func:`padded_cost` and one dense
    :class:`AssignmentSolver` solve; matches whose weight is not strictly
    positive are then discarded.  The total sums the kept weights in row
    order.  :func:`~repro.matching.hungarian.solve_assignment_min` on the
    same padded matrix returns the same matching, ties included.
    """
    num_rows, num_cols = _validate_matrix(weights)
    if num_rows == 0 or num_cols == 0:
        return MatchingResult(pairs=(), total_weight=0.0)
    dense = np.asarray(weights, dtype=float)
    assignment, _ = AssignmentSolver(padded_cost(dense)).solve()
    pairs = []
    total = 0.0
    for row, col in enumerate(assignment.tolist()):
        if col < num_cols and dense[row, col] > 0.0:
            pairs.append((row, col))
            total += float(dense[row, col])
    return MatchingResult(pairs=tuple(pairs), total_weight=total)
