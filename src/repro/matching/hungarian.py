"""The Hungarian algorithm: the reference assignment solver.

This is a from-scratch implementation of the ``O(n^3)`` Hungarian
(Kuhn-Munkres) algorithm in its potentials-and-slack form (Edmonds-Karp /
Tomizawa improvement — the same complexity the paper cites for its offline
winning-bid determination, Theorem 3).

It is the reference that can be audited against the paper, not a
production path: :func:`solve_assignment_min` is the classic primitive —
given an ``n x m`` cost matrix with ``n <= m``, find a minimum-cost
assignment matching every row to a distinct column — and the
cross-engine suites hold the vectorised
:class:`~repro.matching.solver.AssignmentSolver` to it, ties included.
The module imports no production solver.  :class:`MatchingResult` is the
result type of the max-weight entry points
(:func:`~repro.matching.solver.max_weight_matching` and the brute-force
oracle).
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.errors import MatchingError

_INF = float("inf")


def _validate_matrix(
    matrix: Union[Sequence[Sequence[float]], np.ndarray],
) -> Tuple[int, int]:
    """Check rectangularity and finiteness; return ``(rows, cols)``.

    The length scan is a cheap ``O(rows)`` Python loop; the finiteness
    check — the part that used to visit every entry in Python and runs
    on every solve, payment re-solves included — is vectorised.
    """
    num_rows = len(matrix)
    if num_rows == 0:
        return 0, 0
    num_cols = len(matrix[0])
    for row_index, row in enumerate(matrix):
        if len(row) != num_cols:
            raise MatchingError(
                f"matrix is ragged: row 0 has {num_cols} entries, row "
                f"{row_index} has {len(row)}"
            )
    finite = np.isfinite(np.asarray(matrix, dtype=float))
    if not finite.all():
        row_index, col_index = (int(k) for k in np.argwhere(~finite)[0])
        value = matrix[row_index][col_index]
        raise MatchingError(
            f"matrix entries must be finite, found {value!r} in "
            f"row {row_index}"
        )
    return num_rows, num_cols


def solve_assignment_min(
    cost: Sequence[Sequence[float]],
) -> Tuple[List[int], float]:
    """Minimum-cost assignment for an ``n x m`` matrix with ``n <= m``.

    Returns ``(assignment, total)`` where ``assignment[i]`` is the column
    matched to row ``i`` and ``total`` is the summed cost.  Every row is
    matched (callers wanting optional rows add dummy columns).

    Implementation: the standard shortest-augmenting-path formulation with
    row potentials ``u``, column potentials ``v`` and per-column slack,
    giving ``O(n^2 m)`` time.
    """
    num_rows, num_cols = _validate_matrix(cost)
    if num_rows == 0:
        return [], 0.0
    if num_rows > num_cols:
        raise MatchingError(
            f"solve_assignment_min requires rows <= cols, got "
            f"{num_rows} x {num_cols}"
        )

    # 1-based arrays in the classic formulation; index 0 is a sentinel.
    u = [0.0] * (num_rows + 1)
    v = [0.0] * (num_cols + 1)
    match_of_col = [0] * (num_cols + 1)  # row currently matched to column j
    way = [0] * (num_cols + 1)  # predecessor column on the alternating path

    with obs.span(
        "matching.hungarian.solve", rows=num_rows, cols=num_cols
    ) as tel:
        pivots = 0
        for row in range(1, num_rows + 1):
            match_of_col[0] = row
            current_col = 0
            min_slack = [_INF] * (num_cols + 1)
            used = [False] * (num_cols + 1)
            while True:
                pivots += 1
                used[current_col] = True
                current_row = match_of_col[current_col]
                delta = _INF
                next_col = 0
                for col in range(1, num_cols + 1):
                    if used[col]:
                        continue
                    reduced = (
                        cost[current_row - 1][col - 1] - u[current_row] - v[col]
                    )
                    if reduced < min_slack[col]:
                        min_slack[col] = reduced
                        way[col] = current_col
                    if min_slack[col] < delta:
                        delta = min_slack[col]
                        next_col = col
                for col in range(num_cols + 1):
                    if used[col]:
                        u[match_of_col[col]] += delta
                        v[col] -= delta
                    else:
                        min_slack[col] -= delta
                current_col = next_col
                if match_of_col[current_col] == 0:
                    break
            # Unwind the alternating path, flipping matched edges.
            while current_col:
                previous_col = way[current_col]
                match_of_col[current_col] = match_of_col[previous_col]
                current_col = previous_col
        tel.set_attribute("pivots", pivots)
        obs.counter("matching.pivots", pivots)

    assignment = [-1] * num_rows
    total = 0.0
    for col in range(1, num_cols + 1):
        row = match_of_col[col]
        if row:
            assignment[row - 1] = col - 1
            total += cost[row - 1][col - 1]
    return assignment, total


@dataclasses.dataclass(frozen=True)
class MatchingResult:
    """Result of a maximum-weight matching computation.

    Attributes
    ----------
    pairs:
        Matched ``(row, col)`` pairs with strictly positive weight,
        sorted by row.
    total_weight:
        Sum of the weights of ``pairs``.
    """

    pairs: Tuple[Tuple[int, int], ...]
    total_weight: float
