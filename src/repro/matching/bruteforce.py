"""Exhaustive maximum-weight matching for cross-checking.

Enumerates, row by row, every way of matching each row to an unused column
or leaving it unmatched, keeping the best total.  Exponential — intended
only for test instances with at most ~10 rows, where it provides ground
truth for the Hungarian implementation.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import MatchingError
from repro.matching.hungarian import MatchingResult, _validate_matrix

_MAX_BRUTE_FORCE_ROWS = 12


def brute_force_max_weight_matching(
    weights: Sequence[Sequence[float]],
) -> MatchingResult:
    """Exact maximum-weight matching by exhaustive search.

    Semantics match :func:`repro.matching.solver.max_weight_matching`:
    entries ``<= 0`` are never matched and every vertex may stay
    unmatched.  Raises :class:`~repro.errors.MatchingError` for instances
    with more than 12 rows (the search is exponential).
    """
    num_rows, num_cols = _validate_matrix(weights)
    if num_rows > _MAX_BRUTE_FORCE_ROWS:
        raise MatchingError(
            f"brute force limited to {_MAX_BRUTE_FORCE_ROWS} rows, "
            f"got {num_rows}"
        )
    if num_rows == 0 or num_cols == 0:
        return MatchingResult(pairs=(), total_weight=0.0)

    best_total = 0.0
    best_pairs: Tuple[Tuple[int, int], ...] = ()
    used_cols = [False] * num_cols
    chosen: List[Tuple[int, int]] = []

    def recurse(row: int, total: float) -> None:
        nonlocal best_total, best_pairs
        if row == num_rows:
            if total > best_total:
                best_total = total
                best_pairs = tuple(chosen)
            return
        # Option 1: leave this row unmatched.
        recurse(row + 1, total)
        # Option 2: match it to any unused, strictly beneficial column.
        for col in range(num_cols):
            if used_cols[col] or weights[row][col] <= 0.0:
                continue
            used_cols[col] = True
            chosen.append((row, col))
            recurse(row + 1, total + weights[row][col])
            chosen.pop()
            used_cols[col] = False

    recurse(0, 0.0)
    return MatchingResult(pairs=best_pairs, total_weight=best_total)
