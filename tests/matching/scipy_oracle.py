"""scipy as an independent matching oracle for the cross-engine suites.

Wraps :func:`scipy.sparse.csgraph.min_weight_full_bipartite_matching`
behind the same CSR-with-implicit-dummies contract the production
:class:`~repro.matching.sparse.SparseAssignmentSolver` uses, so a test
can solve one instance with an implementation that shares no code with
the in-house engines.

scipy is a test dependency only (the ``dev`` extra).  Importing this
module never imports scipy; :func:`solve_csr_min_weight` calls
``pytest.importorskip``, so a test that reaches it is skipped when scipy
is missing.

Two caveats of the scipy routine are handled here:

* it cannot distinguish an explicit zero-cost edge from a missing one,
  so every stored cost is shifted by ``+1.0`` — a constant per matched
  row that changes every perfect assignment's total by exactly
  ``num_rows`` and therefore neither the argmin nor its tie structure;
* it requires a perfect matching on the row side, which the appended
  per-row dummy columns guarantee.

scipy breaks ties differently from the in-house solvers, so it is a
*welfare* oracle: equal optimal value, possibly a different optimal
matching when the optimum is not unique.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import pytest

from repro.errors import MatchingError

#: Constant added to every stored cost so scipy never sees an explicit
#: zero entry (see the module docstring).
_ZERO_SHIFT = 1.0


def csr_from_dense(
    matrix: np.ndarray,
    keep: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR arrays ``(indptr, indices, data)`` from a dense matrix.

    ``keep`` optionally masks which entries become edges (default: all
    of them).
    """
    dense = np.asarray(matrix, dtype=float)
    if dense.ndim != 2:
        raise MatchingError(f"matrix must be 2-D, got ndim={dense.ndim}")
    mask = (
        np.ones(dense.shape, dtype=bool)
        if keep is None
        else np.asarray(keep, dtype=bool)
    )
    if mask.shape != dense.shape:
        raise MatchingError("keep mask must match the matrix shape")
    rows, cols = np.nonzero(mask)
    indptr = np.zeros(dense.shape[0] + 1, dtype=np.int64)
    np.add.at(indptr, rows + 1, 1)
    indptr = np.cumsum(indptr)
    return indptr, cols.astype(np.int64), dense[rows, cols]


def min_cost_csr(
    weights: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The CSR min-cost form of a max-weight matrix.

    ``(indptr, indices, data, dummy_cost)``: the profitable entries
    only, priced against the largest one, with the per-row dummies left
    implicit at ``dummy_cost`` — the graph's sparse-engine contract.
    """
    clamped = np.maximum(np.asarray(weights, dtype=float), 0.0)
    max_entry = float(clamped.max())
    indptr, indices, data = csr_from_dense(
        max_entry - clamped, keep=clamped > 0.0
    )
    return indptr, indices, data, max_entry


def solve_csr_min_weight(
    num_rows: int,
    num_cols: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    dummy_cost: Optional[float] = None,
) -> np.ndarray:
    """Min-cost assignment of the CSR instance via scipy.

    Same edge contract as :class:`SparseAssignmentSolver`: row ``r``
    optionally owns the implicit dummy column ``num_cols + r`` at
    ``dummy_cost``.  Returns ``row -> col`` (dummy columns included in
    the image).  Raises :class:`MatchingError` when the instance is
    infeasible.
    """
    sparse = pytest.importorskip("scipy.sparse")
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    data = np.asarray(data, dtype=float)
    if num_rows == 0:
        return np.empty(0, dtype=np.int64)

    if dummy_cost is None:
        total_cols = num_cols
        full_indptr = indptr
        full_indices = indices
        full_data = data + _ZERO_SHIFT
    else:
        # Append each row's dummy edge at the end of its CSR slice (the
        # dummy has the largest column index of the row, so sortedness
        # is preserved).
        total_cols = num_cols + num_rows
        counts = np.diff(indptr)
        full_indptr = np.concatenate(
            [[0], np.cumsum(counts + 1)]
        ).astype(np.int64)
        nnz = int(indices.shape[0]) + num_rows
        full_indices = np.empty(nnz, dtype=np.int64)
        full_data = np.empty(nnz)
        for row in range(num_rows):
            start, end = int(indptr[row]), int(indptr[row + 1])
            out = int(full_indptr[row])
            width = end - start
            full_indices[out : out + width] = indices[start:end]
            full_data[out : out + width] = data[start:end] + _ZERO_SHIFT
            full_indices[out + width] = num_cols + row
            full_data[out + width] = dummy_cost + _ZERO_SHIFT

    biadjacency = sparse.csr_matrix(
        (full_data, full_indices, full_indptr),
        shape=(num_rows, total_cols),
    )
    try:
        row_ind, col_ind = csgraph.min_weight_full_bipartite_matching(
            biadjacency
        )
    except ValueError as exc:
        raise MatchingError(
            f"scipy found no perfect row assignment: {exc}"
        ) from exc
    row_to_col = np.full(num_rows, -1, dtype=np.int64)
    row_to_col[row_ind] = col_ind
    return row_to_col
