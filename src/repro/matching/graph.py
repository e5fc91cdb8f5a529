"""Building the task x smartphone weighted bipartite graph.

Section IV-B, "Transforming to matching problem": each task ``τ_{j,k}`` is
a vertex on one side, each smartphone ``i`` a vertex on the other; the edge
weight is ``ν − b_i`` when the smartphone's claimed window covers slot
``j`` and zero otherwise (Fig. 3 of the paper).

The graph is interval-structured — an edge (task, phone) exists only when
``ã_i ≤ slot ≤ d̃_i`` — so with short active windows it is overwhelmingly
sparse.  Construction therefore never materialises the dense
``tasks x bids`` matrix: the active pairs are collected directly from the
``(arrival, departure, slot)`` arrays into CSR form, one vectorised
active-bids scan per distinct slot, and any ``compatible`` callback is
evaluated on interval-active pairs only.  A dense matrix is materialised
lazily, and only for the dense engine and the :attr:`weights` accessor.

Both engines solve the same min-cost form: negative weights are clamped
to zero (equivalent to leaving the pair unmatched), a zero-weight dummy
column per task guarantees a feasible perfect row assignment, and
maximisation becomes minimisation against the maximum entry
(:func:`~repro.matching.solver.padded_cost` builds it for the dense
engine; the CSR engine keeps the dummies implicit).

VCG needs ``ω*(B₋ᵢ)`` for every winner.  When every task has the same
value ``ν`` (the paper's model) and no compatibility filter applies, an
edge's weight depends on the phone alone, so the matchable phone sets
form a transversal matroid, and
:meth:`TaskAssignmentGraph.welfare_without_each_winner` answers every
winner in one replacement pass over the solved allocation
(``docs/THEORY.md`` §2).  Heterogeneous task values and filtered graphs
keep the general path: on top of the cached full optimum each
``ω*(B₋ᵢ)`` is the solver's one-augmentation repair instead of a full
re-solve.  Both paths total gains as :func:`_sum_gains` does, so they
agree bit for bit where both apply.

Engine choice is a rule of the instance, not an option: the graph solves
on the CSR :class:`~repro.matching.sparse.SparseAssignmentSolver` when it
is both large (``tasks x bids >= SPARSE_MIN_CELLS``) and sparse (edge
density ``<= SPARSE_MAX_DENSITY``), and on the vectorised dense
:class:`~repro.matching.solver.AssignmentSolver` otherwise, so every
paper-scale round (``num_slots <= ~100``) solves dense.  On tied optima
the two engines may serve different tasks with the same phones: the
winner set, the claimed welfare (a sorted sum over the gain multiset)
and every VCG payment agree bit for bit, but the ``task -> phone`` map,
and so a real-cost welfare summed over it in allocation order, may not.
The rule is therefore part of every output digest.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import MatchingError
from repro.matching.solver import AssignmentSolver, padded_cost
from repro.matching.sparse import SparseAssignmentSolver
from repro.model.bid import Bid
from repro.model.task import SensingTask, TaskSchedule

#: The CSR engine solves only graphs of at least this many dense cells
#: (tasks x bids); below it the vectorised dense solver is already fast.
SPARSE_MIN_CELLS = 200_000

#: ... and only when the fraction of interval-active pairs is at most
#: this dense.  Above it the CSR adjacency stops paying for itself.
SPARSE_MAX_DENSITY = 0.25

#: Row blocks of the replacement pass's exchanged-gain sums stay under
#: this many cells (8 MB of float64).
_EXCHANGE_BLOCK_CELLS = 1 << 20


def _sum_gains(gains: np.ndarray) -> float:
    """Canonical welfare total: the positive gains summed in sorted order.

    The optimum of a round is often degenerate (equal task values make
    task-permutation ties), so the two engines may return different
    optimal matchings whose gain *multisets* coincide.  Summing the
    gains in sorted order makes the reported welfare — and therefore
    every VCG payment — a bit-identical function of that multiset,
    independent of which tied optimum an engine happened to find.
    """
    if not gains.size:
        return 0.0
    return float(np.sort(gains).sum())


def _sum_exchanged_gains(
    base: np.ndarray, drop: np.ndarray, added: Optional[np.ndarray]
) -> np.ndarray:
    """:func:`_sum_gains` of ``base`` less ``base[drop[k]]`` plus ``added[k]``.

    One total per ``k``; ``added=None`` removes without adding.
    ``base`` must be sorted.  The exchanged multisets are built as rows
    of a 2-D array, sorted row-wise and summed along the contiguous
    last axis, which numpy reduces with the same pairwise kernel as a
    1-D sum, so each total is bit-identical to :func:`_sum_gains` of
    its row.  Rows are built in blocks of at most
    :data:`_EXCHANGE_BLOCK_CELLS` cells to bound memory.
    """
    totals = np.empty(drop.size)
    step = max(1, _EXCHANGE_BLOCK_CELLS // max(base.size, 1))
    for start in range(0, drop.size, step):
        block = slice(start, start + step)
        count = drop[block].size
        rows = np.tile(base, (count, 1))
        if added is None:
            keep = np.ones(rows.shape, dtype=bool)
            keep[np.arange(count), drop[block]] = False
            rows = rows[keep].reshape(count, base.size - 1)
        else:
            rows[np.arange(count), drop[block]] = added[block]
            rows.sort(axis=1)
        totals[block] = rows.sum(axis=1)
    return totals


class TaskAssignmentGraph:
    """The weighted bipartite graph of one offline allocation instance.

    Rows are tasks (in schedule order), columns are bids (in phone-id
    order).  The weight follows the paper exactly:
    ``w[task][phone] = ν − b_i`` if the phone's claimed window contains the
    task's slot, else ``0``.  Active pairs with negative weight (claimed
    cost above the task value) are kept as stored edges so
    :meth:`weight` reports them; matching treats non-positive weights as
    "never match".
    """

    def __init__(
        self,
        schedule: TaskSchedule,
        bids: Sequence[Bid],
        compatible: Optional[Callable[[SensingTask, Bid], bool]] = None,
    ) -> None:
        """Build the graph.

        ``compatible`` optionally restricts edges beyond the time
        windows — e.g. sensing-capability constraints (the typed-task
        extension in :mod:`repro.extensions.capabilities`); it is
        evaluated only on interval-active pairs.
        """
        self._schedule = schedule
        ordered_bids = sorted(bids, key=lambda bid: bid.phone_id)
        seen = set()
        for bid in ordered_bids:
            if bid.phone_id in seen:
                raise MatchingError(f"duplicate bid for phone {bid.phone_id}")
            seen.add(bid.phone_id)
        self._bids: Tuple[Bid, ...] = tuple(ordered_bids)
        self._tasks: Tuple[SensingTask, ...] = schedule.tasks
        self._compatible = compatible
        self._col_by_phone: Dict[int, int] = {
            bid.phone_id: col for col, bid in enumerate(self._bids)
        }
        self._row_by_task: Dict[int, int] = {
            task.task_id: row for row, task in enumerate(self._tasks)
        }

        self._build_edges()
        cells = len(self._tasks) * len(self._bids)
        self._engine = (
            "sparse"
            if cells >= SPARSE_MIN_CELLS
            and self.edge_density <= SPARSE_MAX_DENSITY
            else "dense"
        )
        self._solver: Optional[object] = None
        self._dense_raw_cache: Optional[np.ndarray] = None
        self._edge_keys: Optional[np.ndarray] = None

    def _build_edges(self) -> None:
        """Collect the interval-active pairs into CSR form.

        One vectorised arrival/departure scan per *distinct slot* — never
        a ``tasks x bids`` allocation — so a 1000-slot instance with tens
        of thousands of bids builds in ``O(slots * bids + E)`` time and
        ``O(E)`` memory.  The ``compatible`` callback, when present, is
        evaluated on the interval-active pairs only.
        """
        num_rows = len(self._tasks)
        num_cols = len(self._bids)
        counts = np.zeros(num_rows, dtype=np.int64)
        col_chunks: List[np.ndarray] = []
        weight_chunks: List[np.ndarray] = []
        if num_rows and num_cols:
            arrivals = np.array([bid.arrival for bid in self._bids])
            departures = np.array([bid.departure for bid in self._bids])
            costs = np.array([bid.cost for bid in self._bids])
            slots = np.array([task.slot for task in self._tasks])
            values = np.array([task.value for task in self._tasks])
            # Tasks are schedule-ordered by (slot, index): rows sharing a
            # slot are contiguous and share one active-bid scan.
            unique_slots, starts = np.unique(slots, return_index=True)
            boundaries = np.append(starts, num_rows)
            for slot, row_start, row_end in zip(
                unique_slots.tolist(), boundaries[:-1], boundaries[1:]
            ):
                active_cols = np.nonzero(
                    (arrivals <= slot) & (departures >= slot)
                )[0]
                # Every row of the slot sees the slot's active columns.
                rows = range(int(row_start), int(row_end))
                cols = active_cols[np.newaxis].repeat(len(rows), axis=0).ravel()
                weights = (
                    values[row_start:row_end, np.newaxis] - costs[active_cols]
                ).ravel()
                counts[row_start:row_end] = active_cols.size
                if self._compatible is not None:
                    keep = np.fromiter(
                        (
                            self._compatible(
                                self._tasks[row], self._bids[int(col)]
                            )
                            for row in rows
                            for col in active_cols
                        ),
                        dtype=bool,
                        count=cols.size,
                    )
                    cols, weights = cols[keep], weights[keep]
                    counts[row_start:row_end] = keep.reshape(
                        len(rows), active_cols.size
                    ).sum(axis=1)
                if cols.size:
                    col_chunks.append(cols)
                    weight_chunks.append(weights)
        self._indptr = np.concatenate(
            [[0], np.cumsum(counts)]
        ).astype(np.int64)
        if col_chunks:
            self._edge_cols = np.concatenate(col_chunks)
            self._edge_weights = np.concatenate(weight_chunks)
        else:
            self._edge_cols = np.empty(0, dtype=np.int64)
            self._edge_weights = np.empty(0)
        positive = self._edge_weights > 0.0
        self._num_positive_edges = int(positive.sum())
        self._max_entry = (
            float(self._edge_weights[positive].max())
            if self._num_positive_edges
            else 0.0
        )

    # ------------------------------------------------------------------
    # Structure accessors
    # ------------------------------------------------------------------
    @property
    def tasks(self) -> Tuple[SensingTask, ...]:
        """Row vertices: the tasks, in schedule order."""
        return self._tasks

    @property
    def bids(self) -> Tuple[Bid, ...]:
        """Column vertices: the bids, in phone-id order."""
        return self._bids

    @property
    def weights(self) -> List[List[float]]:
        """A copy of the raw weight matrix (rows = tasks, cols = bids).

        Materialises the dense matrix — diagnostics and small-instance
        accessor only; the sparse solve path never calls it.
        """
        return [list(row) for row in self._dense_raw()]

    @property
    def num_edges(self) -> int:
        """Number of strictly useful edges (positive weight)."""
        return self._num_positive_edges

    @property
    def edge_density(self) -> float:
        """Active pairs as a fraction of the dense ``tasks x bids`` grid.

        A pair is active when the bid's window covers the task's slot,
        profitable or not.
        """
        cells = len(self._tasks) * len(self._bids)
        if not cells:
            return 0.0
        return self._edge_cols.size / cells

    def weight(self, task_id: int, phone_id: int) -> float:
        """Edge weight between a task and a phone, by their ids."""
        try:
            row = self._row_by_task[task_id]
        except KeyError:
            raise MatchingError(f"unknown task_id {task_id}") from None
        try:
            col = self._col_by_phone[phone_id]
        except KeyError:
            raise MatchingError(f"unknown phone_id {phone_id}") from None
        return float(
            self._pair_weights(np.array([row]), np.array([col]))[0]
        )

    def _edge_rows(self) -> np.ndarray:
        """The row of every stored edge, in CSR order."""
        return np.repeat(
            np.arange(len(self._tasks), dtype=np.int64),
            np.diff(self._indptr),
        )

    def _pair_weights(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Stored weights of the ``(rows[k], cols[k])`` pairs.

        ``0.0`` for inactive pairs.  Edge keys ``row * bids + col``
        ascend in CSR order, so one ``searchsorted`` finds every pair.
        """
        weights = np.zeros(rows.size)
        if not self._edge_cols.size:
            return weights
        if self._edge_keys is None:
            self._edge_keys = (
                self._edge_rows() * len(self._bids) + self._edge_cols
            )
        keys = rows * len(self._bids) + cols
        positions = np.minimum(
            np.searchsorted(self._edge_keys, keys), self._edge_keys.size - 1
        )
        found = self._edge_keys[positions] == keys
        weights[found] = self._edge_weights[positions[found]]
        return weights

    def _dense_raw(self) -> np.ndarray:
        """The dense raw weight matrix, materialised lazily and cached."""
        if self._dense_raw_cache is None:
            raw = np.zeros((len(self._tasks), len(self._bids)))
            raw[self._edge_rows(), self._edge_cols] = self._edge_weights
            self._dense_raw_cache = raw
        return self._dense_raw_cache

    def _positive_csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR arrays of the strictly profitable edges."""
        positive = self._edge_weights > 0.0
        rows = self._edge_rows()[positive]
        counts = np.bincount(rows, minlength=len(self._tasks))
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        return indptr, self._edge_cols[positive], self._edge_weights[positive]

    # ------------------------------------------------------------------
    # Engine
    # ------------------------------------------------------------------
    @property
    def engine(self) -> str:
        """``"sparse"`` or ``"dense"``: the solver this graph runs on.

        Fixed at construction from the instance alone (see the module
        docstring); tests force either engine by patching
        :data:`SPARSE_MIN_CELLS` and :data:`SPARSE_MAX_DENSITY`.
        """
        return self._engine

    def _ensure_solver(self):
        """The warm solver (dense or CSR) for this graph, built lazily."""
        if self._solver is None:
            if self._engine == "sparse":
                indptr, cols, weights = self._positive_csr()
                self._solver = SparseAssignmentSolver(
                    len(self._tasks),
                    len(self._bids),
                    indptr,
                    cols,
                    self._max_entry - weights,
                    dummy_cost=self._max_entry,
                )
            else:
                self._solver = AssignmentSolver(
                    padded_cost(self._dense_raw())
                )
        return self._solver

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(
        self, exclude_phone: Optional[int] = None
    ) -> Tuple[Dict[int, int], float]:
        """Maximum-weight allocation as ``task_id -> phone_id``.

        ``exclude_phone`` removes one phone's column before solving — the
        ``ω*(B₋ᵢ)`` computation.  Returns the allocation and its claimed
        social welfare ``ω*``.  The full solve is cached; exclusions
        build a fresh reduced instance (use :meth:`welfare_without_phone`
        for the fast repair-based welfare-only query).
        """
        if not self._tasks.__len__() or not self._bids:
            return {}, 0.0
        if exclude_phone is None:
            row_to_col, _ = self._ensure_solver().solve()
            return self._extract_allocation(row_to_col, list(self._bids))

        if exclude_phone not in self._col_by_phone:
            raise MatchingError(
                f"exclude_phone {exclude_phone} is not a column of this "
                f"graph"
            )
        kept_bids = [
            bid for bid in self._bids if bid.phone_id != exclude_phone
        ]
        reduced = TaskAssignmentGraph(
            self._schedule, kept_bids, compatible=self._compatible
        )
        return reduced.solve()

    def welfare_without_phone(self, phone_id: int) -> float:
        """``ω*(B₋ᵢ)`` via the solver's one-augmentation repair.

        Returns only the welfare (the VCG payment needs nothing more);
        equal to ``self.solve(exclude_phone=phone_id)[1]`` but roughly a
        factor ``n`` faster.  The repaired matching is re-priced from
        raw edge weights (not from dual arithmetic) and summed by
        :func:`_sum_gains`, so the dense and sparse engines return the
        same bits whenever their repaired matchings share a gain
        multiset.  Tests cross-check against the cold exclusion solve.
        """
        try:
            column = self._col_by_phone[phone_id]
        except KeyError:
            raise MatchingError(
                f"phone {phone_id} is not a column of this graph"
            ) from None
        if not self._tasks:
            return 0.0
        solver = self._ensure_solver()
        solver.solve()
        repaired = solver.matching_without_column(column)
        return _sum_gains(self._profitable_pairs(repaired)[2])

    @property
    def is_interval_matroid(self) -> bool:
        """Whether :meth:`welfare_without_each_winner` applies.

        True when every task carries one value ``ν`` and no
        ``compatible`` filter prunes edges.  Each edge weight is then
        ``ν − b_i``, a function of the phone alone, so the phone sets
        that can be matched form a transversal matroid.
        """
        return (
            self._compatible is None
            and self._schedule.uniform_value is not None
        )

    def welfare_without_each_winner(
        self, allocation: Dict[int, int]
    ) -> Dict[int, float]:
        """``ω*(B₋ᵢ)`` for every winner of an optimal ``allocation``.

        One replacement pass over the solved allocation instead of one
        repair per winner; valid only when :attr:`is_interval_matroid`.
        In a matroid the optimum without winner ``i`` exchanges ``i``
        for the best profitable loser ``j`` that can replace it, which
        here means ``j``'s alternating-path closure reaches ``i``'s
        slot.  That closure is a contiguous slot range: ``j``'s window,
        widened by the windows of the winners served inside it until
        it stops growing.  Losers are walked in ascending
        ``(cost, phone_id)`` order and each paints the still-unpainted
        slots of its closure, so the painter of ``i``'s slot is ``i``'s
        replacement, and an unpainted slot means ``i`` has none.

        The welfare is summed by :func:`_sum_gains` over the gain
        multiset of ``W − i (+ j)``, the multiset every optimum of
        ``B₋ᵢ`` shares, so it is bit-identical to
        :meth:`welfare_without_phone`.  Raises :class:`MatchingError`
        when a profitable loser's closure holds an unserved task: the
        allocation is then not optimal.
        """
        value = self._schedule.uniform_value
        if value is None or self._compatible is not None:
            raise MatchingError(
                "the replacement pass needs uniform task values and no "
                "compatibility filter"
            )
        first = self._tasks[0].slot
        span = self._tasks[-1].slot - first + 1
        unserved = [0] * span
        for task in self._tasks:
            unserved[task.slot - first] += 1
        # Per slot: the earliest arrival and the latest departure among
        # the winners served there, clipped to the task slots.
        reach_low = list(range(span))
        reach_high = list(range(span))
        winners: Dict[int, Tuple[Bid, int]] = {}
        for task_id, phone_id in allocation.items():
            row = self._row_by_task.get(task_id)
            col = self._col_by_phone.get(phone_id)
            if row is None or col is None:
                raise MatchingError(
                    f"task {task_id} -> phone {phone_id} is not a pair of "
                    f"this graph"
                )
            bid, slot = self._bids[col], self._tasks[row].slot
            if (
                phone_id in winners
                or not bid.arrival <= slot <= bid.departure
                or not value - bid.cost > 0.0
            ):
                raise MatchingError(
                    f"phone {phone_id} cannot profitably serve task "
                    f"{task_id} in a matching"
                )
            slot -= first
            winners[phone_id] = (bid, slot)
            unserved[slot] -= 1
            reach_low[slot] = min(reach_low[slot], max(bid.arrival - first, 0))
            reach_high[slot] = max(
                reach_high[slot], min(bid.departure - first, span - 1)
            )

        # Stable sort over phone-id order: ascending (cost, phone_id).
        losers = sorted(
            (
                bid
                for bid in self._bids
                if bid.phone_id not in winners and value - bid.cost > 0.0
            ),
            key=lambda bid: bid.cost,
        )
        painter: List[Optional[Bid]] = [None] * span
        # ``next_open[s]``: the first unpainted slot at or after ``s``.
        next_open = list(range(span + 1))

        def find_open(slot: int) -> int:
            while next_open[slot] != slot:
                next_open[slot] = next_open[next_open[slot]]
                slot = next_open[slot]
            return slot

        for bid in losers:
            low = max(bid.arrival - first, 0)
            high = min(bid.departure - first, span - 1)
            # A window already painted lies inside a painted closure,
            # so its own closure paints nothing new.
            if low > high or find_open(low) > high:
                continue
            done_low, done_high = low, low - 1
            while low < done_low or high > done_high:
                if high > done_high:
                    fold = slice(done_high + 1, high + 1)
                    done_high = high
                else:
                    fold = slice(low, done_low)
                    done_low = low
                low = min(low, min(reach_low[fold]))
                high = max(high, max(reach_high[fold]))
            if any(unserved[low : high + 1]):
                raise MatchingError(
                    f"allocation is not optimal: loser {bid.phone_id} can "
                    f"reach an unserved task in slots "
                    f"{low + first}..{high + first}"
                )
            slot = find_open(low)
            while slot <= high:
                painter[slot] = bid
                next_open[slot] = slot + 1
                slot = find_open(slot + 1)

        gains = np.array(
            [value - bid.cost for bid, _ in winners.values()], dtype=float
        )
        replacements = [painter[slot] for _, slot in winners.values()]
        replaced = np.array([bid is not None for bid in replacements], bool)
        added = np.array(
            [value - bid.cost for bid in replacements if bid is not None],
            dtype=float,
        )
        base = np.sort(gains)
        drop = np.searchsorted(base, gains)
        totals = np.empty(len(winners))
        totals[replaced] = _sum_exchanged_gains(base, drop[replaced], added)
        totals[~replaced] = _sum_exchanged_gains(base, drop[~replaced], None)
        return dict(zip(winners, totals.tolist()))

    def _profitable_pairs(
        self, row_to_col: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, cols, gains)`` of the pairs of ``row_to_col`` worth serving.

        One vectorised weight lookup; rows on a dummy column (or
        unassigned) and pairs whose weight is not positive are dropped,
        which leaves their task unserved.
        """
        row_to_col = np.asarray(row_to_col, dtype=np.int64)
        rows = np.nonzero(
            (row_to_col >= 0) & (row_to_col < len(self._bids))
        )[0]
        cols = row_to_col[rows]
        gains = self._pair_weights(rows, cols)
        profitable = gains > 0.0
        return rows[profitable], cols[profitable], gains[profitable]

    def _extract_allocation(
        self, row_to_col: np.ndarray, bids: List[Bid]
    ) -> Tuple[Dict[int, int], float]:
        rows, cols, gains = self._profitable_pairs(row_to_col)
        tasks = self._tasks
        allocation = {
            tasks[row].task_id: bids[col].phone_id
            for row, col in zip(rows.tolist(), cols.tolist())
        }
        return allocation, _sum_gains(gains)
