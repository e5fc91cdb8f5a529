"""Event-driven streaming engine: the one implementation of Algorithm 1.

Algorithm 2 defines each winner's payment by *re-running* Algorithm 1
without the winner, and the exact critical value re-runs it with the
winner's cost replaced.  At city scale (10⁵–10⁶ phones) a re-run per
winner would dominate the round.  This engine answers those payments
from bookkeeping done *during* a single allocation pass; the re-runs it
cannot answer are fresh engines over the perturbed bid list (see
:mod:`repro.mechanisms.critical_payment`):

Event model
-----------
The round is consumed as one merged stream of events in slot order:

* **arrival** — the bid enters the pool.  Arrivals are pre-bucketed
  with numpy (one ``argsort`` over the arrival column plus a
  ``searchsorted`` per-slot boundary table), so the per-slot arrival
  scan costs O(arrivals in slot), never O(n).
* **expiry** — a bid whose departure has passed is discarded lazily
  when it surfaces at the top of the pool.
* **selection** — a task pops the cheapest active unallocated bid.

The pool is a single binary heap keyed by
:func:`~repro.mechanisms.greedy_core.bid_sort_key`; every event is
O(log n), and each bid is pushed and popped at most once, so a full
round costs O((n + γ) log n) with *no* per-probe re-walks.

Heap invariants
---------------
Entries are ``(cost, arrival, phone_id, index)`` tuples.  The first
three fields are exactly ``bid_sort_key`` — a *strict total order*,
since ``phone_id`` is unique — so the pop sequence is a function of the
entry multiset alone, independent of internal heap layout: the pass
selects exactly what a textbook "sort the pool, take the cheapest" walk
selects, which the oracle suite in ``tests/oracles.py`` checks.

Incremental critical thresholds
-------------------------------
Removing winner ``i`` from the greedy run (Algorithm 2's re-run)
perturbs it only along a *displacement cascade*: at ``i``'s win slot
the remaining winners shift up by one and the slot's recorded
**runner-up** is additionally selected; if that runner-up was itself a
base winner at a later slot, the same displacement repeats there, and
so on until a runner-up is ``None`` (the slot gains an unserved task)
or the runner-up never wins in the base run.  Runner-ups depend only on
the base run, so they are recorded once per slot during the single
pass, and every winner's Algorithm-2 payment reduces to a range-max of
per-slot winner costs over the winner's window plus the runner-up
costs along its cascade — O(cascade length), typically O(1).

The exact critical value (Definition 9) falls out of the same records:
per slot, the marginal threshold below which an extra bid would be
selected is the last winner's cost (fully served slot) or the open
threshold — ``+inf`` without a reserve price, the task value with one —
and the supremum over the winner's window, adjusted along the cascade,
*is* the critical value a binary search over re-runs converges to
(Theorems 4–7 justify monotonicity; see ARCHITECTURE.md for the
argument).  With a reserve price and *heterogeneous* task values the
within-slot shift can change reserve outcomes, so the engine declares
incremental payments unsupported and payments re-run the allocation
instead — results stay bit-identical either way.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import MechanismError
from repro.mechanisms.greedy_core import GreedyRun, SlotOutcome
from repro.model.bid import Bid
from repro.model.task import TaskSchedule
from repro.obs.clock import perf_seconds

#: A pool entry: ``(cost, arrival, phone_id, index)``.  The first three
#: fields are ``bid_sort_key`` verbatim; the trailing index reaches the
#: bid's departure and object in O(1) and never participates in
#: comparisons (the prefix is already a strict total order).
_Entry = Tuple[float, int, int, int]

_INF = float("inf")
_NEG_INF = float("-inf")


class _RangeMax:
    """O(1) range-max over a fixed float array (sparse table).

    Built in O(n log n); ``query(lo, hi)`` (inclusive bounds) overlaps
    two power-of-two blocks — max is idempotent, so the overlap is
    harmless.  Values are plain Python floats and the query returns one
    of them unchanged (no arithmetic), preserving bit-identity.
    """

    def __init__(self, values: Sequence[float]) -> None:
        self._tables: List[List[float]] = [list(values)]
        size = len(values)
        span = 1
        while span * 2 <= size:
            prev = self._tables[-1]
            self._tables.append(
                [
                    prev[i] if prev[i] >= prev[i + span] else prev[i + span]
                    for i in range(size - 2 * span + 1)
                ]
            )
            span *= 2

    def query(self, lo: int, hi: int) -> float:
        """Max of ``values[lo..hi]`` (inclusive); requires ``lo <= hi``."""
        length = hi - lo + 1
        level = length.bit_length() - 1
        table = self._tables[level]
        left = table[lo]
        right = table[hi - (1 << level) + 1]
        return left if left >= right else right


class StreamingGreedyEngine:
    """One-pass Algorithm 1 with per-slot payment state (see module doc).

    The constructor runs the allocation into :attr:`base_run`.  When
    :attr:`supports_incremental_payments` is true,
    :meth:`algorithm2_payment` and :meth:`exact_payment` answer each
    base-run winner's payment from the recorded state without any
    re-run; otherwise :mod:`repro.mechanisms.critical_payment` re-runs
    a fresh engine over the perturbed bids.
    """

    def __init__(
        self,
        bids: Sequence[Bid],
        schedule: TaskSchedule,
        reserve_price: bool = False,
    ) -> None:
        self._source = bids
        self._bids: Tuple[Bid, ...] = tuple(bids)
        self._schedule = schedule
        self._reserve_price = bool(reserve_price)
        self._num_slots = schedule.num_slots
        self._bid_by_phone = {bid.phone_id: bid for bid in self._bids}
        self._cascade_steps = 0
        uniform = schedule.uniform_value
        self._supports_incremental = (
            not self._reserve_price or uniform is not None
        )
        #: Threshold at which an under-supplied slot stops admitting an
        #: extra bid: unbounded without a reserve, the (uniform) task
        #: value with one.  Only consulted on the incremental path,
        #: where a reserve price implies homogeneous values.
        self._open_threshold = (
            uniform if self._reserve_price and uniform is not None else _INF
        )
        started = perf_seconds()
        self._base_run = self._stream()
        elapsed = perf_seconds() - started
        rate = self._events / elapsed if elapsed > 0 else 0.0
        obs.counter("online.stream.events", self._events)
        obs.gauge("online.stream.events_per_second", rate)
        #: Per-slot range-max structures, built lazily on first payment
        #: (a pure allocation never pays for them).
        self._cost_rmq: Optional[_RangeMax] = None
        self._theta_rmq: Optional[_RangeMax] = None

    # ------------------------------------------------------------------
    # The single event-driven pass
    # ------------------------------------------------------------------
    def _stream(self) -> GreedyRun:
        bids = self._bids
        count = len(bids)
        num_slots = self._num_slots
        reserve = self._reserve_price

        # Pre-bucket arrivals with numpy: one stable argsort over the
        # arrival column, then a searchsorted boundary table, so slot
        # ``s`` reads ``order[bounds[s-1]:bounds[s]]`` — the same
        # interval trick ``matching/graph.py`` uses for window masks.
        arrival = np.fromiter(
            (bid.arrival for bid in bids), dtype=np.int64, count=count
        )
        order = np.argsort(arrival, kind="stable")
        bounds = np.searchsorted(
            arrival[order], np.arange(1, num_slots + 2)
        ).tolist()
        order_list: List[int] = order.tolist()
        # Plain Python lists for the hot loop: scalar indexing into
        # numpy arrays allocates a boxed scalar per access, which
        # dominates at 10⁶ bids.  ``tolist`` round-trips exactly.
        cost: List[float] = [bid.cost for bid in bids]
        arr: List[int] = arrival.tolist()
        dep: List[int] = [bid.departure for bid in bids]
        pid: List[int] = [bid.phone_id for bid in bids]

        pool: List[_Entry] = []
        allocation: Dict[int, int] = {}
        win_slots: Dict[int, int] = {}
        slot_outcomes: List[SlotOutcome] = []
        # Per-slot payment state, 1-indexed (entry 0 is padding).
        last_cost: List[float] = [_NEG_INF] * (num_slots + 1)
        theta: List[float] = [_NEG_INF] * (num_slots + 1)
        runner_up: Dict[int, Optional[_Entry]] = {}
        open_threshold = self._open_threshold
        events = 0
        candidate_evals = 0
        heappush = heapq.heappush
        heappop = heapq.heappop

        with obs.span(
            "greedy.allocation",
            bids=count,
            slots=num_slots,
        ) as tel:
            for slot in range(1, num_slots + 1):
                lo = bounds[slot - 1]
                hi = bounds[slot]
                for position in range(lo, hi):
                    index = order_list[position]
                    heappush(
                        pool,
                        (cost[index], arr[index], pid[index], index),
                    )
                events += hi - lo

                tasks = self._schedule.tasks_in_slot(slot)
                if not tasks:
                    continue

                winners: List[_Entry] = []
                unserved = 0
                for task in tasks:
                    chosen: Optional[_Entry] = None
                    task_value = task.value
                    while pool:
                        candidate_evals += 1
                        top = pool[0]
                        if dep[top[3]] < slot:  # expiry event
                            heappop(pool)
                            events += 1
                            continue
                        if reserve and top[0] > task_value:
                            break
                        chosen = heappop(pool)
                        events += 1
                        break
                    if chosen is None:
                        unserved += 1
                        continue
                    allocation[task.task_id] = chosen[2]
                    win_slots[chosen[2]] = slot
                    winners.append(chosen)

                if winners:
                    # Winners pop in increasing sort order, so the last
                    # one carries the slot's maximum winning cost.
                    last_cost[slot] = winners[-1][0]
                if unserved:
                    # An extra bid cheap enough (and under the reserve,
                    # when active) would have been selected here no
                    # matter what: the slot's marginal threshold is
                    # open, and removing a winner frees no one.
                    theta[slot] = open_threshold
                    runner_up[slot] = None
                else:
                    theta[slot] = winners[-1][0]
                    # Peek (never pop) the first still-valid candidate
                    # after the slot's winners: the bid that inherits a
                    # selection if one winner is removed.
                    successor: Optional[_Entry] = None
                    last_value = tasks[-1].value
                    while pool:
                        top = pool[0]
                        if dep[top[3]] < slot:
                            heappop(pool)
                            events += 1
                            continue
                        if reserve and top[0] > last_value:
                            break
                        successor = top
                        break
                    runner_up[slot] = successor
                slot_outcomes.append(
                    SlotOutcome(
                        slot=slot,
                        winners=tuple(bids[e[3]] for e in winners),
                        unserved=unserved,
                    )
                )
            tel.set_attribute("events", events)
            tel.set_attribute("candidate_evals", candidate_evals)
            tel.set_attribute("winners", len(win_slots))
            tel.set_attribute(
                "unserved",
                sum(outcome.unserved for outcome in slot_outcomes),
            )
            obs.counter("greedy.candidate_evals", candidate_evals)

        self._events = events
        self._last_cost = last_cost
        self._theta = theta
        self._runner_up = runner_up
        return GreedyRun(
            allocation=allocation,
            win_slots=win_slots,
            slots=tuple(slot_outcomes),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def bids(self) -> Tuple[Bid, ...]:
        """The bid tuple the engine was built for."""
        return self._bids

    def covers(self, bids: Sequence[Bid]) -> bool:
        """Whether the engine was built for exactly ``bids``.

        Identity first (O(1) for the same sequence a mechanism run
        threads through every payment call), elementwise comparison as
        the fallback.
        """
        return (
            bids is self._source
            or bids is self._bids
            or tuple(bids) == self._bids
        )

    @property
    def schedule(self) -> TaskSchedule:
        """The task schedule the engine was built for."""
        return self._schedule

    @property
    def reserve_price(self) -> bool:
        """Whether the walk refuses negative-welfare assignments."""
        return self._reserve_price

    @property
    def bid_by_phone(self) -> Dict[int, Bid]:
        """``phone_id -> bid`` index over the engine's bids (read-only)."""
        return self._bid_by_phone

    @property
    def base_run(self) -> GreedyRun:
        """The Algorithm-1 allocation record."""
        return self._base_run

    @property
    def events(self) -> int:
        """Arrival + expiry + selection events consumed by the pass."""
        return self._events

    @property
    def cascade_steps(self) -> int:
        """Displacement-cascade hops walked by payments so far."""
        return self._cascade_steps

    @property
    def supports_incremental_payments(self) -> bool:
        """Whether payments can skip the re-run (see module doc)."""
        return self._supports_incremental

    # ------------------------------------------------------------------
    # Incremental payments
    # ------------------------------------------------------------------
    def _require_incremental(self) -> None:
        if not self._supports_incremental:
            raise MechanismError(
                "incremental payments are unsupported with a reserve "
                "price over heterogeneous task values; re-run the "
                "allocation instead"
            )

    def algorithm2_payment(self, winner: Bid, win_slot: int) -> float:
        """Algorithm-2 payment for ``winner``, from the recorded state.

        Valid when ``winner`` won slot ``win_slot`` in the base run (the
        standard call) or never won at all (the re-run without it is the
        base run itself); :mod:`repro.mechanisms.critical_payment`
        re-runs the allocation for anything else.
        """
        self._require_incremental()
        recorded = self._base_run.win_slots.get(winner.phone_id)
        if recorded is not None and recorded != win_slot:
            raise MechanismError(
                f"phone {winner.phone_id} won slot {recorded}, not "
                f"{win_slot}; the cascade records only answer the "
                "recorded win slot"
            )
        departure = min(winner.departure, self._num_slots)
        payment = winner.cost
        if win_slot <= departure:
            if self._cost_rmq is None:
                self._cost_rmq = _RangeMax(self._last_cost)
            best = self._cost_rmq.query(win_slot, departure)
            if best > payment:
                payment = best
        if recorded is None:
            return payment
        slot = win_slot
        steps = 0
        while True:
            successor = self._runner_up[slot]
            if successor is None:
                # The slot gains an unserved task instead of a new
                # winner; the re-run converges back onto the base run.
                break
            steps += 1
            if successor[0] > payment:
                payment = successor[0]
            next_slot = self._base_run.win_slots.get(successor[2])
            if next_slot is None or next_slot > departure:
                break
            slot = next_slot
        self._cascade_steps += steps
        return payment

    def exact_payment(self, winner: Bid) -> float:
        """The exact critical value for a base-run winner.

        Supremum of the per-slot marginal thresholds over the winner's
        window, with the cascade's runner-up costs (which can only
        raise a slot's marginal) folded in; ``+inf`` means the winner
        is uncontested and Algorithm 2's own-bid fallback applies —
        exactly the value the re-run binary search converges to.
        """
        self._require_incremental()
        win_slot = self._base_run.win_slots.get(winner.phone_id)
        if win_slot is None:
            raise MechanismError(
                f"phone {winner.phone_id} is not a winner of the base "
                "run; the exact fast path only prices winners"
            )
        departure = min(winner.departure, self._num_slots)
        if self._theta_rmq is None:
            self._theta_rmq = _RangeMax(self._theta)
        threshold = self._theta_rmq.query(winner.arrival, departure)
        slot = win_slot
        steps = 0
        while True:
            successor = self._runner_up[slot]
            if successor is None:
                # The cascade ends in a newly unserved task: within the
                # window the winner's slot became open.
                if self._open_threshold > threshold:
                    threshold = self._open_threshold
                break
            steps += 1
            if successor[0] > threshold:
                threshold = successor[0]
            next_slot = self._base_run.win_slots.get(successor[2])
            if next_slot is None or next_slot > departure:
                break
            slot = next_slot
        self._cascade_steps += steps
        if threshold == _INF:
            return winner.cost
        return threshold if threshold > winner.cost else winner.cost
