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

Slot-fed engines
----------------
Every slot is closed by one selection body, :meth:`StreamingGreedyEngine
._close_slot`.  The constructor drives it over a whole round at once
(the mechanism's pass); :meth:`~StreamingGreedyEngine.slot_fed` starts
an engine with no slot closed, and :meth:`~StreamingGreedyEngine
.feed_slot` closes the next slot over the bids that arrive in it and
the tasks announced in it.  The platform settles payments from one such
engine per round (:mod:`repro.auction.platform`).  This is causal:
Algorithm 1's records for slot ``t`` — its winners, ``last_cost``,
``theta`` and runner-up — depend only on bids that arrived by ``t`` and
tasks announced by ``t``.  So an engine fed through slot ``s`` holds the
same records for slots ``<= s`` as an engine built over everything
known at ``s``, and since payments read no slot after the last one
closed, it prices every winner exactly as that rebuild would.  The
payment regime follows the tasks fed so far: once two task values
differ, a reserve-price engine answers no payment incrementally again.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import MechanismError
from repro.mechanisms.greedy_core import GreedyRun, SlotOutcome
from repro.model.bid import Bid
from repro.model.columnar import RoundColumns
from repro.model.task import SensingTask, TaskSchedule
from repro.obs.clock import perf_seconds

#: A pool entry: ``(cost, arrival, phone_id, index)``.  The first three
#: fields are ``bid_sort_key`` verbatim; the trailing index reaches the
#: bid's departure and object in O(1) and never participates in
#: comparisons (the prefix is already a strict total order).
_Entry = Tuple[float, int, int, int]

_INF = float("inf")
_NEG_INF = float("-inf")


class _RangeMax:
    """O(1) range-max over a float list (sparse table), built on demand.

    ``query(lo, hi)`` (inclusive bounds) overlaps two power-of-two
    blocks — max is idempotent, so the overlap is harmless.  Level 0 is
    the caller's list itself; the higher levels are extended lazily to
    the highest index queried so far, one comprehension per level, so
    entries up to that index must never change afterwards (a slot-fed
    engine only queries slots it has closed).  Values are plain Python
    floats and the query returns one of them unchanged (no arithmetic),
    preserving bit-identity.
    """

    def __init__(self, values: List[float]) -> None:
        self._tables: List[List[float]] = [values]
        self._covered = -1

    def _extend(self, hi: int) -> None:
        tables = self._tables
        level = 1
        span = 1
        while span * 2 <= hi + 1:
            if level == len(tables):
                tables.append([])
            prev = tables[level - 1]
            table = tables[level]
            start = len(table)
            stop = hi - 2 * span + 2
            table.extend(
                [
                    left if left >= right else right
                    for left, right in zip(
                        prev[start:stop], prev[start + span : stop + span]
                    )
                ]
            )
            level += 1
            span *= 2
        self._covered = hi

    def query(self, lo: int, hi: int) -> float:
        """Max of ``values[lo..hi]`` (inclusive); requires ``lo <= hi``."""
        if hi > self._covered:
            self._extend(hi)
        length = hi - lo + 1
        level = length.bit_length() - 1
        table = self._tables[level]
        left = table[lo]
        right = table[hi - (1 << level) + 1]
        return left if left >= right else right


class StreamingGreedyEngine:
    """Algorithm 1 slot by slot, with per-slot payment state (see module doc).

    The constructor runs a whole round's allocation in one pass into
    :attr:`base_run`; :meth:`slot_fed` starts an engine with no slot
    closed, which :meth:`feed_slot` advances one slot at a time (the
    platform's settlement engine).  Both close each slot through the
    same selection body.  When :attr:`supports_incremental_payments` is
    true, :meth:`algorithm2_payment` and :meth:`exact_payment` answer a
    winner's payment from the recorded state without any re-run
    (:meth:`answers_algorithm2` / :meth:`answers_exact` say when);
    otherwise :mod:`repro.mechanisms.critical_payment` re-runs a fresh
    engine over the perturbed bids.
    """

    def __init__(
        self,
        bids: Sequence[Bid],
        schedule: TaskSchedule,
        reserve_price: bool = False,
        columns: Optional[RoundColumns] = None,
    ) -> None:
        """``columns``, when given, are the columns ``bids`` were decoded
        from (:meth:`RoundColumns.decode_bids
        <repro.model.columnar.RoundColumns.decode_bids>`); the pass then
        reads the bid fields from them instead of from the objects."""
        self._start(schedule.num_slots, reserve_price)
        self._source = bids
        self._bids = list(bids)
        self._schedule = schedule
        phone_id: Sequence[int]
        if columns is None:
            phone_id = [bid.phone_id for bid in self._bids]
            self._arr = [bid.arrival for bid in self._bids]
            self._dep = [bid.departure for bid in self._bids]
            self._cost = [bid.cost for bid in self._bids]
        else:
            # The same Python ints and floats the decoded bids hold.
            phone_id, self._arr, self._dep, self._cost = columns.lists
        self._pid = phone_id
        self._bid_by_phone = dict(zip(phone_id, self._bids))
        self._set_uniform_value(schedule.uniform_value)
        started = perf_seconds()
        self._run_pass(schedule)
        elapsed = perf_seconds() - started
        rate = self._events / elapsed if elapsed > 0 else 0.0
        obs.counter("online.stream.events", self._events)
        obs.gauge("online.stream.events_per_second", rate)

    @classmethod
    def slot_fed(
        cls, num_slots: int, reserve_price: bool = False
    ) -> "StreamingGreedyEngine":
        """An engine over ``num_slots`` slots with none closed yet.

        :meth:`feed_slot` closes the slots in order.  After slot ``s``
        its records answer every payment exactly as an engine built
        over the bids and tasks fed so far would (see module doc).
        """
        engine = cls.__new__(cls)
        engine._start(num_slots, reserve_price)
        engine._source = engine._bids
        engine._set_uniform_value(None)
        return engine

    def _start(self, num_slots: int, reserve_price: bool) -> None:
        """The state of an engine with no slot closed."""
        self._reserve_price = bool(reserve_price)
        self._num_slots = num_slots
        self._source: Sequence[Bid] = ()
        self._bids: List[Bid] = []
        self._bid_by_phone: Dict[int, Bid] = {}
        # Bid fields by index: the pass reads these, never the objects.
        # A slot-fed engine appends to ``_fed_columns``, which they alias.
        self._fed_columns: Tuple[List[int], List[int], List[int], List[float]] = (
            [], [], [], []
        )
        self._pid: Sequence[int]
        self._arr: Sequence[int]
        self._dep: Sequence[int]
        self._cost: Sequence[float]
        self._pid, self._arr, self._dep, self._cost = self._fed_columns
        # Tasks fed so far, the value they share, and whether two differ.
        self._tasks: List[SensingTask] = []
        self._task_value: Optional[float] = None
        self._mixed_values = False
        self._schedule: Optional[TaskSchedule] = None
        self._slots_closed = 0
        self._pool: List[_Entry] = []
        self._allocation: Dict[int, int] = {}
        self._win_slots: Dict[int, int] = {}
        self._slot_outcomes: List[SlotOutcome] = []
        self._base_run: Optional[GreedyRun] = None
        # Per-slot payment state, 1-indexed (entry 0 is padding).
        self._last_cost: List[float] = [_NEG_INF] * (num_slots + 1)
        self._theta: List[float] = [_NEG_INF] * (num_slots + 1)
        self._runner_up: Dict[int, Optional[_Entry]] = {}
        self._events = 0
        self._candidate_evals = 0
        self._cascade_steps = 0
        #: Per-slot range-max structures, built lazily on first payment
        #: (a pure allocation never pays for them).
        self._cost_rmq: Optional[_RangeMax] = None
        self._theta_rmq: Optional[_RangeMax] = None

    def _set_uniform_value(self, uniform: Optional[float]) -> None:
        """Derive the payment regime from the tasks' shared value.

        ``uniform`` is the value every task so far carries, ``None``
        when none arrived yet or two differ.
        """
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

    # ------------------------------------------------------------------
    # The slot loop
    # ------------------------------------------------------------------
    def _run_pass(self, schedule: TaskSchedule) -> None:
        """Close every slot of ``schedule`` over the constructor's bids.

        Arrivals are pre-bucketed with numpy: one stable argsort over
        the arrival column, then a searchsorted boundary table, so slot
        ``s`` reads ``order[bounds[s-1]:bounds[s]]`` — the same interval
        trick ``matching/graph.py`` uses for window masks.
        """
        num_slots = self._num_slots
        arrival = np.array(self._arr, dtype=np.int64)
        order = np.argsort(arrival, kind="stable")
        bounds = np.searchsorted(
            arrival[order], np.arange(1, num_slots + 2)
        ).tolist()
        order_list: List[int] = order.tolist()
        close_slot = self._close_slot
        tasks_in_slot = schedule.tasks_in_slot
        with obs.span(
            "greedy.allocation",
            bids=len(self._bids),
            slots=num_slots,
        ) as tel:
            for slot in range(1, num_slots + 1):
                close_slot(
                    slot,
                    order_list[bounds[slot - 1] : bounds[slot]],
                    tasks_in_slot(slot),
                )
            tel.set_attribute("events", self._events)
            tel.set_attribute("candidate_evals", self._candidate_evals)
            tel.set_attribute("winners", len(self._win_slots))
            tel.set_attribute(
                "unserved",
                sum(outcome.unserved for outcome in self._slot_outcomes),
            )
            obs.counter("greedy.candidate_evals", self._candidate_evals)

    def feed_slot(
        self, bids: Sequence[Bid], tasks: Sequence[SensingTask]
    ) -> None:
        """Close the next slot of a :meth:`slot_fed` engine.

        ``bids`` arrive in that slot and ``tasks`` are announced in it,
        in index order.
        """
        slot = self._slots_closed + 1
        if slot > self._num_slots:
            raise MechanismError(
                f"all {self._num_slots} slots of the engine are closed"
            )
        if any(bid.arrival != slot for bid in bids) or any(
            task.slot != slot for task in tasks
        ):
            raise MechanismError(
                f"slot {slot} is fed a bid or task of another slot"
            )
        pid, arr, dep, cost = self._fed_columns
        first = len(self._bids)
        for bid in bids:
            pid.append(bid.phone_id)
            arr.append(bid.arrival)
            dep.append(bid.departure)
            cost.append(bid.cost)
            self._bids.append(bid)
            self._bid_by_phone[bid.phone_id] = bid
        if tasks:
            for task in tasks:
                if self._task_value is None:
                    self._task_value = task.value
                elif task.value != self._task_value:
                    self._mixed_values = True
            self._tasks.extend(tasks)
            self._schedule = None
            self._set_uniform_value(
                None if self._mixed_values else self._task_value
            )
        self._base_run = None
        events, evals = self._events, self._candidate_evals
        self._close_slot(slot, range(first, len(self._bids)), tasks)
        obs.counter("online.stream.events", self._events - events)
        obs.counter("greedy.candidate_evals", self._candidate_evals - evals)

    def _close_slot(
        self,
        slot: int,
        arrivals: Sequence[int],
        tasks: Sequence[SensingTask],
    ) -> None:
        """Algorithm 1 at ``slot``: the one selection body.

        Pools the bids at indices ``arrivals``, hands each task the
        cheapest active pooled bid, and records the slot's payment
        state.  Plain Python lists or tuples for the hot loop: scalar
        indexing into numpy arrays allocates a boxed scalar per access,
        which dominates at 10⁶ bids.
        """
        pool = self._pool
        heappush = heapq.heappush
        cost = self._cost
        arr = self._arr
        pid = self._pid
        for index in arrivals:
            heappush(pool, (cost[index], arr[index], pid[index], index))
        self._slots_closed = slot
        events = len(arrivals)
        if not tasks:
            self._events += events
            return

        dep = self._dep
        reserve = self._reserve_price
        heappop = heapq.heappop
        allocation = self._allocation
        win_slots = self._win_slots
        candidate_evals = 0
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
            # Winners pop in increasing sort order, so the last one
            # carries the slot's maximum winning cost.
            self._last_cost[slot] = winners[-1][0]
        if unserved:
            # An extra bid cheap enough (and under the reserve, when
            # active) would have been selected here no matter what: the
            # slot's marginal threshold is open, and removing a winner
            # frees no one.
            self._theta[slot] = self._open_threshold
            self._runner_up[slot] = None
        else:
            self._theta[slot] = winners[-1][0]
            # Peek (never pop) the first still-valid candidate after the
            # slot's winners: the bid that inherits a selection if one
            # winner is removed.
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
            self._runner_up[slot] = successor
        bids = self._bids
        self._slot_outcomes.append(
            SlotOutcome(
                slot=slot,
                winners=tuple(bids[e[3]] for e in winners),
                unserved=unserved,
            )
        )
        self._events += events
        self._candidate_evals += candidate_evals

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def bids(self) -> Tuple[Bid, ...]:
        """The bids the engine was built or fed with, in that order."""
        return tuple(self._bids)

    def covers(self, bids: Sequence[Bid]) -> bool:
        """Whether the engine was built for exactly ``bids``.

        Identity first (O(1) for the same sequence a mechanism run
        threads through every payment call), elementwise comparison as
        the fallback.
        """
        return (
            bids is self._source
            or bids is self._bids
            or list(bids) == self._bids
        )

    @property
    def schedule(self) -> TaskSchedule:
        """The task schedule the engine was built or fed with.

        A slot-fed engine builds it on first use after a feed that
        announced tasks.
        """
        if self._schedule is None:
            self._schedule = TaskSchedule(
                num_slots=self._num_slots, tasks=self._tasks
            )
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
        """The Algorithm-1 allocation record of the slots closed so far.

        Once every slot is closed it shares the engine's own maps;
        before that it is a snapshot the next feed does not change.
        """
        if self._base_run is None:
            allocation = self._allocation
            win_slots = self._win_slots
            if self._slots_closed < self._num_slots:
                allocation = dict(allocation)
                win_slots = dict(win_slots)
            self._base_run = GreedyRun(
                allocation=allocation,
                win_slots=win_slots,
                slots=tuple(self._slot_outcomes),
            )
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

    def answers_algorithm2(self, phone_id: int, win_slot: int) -> bool:
        """Whether :meth:`algorithm2_payment` prices ``phone_id`` at
        ``win_slot``: incremental payments apply, and the phone won
        ``win_slot`` here or never won at all."""
        return (
            self._supports_incremental
            and self._win_slots.get(phone_id, win_slot) == win_slot
        )

    def answers_exact(self, phone_id: int) -> bool:
        """Whether :meth:`exact_payment` prices ``phone_id``:
        incremental payments apply, and the phone won here."""
        return self._supports_incremental and phone_id in self._win_slots

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
        re-runs the allocation for anything else.  The window ends at
        the last slot closed, where a rebuild over the bids and tasks
        fed so far would end it.
        """
        self._require_incremental()
        win_slots = self._win_slots
        recorded = win_slots.get(winner.phone_id)
        if recorded is not None and recorded != win_slot:
            raise MechanismError(
                f"phone {winner.phone_id} won slot {recorded}, not "
                f"{win_slot}; the cascade records only answer the "
                "recorded win slot"
            )
        departure = min(winner.departure, self._slots_closed)
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
            next_slot = win_slots.get(successor[2])
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
        win_slots = self._win_slots
        win_slot = win_slots.get(winner.phone_id)
        if win_slot is None:
            raise MechanismError(
                f"phone {winner.phone_id} is not a winner of the base "
                "run; the exact fast path only prices winners"
            )
        departure = min(winner.departure, self._slots_closed)
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
            next_slot = win_slots.get(successor[2])
            if next_slot is None or next_slot > departure:
                break
            slot = next_slot
        self._cascade_steps += steps
        if threshold == _INF:
            return winner.cost
        return threshold if threshold > winner.cost else winner.cost
