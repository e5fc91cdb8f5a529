"""Textbook oracles for the paper's mechanisms on tiny rounds.

Nothing here imports a production engine.  Each function is the paper's
definition written out as literally as possible, slow on purpose, so a
shared misreading of Algorithm 1/2 in the engines cannot also hide here:

* :func:`greedy_allocation` — Algorithm 1: per slot and task, sort the
  active unallocated bids by ``(cost, arrival, phone_id)`` and take the
  cheapest; under a reserve price the task goes unserved when that bid
  costs more than the task is worth.
* :func:`algorithm2_payment` — Algorithm 2 by a literal re-run without
  the winner.
* :func:`exact_critical_payment` — Definition 9's critical value by a
  scan of the threshold regions (every region, or upward from the
  winner's own cost; never a binary search).
* :func:`online_outcome` — the online mechanism's whole
  :class:`~repro.model.outcome.AuctionOutcome`, built with the same dict
  insertion order the mechanism uses, so pickles compare byte for byte.
* :func:`vcg_reference` — the offline optimum and VCG payments from the
  exhaustive matcher in :mod:`repro.matching.bruteforce`.

The exhaustive scans suit the Fig. 4/5 scale (about 7 phones, 4 slots):
every region is a re-run and the matcher is exponential.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.matching.bruteforce import brute_force_max_weight_matching
from repro.model.bid import Bid
from repro.model.outcome import AuctionOutcome
from repro.model.task import SensingTask, TaskSchedule


def _selections(
    bids: Sequence[Bid],
    schedule: TaskSchedule,
    reserve_price: bool,
) -> Iterator[Tuple[int, SensingTask, Bid]]:
    """Algorithm 1's selections, ``(slot, task, bid)``, in order."""
    won: Set[int] = set()
    for slot in range(1, schedule.num_slots + 1):
        tasks = schedule.tasks_in_slot(slot)
        if not tasks:
            continue
        # The slot's pool, cheapest first; each served task takes the
        # head, so the next task sees exactly the remaining pool sorted.
        pool = sorted(
            (
                bid
                for bid in bids
                if bid.arrival <= slot <= bid.departure
                and bid.phone_id not in won
            ),
            key=lambda bid: (bid.cost, bid.arrival, bid.phone_id),
        )
        for task in tasks:
            if not pool:
                break
            cheapest = pool[0]
            if reserve_price and cheapest.cost > task.value:
                continue
            pool.pop(0)
            won.add(cheapest.phone_id)
            yield slot, task, cheapest


def greedy_allocation(
    bids: Sequence[Bid],
    schedule: TaskSchedule,
    reserve_price: bool = False,
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Algorithm 1: ``(task_id -> phone_id, phone_id -> win slot)``.

    Both dicts gain entries in selection order.
    """
    allocation: Dict[int, int] = {}
    win_slots: Dict[int, int] = {}
    for slot, task, bid in _selections(bids, schedule, reserve_price):
        allocation[task.task_id] = bid.phone_id
        win_slots[bid.phone_id] = slot
    return allocation, win_slots


def _wins(
    bids: Sequence[Bid],
    schedule: TaskSchedule,
    winner: Bid,
    cost: float,
    reserve_price: bool,
) -> bool:
    """Whether ``winner`` still wins when it claims ``cost`` instead.

    Slot ``t`` of Algorithm 1 reads only slots ``<= t``, so the walk
    stops once the phone is selected or a selection lands past its
    departure.
    """
    claimed = [
        bid.with_cost(cost) if bid.phone_id == winner.phone_id else bid
        for bid in bids
    ]
    for slot, _, bid in _selections(claimed, schedule, reserve_price):
        if bid.phone_id == winner.phone_id:
            return True
        if slot > winner.departure:
            return False
    return False


def algorithm2_payment(
    bids: Sequence[Bid],
    schedule: TaskSchedule,
    winner: Bid,
    win_slot: int,
    reserve_price: bool = False,
) -> float:
    """Highest claimed cost winning in ``[win_slot, d_i]`` without ``i``.

    Floored at the winner's own claimed cost.
    """
    others = [bid for bid in bids if bid.phone_id != winner.phone_id]
    _, win_slots = greedy_allocation(others, schedule, reserve_price)
    cost_of = {bid.phone_id: bid.cost for bid in others}
    payment = winner.cost
    for phone_id, slot in win_slots.items():
        if win_slot <= slot <= winner.departure:
            payment = max(payment, cost_of[phone_id])
    return payment


def _thresholds(
    bids: Sequence[Bid],
    schedule: TaskSchedule,
    winner: Bid,
    reserve_price: bool,
    window_only: bool = False,
) -> List[float]:
    """Where the outcome can change as the winner's claimed cost moves.

    Other bids' costs, plus task values under a reserve price; positive
    entries only, ascending.  ``window_only`` keeps just the bids that
    share a slot with the winner and the tasks inside its window: the
    winner's cost is only ever compared with those, so the outcome
    cannot change anywhere else.
    """

    def meets(bid: Bid) -> bool:
        return (
            bid.arrival <= winner.departure
            and winner.arrival <= bid.departure
        )

    def inside(task: SensingTask) -> bool:
        return winner.arrival <= task.slot <= winner.departure

    costs = {
        bid.cost
        for bid in bids
        if bid.phone_id != winner.phone_id
        and (meets(bid) or not window_only)
    }
    values = {
        task.value
        for task in schedule
        if reserve_price and (inside(task) or not window_only)
    }
    return [t for t in sorted(costs | values) if t > 0.0]


def _midpoint(thresholds: Sequence[float], region: int) -> float:
    """Region ``k`` is the open interval just below ``thresholds[k]``."""
    lower = thresholds[region - 1] if region else 0.0
    return (lower + thresholds[region]) / 2.0


def threshold_regions(
    bids: Sequence[Bid],
    schedule: TaskSchedule,
    winner: Bid,
    reserve_price: bool = False,
) -> Tuple[List[float], List[bool]]:
    """Every threshold, and whether the winner wins in each region.

    Each region is probed at its midpoint.
    """
    thresholds = _thresholds(bids, schedule, winner, reserve_price)
    wins = [
        _wins(
            bids,
            schedule,
            winner,
            _midpoint(thresholds, region),
            reserve_price,
        )
        for region in range(len(thresholds))
    ]
    return thresholds, wins


def exact_critical_payment(
    bids: Sequence[Bid],
    schedule: TaskSchedule,
    winner: Bid,
    reserve_price: bool = False,
    exhaustive: bool = True,
) -> float:
    """``sup {b : i wins when claiming b}``, scanning threshold regions.

    The critical value is the upper end of the last region the winner
    still wins.  ``exhaustive`` probes every region between all the
    thresholds.  Otherwise only the winner's window thresholds are used
    (see :func:`_thresholds`) and the scan starts at the region holding
    the winner's own cost and walks up to the first region it loses —
    the same answer whenever winning is monotone in the claimed cost.
    The tiny-round sweep checks both that premise and the agreement
    exhaustively; the short scan is what Table-I sized rounds can afford.

    An uncontested winner (it wins above every threshold) is paid the
    largest threshold under a reserve price, and its own cost without
    one — the repository's documented convention for the unbounded case.
    """
    thresholds = _thresholds(
        bids, schedule, winner, reserve_price, window_only=not exhaustive
    )
    if not thresholds:
        return winner.cost
    if _wins(bids, schedule, winner, thresholds[-1] + 1.0, reserve_price):
        if reserve_price:
            return max(thresholds[-1], winner.cost)
        return winner.cost

    def wins_in(region: int) -> bool:
        return _wins(
            bids,
            schedule,
            winner,
            _midpoint(thresholds, region),
            reserve_price,
        )

    if exhaustive:
        winning = [k for k in range(len(thresholds)) if wins_in(k)]
    else:
        region = next(
            (k for k, t in enumerate(thresholds) if t >= winner.cost),
            len(thresholds),
        )
        winning = []
        while region < len(thresholds) and wins_in(region):
            winning.append(region)
            region += 1
    if not winning:
        return winner.cost
    return max(thresholds[winning[-1]], winner.cost)


def online_outcome(
    bids: Sequence[Bid],
    schedule: TaskSchedule,
    reserve_price: bool = False,
    payment_rule: str = "paper",
    exhaustive: bool = True,
) -> AuctionOutcome:
    """The online mechanism's outcome, from the oracles above.

    ``exhaustive`` is passed to :func:`exact_critical_payment`.
    """
    allocation, win_slots = greedy_allocation(bids, schedule, reserve_price)
    bid_of = {bid.phone_id: bid for bid in bids}
    payments: Dict[int, float] = {}
    payment_slots: Dict[int, int] = {}
    for phone_id, win_slot in win_slots.items():
        winner = bid_of[phone_id]
        if payment_rule == "paper":
            payments[phone_id] = algorithm2_payment(
                bids, schedule, winner, win_slot, reserve_price
            )
        else:
            payments[phone_id] = exact_critical_payment(
                bids, schedule, winner, reserve_price, exhaustive
            )
        payment_slots[phone_id] = winner.departure
    return AuctionOutcome(
        bids=bids,
        schedule=schedule,
        allocation=allocation,
        payments=payments,
        payment_slots=payment_slots,
    )


def _optimal_welfare(
    bids: Sequence[Bid],
    schedule: TaskSchedule,
    excluded: Optional[int] = None,
) -> float:
    """``ω*`` over the bids (minus ``excluded``) by exhaustive matching."""
    rows = [bid for bid in bids if bid.phone_id != excluded]
    tasks = list(schedule)
    if not rows or not tasks:
        return 0.0
    weights = [
        [
            task.value - bid.cost
            if bid.arrival <= task.slot <= bid.departure
            else 0.0
            for task in tasks
        ]
        for bid in rows
    ]
    return brute_force_max_weight_matching(weights).total_weight


def vcg_reference(
    bids: Sequence[Bid], schedule: TaskSchedule
) -> Tuple[float, Dict[int, float]]:
    """``ω*(B)`` and ``p_i = ω*(B) + b_i − ω*(B₋ᵢ)`` for every phone.

    Phones that lose in every optimum get ``p_i = b_i``; only the
    mechanism's winners are meant to be compared.
    """
    welfare = _optimal_welfare(bids, schedule)
    payments = {
        bid.phone_id: welfare
        + bid.cost
        - _optimal_welfare(bids, schedule, bid.phone_id)
        for bid in bids
    }
    return welfare, payments
