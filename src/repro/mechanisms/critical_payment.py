"""Critical-value payments for the online mechanism (Algorithm 2).

The paper pays each online winner ``i`` (who won in slot ``t'_i``) the
claimed cost of its *critical player*: re-run the greedy allocation with
``B_i`` removed and take the highest claimed cost among smartphones that
win in slots ``[t'_i, d̃_i]``, floored at ``b_i`` (Algorithm 2).  Payment
is delivered in the reported departure slot.

Two payment rules are provided:

* :func:`algorithm2_payment` — the paper's Algorithm 2, verbatim.
* :func:`exact_critical_payment` — the true critical value
  ``sup { b : i still wins when bidding b }`` computed by a monotone
  binary search over candidate thresholds.  The two agree whenever every
  task in the winner's window is served in the re-run; they differ in
  *under-supplied* windows, where Algorithm 2 falls back to paying the
  winner's own bid even though the winner would have won at any price —
  a known gap in the paper's analysis that breaks cost-truthfulness for
  uncontested winners (documented in DESIGN.md §7 and exercised by the
  test suite).  With a reserve price active, the exact rule pays the task
  value in that case, restoring truthfulness.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro import obs
from repro.errors import MechanismError
from repro.mechanisms.greedy_core import GreedyRun
from repro.mechanisms.streaming import StreamingGreedyEngine
from repro.model.bid import Bid
from repro.model.task import TaskSchedule


def _check_engine(
    engine: StreamingGreedyEngine,
    bids: Sequence[Bid],
    reserve_price: bool,
) -> None:
    """Reject a streaming engine built for a different auction.

    A mismatched engine would silently compute payments for the wrong
    auction, so the guard is strict equality on the full bid tuple.
    """
    if engine.reserve_price != reserve_price:  # repro: noqa-REP002 -- boolean flag, not a money value
        raise MechanismError(
            "streaming engine reserve_price does not match the payment "
            "call"
        )
    if not engine.covers(bids):
        raise MechanismError(
            "streaming engine was built for a different bid vector"
        )


def _rerun(
    bids: Sequence[Bid], schedule: TaskSchedule, reserve_price: bool
) -> GreedyRun:
    """Algorithm 1 over a perturbed bid list, on a fresh engine.

    Algorithm 1 at slot ``t`` reads only slots ``<= t``, so a
    full-horizon re-run selects the same winners up to any departure
    as one stopped there.
    """
    return StreamingGreedyEngine(
        bids, schedule, reserve_price=reserve_price
    ).base_run


def algorithm2_payment(
    bids: Sequence[Bid],
    schedule: TaskSchedule,
    winner: Bid,
    win_slot: int,
    reserve_price: bool = False,
    engine: Optional[StreamingGreedyEngine] = None,
) -> float:
    """Algorithm 2 of the paper: pay the critical player's claimed cost.

    Re-runs the greedy allocation without ``winner`` and returns the
    maximum claimed cost among bids that win in slots
    ``[win_slot, winner.departure]``, floored at the winner's own
    claimed cost.  A :class:`~repro.mechanisms.streaming
    .StreamingGreedyEngine` built for the same auction answers the
    payment from its displacement-cascade records without any re-run
    when they apply (a base-run winner at ``win_slot``, or a phone that
    never won); otherwise — and without an engine — a fresh engine
    re-runs the bids with the winner removed.  Both routes are
    bit-identical.
    """
    if not (winner.arrival <= win_slot <= winner.departure):
        raise MechanismError(
            f"win slot {win_slot} outside phone {winner.phone_id}'s "
            f"claimed window [{winner.arrival}, {winner.departure}]"
        )
    with obs.span(
        "payment.algorithm2", winner=winner.phone_id, win_slot=win_slot
    ):
        if engine is not None:
            _check_engine(engine, bids, reserve_price)
            if engine.answers_algorithm2(winner.phone_id, win_slot):
                return engine.algorithm2_payment(winner, win_slot)
        rerun = _rerun(
            [bid for bid in bids if bid.phone_id != winner.phone_id],
            schedule,
            reserve_price,
        )
        payment = winner.cost
        for other in rerun.winners_between(win_slot, winner.departure):
            if other.cost > payment:
                payment = other.cost
        return payment


def _wins_with_cost(
    bids: Sequence[Bid],
    schedule: TaskSchedule,
    winner: Bid,
    candidate_cost: float,
    reserve_price: bool,
) -> bool:
    """Whether ``winner`` still wins after replacing its cost."""
    replaced = [
        bid.with_cost(candidate_cost) if bid.phone_id == winner.phone_id else bid
        for bid in bids
    ]
    return winner.phone_id in _rerun(replaced, schedule, reserve_price).win_slots


def exact_critical_payment(
    bids: Sequence[Bid],
    schedule: TaskSchedule,
    winner: Bid,
    reserve_price: bool = False,
    engine: Optional[StreamingGreedyEngine] = None,
) -> float:
    """The exact critical value of Definition 9, by binary search.

    Winning is monotone non-increasing in the claimed cost (Theorem 4's
    monotonicity argument, verified by the property tests), and the
    win/lose outcome can only change when the claimed cost crosses
    another bid's cost (or the task value, when a reserve is active).
    The supremum of winning costs is therefore attained at one of those
    thresholds, found here with ``O(log n)`` greedy re-runs — or, when
    a :class:`~repro.mechanisms.streaming.StreamingGreedyEngine` with
    applicable incremental records is supplied and ``winner`` won its
    base run, read directly off its per-slot marginal thresholds with
    no re-run at all (bit-identical; see the streaming module's
    docstring for the argument).

    When the winner is uncontested — it would win at *any* price — the
    critical value is unbounded.  With ``reserve_price`` the task value
    caps it; without, we fall back to Algorithm 2's behaviour of paying
    the winner's own claimed cost (and the caller inherits the
    truthfulness caveat documented in the module docstring).
    """
    if engine is not None:
        _check_engine(engine, bids, reserve_price)
        if engine.answers_exact(winner.phone_id):
            with obs.span(
                "payment.exact", winner=winner.phone_id
            ) as fast_tel:
                fast_tel.set_attribute("probes", 0)
                return engine.exact_payment(winner)
    with obs.span("payment.exact", winner=winner.phone_id) as tel:
        probes = 0

        def probe(candidate_cost: float) -> bool:
            nonlocal probes
            probes += 1
            return _wins_with_cost(
                bids, schedule, winner, candidate_cost, reserve_price
            )

        try:
            thresholds: List[float] = sorted(
                {bid.cost for bid in bids if bid.phone_id != winner.phone_id}
                | (
                    {task.value for task in schedule}
                    if reserve_price
                    else set()
                )
            )
            thresholds = [t for t in thresholds if t > 0.0]

            if not thresholds:
                return winner.cost

            # Probe strictly above the largest threshold: uncontested?
            above_all = thresholds[-1] + 1.0
            if probe(above_all):
                return winner.cost if not reserve_price else max(
                    thresholds[-1], winner.cost
                )

            # Probe region k is (thresholds[k-1], thresholds[k]); its
            # representative is a midpoint.  Winning is monotone over
            # regions, so binary-search the last winning region; the
            # critical value is that region's right endpoint.
            def representative(region: int) -> float:
                upper = thresholds[region]
                lower = 0.0 if region == 0 else thresholds[region - 1]
                return (lower + upper) / 2.0

            low, high = 0, len(thresholds) - 1
            # Invariant: the winner wins somewhere at or below region
            # `high + 1`'s lower edge; it won with its submitted bid, so
            # the region containing its own cost wins.
            best: Optional[int] = None
            while low <= high:
                mid = (low + high) // 2
                if probe(representative(mid)):
                    best = mid
                    low = mid + 1
                else:
                    high = mid - 1
            if best is None:
                # The winner won with its submitted bid yet loses in every
                # probe region; its own cost must sit exactly on a
                # threshold where the tie-break favours it.  The critical
                # value is its own cost.
                return winner.cost
            return max(thresholds[best], winner.cost)
        finally:
            tel.set_attribute("probes", probes)
            obs.counter("payment.exact.probes", probes)
