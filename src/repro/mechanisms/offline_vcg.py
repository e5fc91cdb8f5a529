"""The offline optimal truthful mechanism (Section IV of the paper).

Winning-bid determination reduces to maximum-weight bipartite matching on
the task x smartphone graph of Fig. 3 and is solved exactly with the
Hungarian algorithm in ``O((n + γ)^3)`` (Theorem 3).  Payments follow the
VCG rule, Eq. (7)/(8) of the paper:

.. math::

    p_i(B) = (ω^*(B) - (-b_i)) - ω^*(B_{-i}) = ω^*(B) + b_i - ω^*(B_{-i})

for winners — each phone is paid its claimed cost plus its marginal
contribution to everyone else's welfare — and zero for losers.  Theorem 1
(truthfulness in cost *and* active time, given the no-early-arrival /
no-late-departure constraints) and Theorem 2 (individual rationality)
follow the classic VCG arguments; the property auditors in
:mod:`repro.metrics.properties` verify both empirically.
"""

from __future__ import annotations

import functools
from typing import Dict, Optional, Sequence, Tuple

from repro.matching.graph import TaskAssignmentGraph
from repro.mechanisms.base import Mechanism
from repro.model.bid import Bid
from repro.model.outcome import AuctionOutcome
from repro.model.round_config import RoundConfig
from repro.model.task import TaskSchedule


@functools.lru_cache(maxsize=8)
def bid_index(bids: Tuple[Bid, ...]) -> Dict[int, Bid]:
    """``phone_id -> bid`` for a bid tuple, memoised across payment passes.

    Every winner's payment pass used to rebuild this identical dict;
    bids are frozen (hashable), so the tuple itself is the cache key.
    Callers must treat the returned dict as read-only.

    The cache is deliberately tiny: each entry pins the full bid tuple
    of one round, which at city scale is tens of megabytes, and a long
    campaign cycles through a fresh tuple per round — a large cache
    would pin dead rounds for the process lifetime while the hit
    pattern only ever needs the rounds currently in flight.
    """
    return {bid.phone_id: bid for bid in bids}


class OfflineVCGMechanism(Mechanism):
    """Optimal allocation + VCG payments for the offline case.

    The mechanism assumes full information about the round up front: all
    bids and the entire task schedule.  This is the paper's benchmark
    case; the online mechanism is evaluated against it (Theorem 6's
    1/2-competitive claim).

    Payments are delivered at each winner's reported departure slot, the
    same settlement convention the online mechanism uses, so overpayment
    and cash-flow metrics are comparable across the two.

    ``backend`` selects the matching engine (see
    :mod:`repro.matching.backend`); the default ``None`` defers to the
    session default, whose ``"auto"`` mode picks the dense solver for
    paper-scale rounds and the CSR sparse solver for city-scale ones.
    """

    name = "offline-vcg"
    is_truthful = True
    is_online = False

    def __init__(self, backend: Optional[str] = None) -> None:
        self._backend = backend

    @property
    def backend(self) -> Optional[str]:
        """The matching-backend override in force (``None`` = default)."""
        return self._backend

    def run(
        self,
        bids: Sequence[Bid],
        schedule: TaskSchedule,
        config: Optional[RoundConfig] = None,
    ) -> AuctionOutcome:
        self._resolve_config(bids, schedule, config)

        graph = TaskAssignmentGraph(schedule, bids, backend=self._backend)
        allocation, optimal_welfare = graph.solve()

        # Memoised across runs on the same bid tuple (repeated payment
        # passes and counterfactual audits re-run identical bid vectors).
        bid_by_phone = bid_index(tuple(bids))
        payments: Dict[int, float] = {}
        payment_slots: Dict[int, int] = {}
        # Sorted so payment-dict insertion order (and therefore the
        # outcome's serialised bytes) never depends on set hash order.
        for phone_id in sorted(set(allocation.values())):
            welfare_without = graph.welfare_without_phone(phone_id)
            bid = bid_by_phone[phone_id]
            payments[phone_id] = (
                optimal_welfare + bid.cost - welfare_without
            )
            payment_slots[phone_id] = bid.departure

        return AuctionOutcome(
            bids=bids,
            schedule=schedule,
            allocation=allocation,
            payments=payments,
            payment_slots=payment_slots,
        )

    def optimal_welfare(
        self,
        bids: Sequence[Bid],
        schedule: TaskSchedule,
        config: Optional[RoundConfig] = None,
    ) -> float:
        """The optimum ``ω*(B)`` alone, without computing payments.

        Used by the competitive-ratio metric, which compares the online
        mechanism's welfare against this optimum on the same bids and
        would waste ``O(n)`` extra matching solves if it called
        :meth:`run`.
        """
        self._resolve_config(bids, schedule, config)
        _, welfare = TaskAssignmentGraph(
            schedule, bids, backend=self._backend
        ).solve()
        return welfare
