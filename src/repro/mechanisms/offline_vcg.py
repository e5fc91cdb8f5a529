"""The offline optimal truthful mechanism (Section IV of the paper).

Winning-bid determination reduces to maximum-weight bipartite matching on
the task x smartphone graph of Fig. 3 and is solved exactly with the
Hungarian algorithm in ``O((n + γ)^3)`` (Theorem 3).  Payments follow the
VCG rule, Eq. (7)/(8) of the paper:

.. math::

    p_i(B) = (ω^*(B) - (-b_i)) - ω^*(B_{-i}) = ω^*(B) + b_i - ω^*(B_{-i})

for winners — each phone is paid its claimed cost plus its marginal
contribution to everyone else's welfare — and zero for losers.

With one task value ``ν`` (the paper's model) the phone sets that can be
matched form a transversal matroid, and every ``ω*(B₋ᵢ)`` comes from one
replacement pass over the solved allocation
(:meth:`~repro.matching.graph.TaskAssignmentGraph.welfare_without_each_winner`):
in exact arithmetic ``p_i = ν − (ν − b_j) = b_j`` for the cheapest loser
``j`` that can replace ``i``, and ``p_i = ν`` when none can.  Rounds
with heterogeneous task values answer each ``ω*(B₋ᵢ)`` with a warm
matching repair instead.  Both paths produce the same bytes wherever
both apply (``docs/THEORY.md`` §2).

Theorem 1 (truthfulness in cost *and* active time, given the
no-early-arrival / no-late-departure constraints) and Theorem 2
(individual rationality) follow the classic VCG arguments; the property
auditors in :mod:`repro.metrics.properties` verify both empirically.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.matching.graph import TaskAssignmentGraph
from repro.mechanisms.base import Mechanism
from repro.model.bid import Bid
from repro.model.outcome import AuctionOutcome
from repro.model.round_config import RoundConfig
from repro.model.task import TaskSchedule


class OfflineVCGMechanism(Mechanism):
    """Optimal allocation + VCG payments for the offline case.

    The mechanism assumes full information about the round up front: all
    bids and the entire task schedule.  This is the paper's benchmark
    case; the online mechanism is evaluated against it (Theorem 6's
    1/2-competitive claim).

    Payments are delivered at each winner's reported departure slot, the
    same settlement convention the online mechanism uses, so overpayment
    and cash-flow metrics are comparable across the two.

    The graph picks its matching engine from the instance: the dense
    solver for paper-scale rounds, the CSR sparse solver for city-scale
    ones (:mod:`repro.matching.graph`).
    """

    name = "offline-vcg"
    is_truthful = True
    is_online = False

    def run(
        self,
        bids: Sequence[Bid],
        schedule: TaskSchedule,
        config: Optional[RoundConfig] = None,
    ) -> AuctionOutcome:
        self._resolve_config(bids, schedule, config)

        graph = TaskAssignmentGraph(schedule, bids)
        allocation, optimal_welfare = graph.solve()

        bid_by_phone = {bid.phone_id: bid for bid in bids}
        # Sorted so payment-dict insertion order (and therefore the
        # outcome's serialised bytes) never depends on set hash order.
        winners = sorted(set(allocation.values()))
        if graph.is_interval_matroid:
            welfare_without = graph.welfare_without_each_winner(allocation)
        else:
            welfare_without = {
                phone_id: graph.welfare_without_phone(phone_id)
                for phone_id in winners
            }
        payments: Dict[int, float] = {}
        payment_slots: Dict[int, int] = {}
        for phone_id in winners:
            bid = bid_by_phone[phone_id]
            payments[phone_id] = (
                optimal_welfare + bid.cost - welfare_without[phone_id]
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
        _, welfare = TaskAssignmentGraph(schedule, bids).solve()
        return welfare
