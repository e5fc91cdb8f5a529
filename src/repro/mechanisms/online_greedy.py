"""The online near-optimal truthful mechanism (Section V of the paper).

Allocation is Algorithm 1 (per-slot greedy, cheapest active unallocated
bid first); payments are critical-value payments per Algorithm 2, settled
at each winner's reported departure slot.  The mechanism is monotone and
pays critical values, hence truthful (Theorem 4), individually rational
(Theorem 5), 1/2-competitive against the offline optimum (Theorem 6), and
runs in polynomial time (Theorem 7).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Union

from repro import obs
from repro.errors import MechanismError
from repro.mechanisms.base import Mechanism
from repro.mechanisms.critical_payment import (
    algorithm2_payment,
    exact_critical_payment,
)
from repro.mechanisms.streaming import StreamingGreedyEngine
from repro.model.bid import Bid
from repro.model.columnar import RoundColumns
from repro.model.outcome import AuctionOutcome
from repro.model.round_config import RoundConfig
from repro.model.task import TaskSchedule

_PAYMENT_RULES = ("paper", "exact")
_ENGINE_NAMES = ("batch", "streaming")


class OnlineGreedyMechanism(Mechanism):
    """Greedy allocation (Algorithm 1) + critical-value payments (Alg. 2).

    Parameters
    ----------
    reserve_price:
        When ``True``, bids claiming more than a task's value are never
        allocated that task.  The paper has no reserve (see
        :mod:`repro.mechanisms.greedy_core`); benches that compare welfare
        against the offline optimum enable it so that the online run never
        takes negative-welfare assignments the optimum would refuse.
    payment_rule:
        ``"paper"`` (default) uses Algorithm 2 verbatim; ``"exact"``
        computes the true critical value by binary search (see
        :mod:`repro.mechanisms.critical_payment` for when they differ).
    engine:
        Accepted for compatibility and selects nothing: the event-driven
        :class:`~repro.mechanisms.streaming.StreamingGreedyEngine` is the
        only allocation engine.  ``"batch"`` and ``"streaming"`` are
        valid and any other name raises :class:`~repro.errors
        .MechanismError`.  The keyword stays because the frozen
        benchmark workloads in ``perfbench/workloads.py`` pass it.

    Although the mechanism is conceptually online, :meth:`run` consumes a
    complete round like every other mechanism — determinism plus the
    restriction that allocation in slot ``t`` only reads bids with
    ``arrival <= t`` makes this exactly equivalent to a slot-by-slot
    execution; :class:`repro.auction.platform.CrowdsourcingPlatform`
    provides the genuinely incremental driver.
    """

    name = "online-greedy"
    is_truthful = True
    is_online = True

    def __init__(
        self,
        reserve_price: bool = False,
        payment_rule: str = "paper",
        engine: str = "batch",
    ) -> None:
        if payment_rule not in _PAYMENT_RULES:
            raise MechanismError(
                f"unknown payment_rule {payment_rule!r}; expected one of "
                f"{_PAYMENT_RULES}"
            )
        if engine not in _ENGINE_NAMES:
            raise MechanismError(
                f"unknown engine {engine!r}; expected one of "
                f"{_ENGINE_NAMES}"
            )
        self._reserve_price = bool(reserve_price)
        self._payment_rule = payment_rule

    @property
    def reserve_price(self) -> bool:
        """Whether negative-welfare assignments are refused."""
        return self._reserve_price

    @property
    def payment_rule(self) -> str:
        """The active payment rule, ``"paper"`` or ``"exact"``."""
        return self._payment_rule

    def run(
        self,
        bids: Union[Sequence[Bid], RoundColumns],
        schedule: TaskSchedule,
        config: Optional[RoundConfig] = None,
    ) -> AuctionOutcome:
        """Run one round over ``bids``.

        ``bids`` may also be a :class:`~repro.model.columnar.RoundColumns`
        (a shard worker's round): its values were validated when it was
        constructed, so the per-bid checks are skipped, the allocation
        pass reads the columns, and the outcome holds
        :meth:`~repro.model.columnar.RoundColumns.decode_bids`.
        """
        columns: Optional[RoundColumns] = None
        round_bids: Sequence[Bid]
        if isinstance(bids, RoundColumns):
            columns = bids
            effective = config or RoundConfig.for_schedule(schedule)
            effective.validate_schedule(schedule)
            if columns.num_slots != effective.num_slots:
                raise MechanismError(
                    f"bid columns span {columns.num_slots} slots, the "
                    f"round {effective.num_slots}"
                )
            round_bids = columns.decode_bids()
        else:
            self._resolve_config(bids, schedule, config)
            round_bids = bids
        # One event-driven pass produces the allocation and the per-slot
        # records payments are read from; no re-runs unless the engine
        # declares its records inapplicable (reserve price over
        # heterogeneous task values), where each payment re-runs the
        # allocation on a fresh engine.
        engine = StreamingGreedyEngine(
            round_bids,
            schedule,
            reserve_price=self._reserve_price,
            columns=columns,
        )
        greedy = engine.base_run
        if greedy.win_slots and not engine.supports_incremental_payments:
            obs.counter(
                "online.stream.payment_fallbacks", len(greedy.win_slots)
            )

        bid_by_phone = engine.bid_by_phone
        payments: Dict[int, float] = {}
        payment_slots: Dict[int, int] = {}
        for phone_id, win_slot in greedy.win_slots.items():
            winner = bid_by_phone[phone_id]
            if self._payment_rule == "paper":
                payments[phone_id] = algorithm2_payment(
                    round_bids,
                    schedule,
                    winner,
                    win_slot,
                    reserve_price=self._reserve_price,
                    engine=engine,
                )
            else:
                payments[phone_id] = exact_critical_payment(
                    round_bids,
                    schedule,
                    winner,
                    reserve_price=self._reserve_price,
                    engine=engine,
                )
            # The paper: "each smartphone receives its payment in its
            # reported departure slot."
            payment_slots[phone_id] = winner.departure
        # Reported once, after the payment loop: how much cascade
        # walking the whole round needed (zero is common — most
        # removals cascade nowhere).
        obs.counter("online.stream.cascade_steps", engine.cascade_steps)

        return AuctionOutcome(
            bids=round_bids,
            schedule=schedule,
            allocation=greedy.allocation,
            payments=payments,
            payment_slots=payment_slots,
        )
