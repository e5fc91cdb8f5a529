"""The records and tie-break shared by the online greedy mechanisms.

Algorithm 1 of the paper ("Winning Bids Determination") walks the slots
in order, keeps the pool of active, not-yet-allocated bids, and hands
each newly arriving task to the cheapest bid in the pool.  Its one
implementation is :class:`~repro.mechanisms.streaming
.StreamingGreedyEngine`; this module holds what that engine shares with
the second-price baseline and the incremental platform: the selection
order and the per-slot record of a run.

Tie-breaking
------------
The paper sorts bids "by claimed cost in non-decreasing order" without
specifying ties.  We break ties deterministically by ``(cost, arrival,
phone_id)``: earlier-arriving phones first, then lower phone id.  The same
rule is used everywhere (allocation, payment re-runs, baselines) so that
the mechanism is a deterministic function of its inputs — a requirement
for the critical-value payment analysis to be meaningful.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from repro.model.bid import Bid


def bid_sort_key(bid: Bid) -> Tuple[float, int, int]:
    """Greedy selection order: cheapest first, ties by arrival then id."""
    return (bid.cost, bid.arrival, bid.phone_id)


@dataclasses.dataclass(frozen=True)
class SlotOutcome:
    """What happened in one slot of a greedy run.

    Attributes
    ----------
    slot:
        The 1-based slot index.
    winners:
        Winning bids in selection order (cheapest first).
    unserved:
        Number of tasks of this slot left unserved (pool exhausted, or —
        when a reserve price is active — every pooled bid priced above
        the task value).
    """

    slot: int
    winners: Tuple[Bid, ...]
    unserved: int


@dataclasses.dataclass(frozen=True)
class GreedyRun:
    """Full record of a greedy allocation run.

    Attributes
    ----------
    allocation:
        ``task_id -> phone_id`` winning assignments.
    win_slots:
        ``phone_id -> slot`` in which each winner was selected.
    slots:
        Per-slot outcomes in slot order (only slots with tasks appear).
    """

    allocation: Dict[int, int]
    win_slots: Dict[int, int]
    slots: Tuple[SlotOutcome, ...]

    @property
    def total_unserved(self) -> int:
        """Total number of tasks that went unserved."""
        return sum(outcome.unserved for outcome in self.slots)

    def winners_between(self, first_slot: int, last_slot: int) -> List[Bid]:
        """All winning bids selected in slots ``[first_slot, last_slot]``."""
        collected: List[Bid] = []
        for outcome in self.slots:
            if first_slot <= outcome.slot <= last_slot:
                collected.extend(outcome.winners)
        return collected
