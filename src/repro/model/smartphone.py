"""Private smartphone profiles (the ground truth behind each bid).

A :class:`SmartphoneProfile` holds the *real* private information
``(a_i, d_i, c_i)`` of Section III-A: real arrival slot, real departure
slot, and real per-task cost.  Mechanisms never see profiles — they see
:class:`~repro.model.bid.Bid` objects.  Profiles are used by the simulation
layer to generate bids (truthful or strategic) and by the metrics layer to
compute true utilities and true social welfare.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict

from repro.errors import BidConstraintError, ValidationError
from repro.model.bid import Bid, check_phone_fields


@dataclasses.dataclass(frozen=True, order=True)
class SmartphoneProfile:
    """The immutable private type ``(a_i, d_i, c_i)`` of one smartphone.

    Attributes
    ----------
    phone_id:
        Identifier, unique within a round.
    arrival:
        Real first active slot ``a_i`` (1-based, inclusive).
    departure:
        Real last active slot ``d_i`` (1-based, inclusive).
    cost:
        Real cost ``c_i >= 0`` of performing one sensing task.
    """

    phone_id: int
    arrival: int
    departure: int
    cost: float

    def __post_init__(self) -> None:
        cost = self.cost
        check_phone_fields(self.phone_id, self.arrival, self.departure, cost)
        if type(cost) is not float:
            object.__setattr__(self, "cost", float(cost))

    def is_active(self, slot: int) -> bool:
        """Whether the phone is really active in ``slot``."""
        return self.arrival <= slot <= self.departure

    @property
    def active_length(self) -> int:
        """Real number of active slots."""
        return self.departure - self.arrival + 1

    def truthful_bid(self) -> Bid:
        """The bid a truthful smartphone submits: its private type verbatim."""
        return Bid(
            phone_id=self.phone_id,
            arrival=self.arrival,
            departure=self.departure,
            cost=self.cost,
        )

    def is_feasible_claim(self, bid: Bid) -> bool:
        """Whether ``bid`` respects the structural misreport constraints.

        A strategic phone may delay its claimed arrival and advance its
        claimed departure (``ã_i >= a_i`` and ``d̃_i <= d_i``), and may
        claim any non-negative cost; it cannot claim availability outside
        its real active window (no early-arrival, no late-departure —
        Section III-B).
        """
        return (
            bid.phone_id == self.phone_id
            and bid.arrival >= self.arrival
            and bid.departure <= self.departure
            and bid.departure >= bid.arrival
        )

    def check_claim(self, bid: Bid) -> Bid:
        """Validate ``bid`` against the misreport constraints; return it.

        Raises
        ------
        BidConstraintError
            If the bid claims early arrival, late departure, or belongs to
            a different phone.
        """
        if bid.phone_id != self.phone_id:
            raise BidConstraintError(
                f"bid belongs to phone {bid.phone_id}, profile is "
                f"phone {self.phone_id}"
            )
        if bid.arrival < self.arrival:
            raise BidConstraintError(
                f"phone {self.phone_id} claims arrival {bid.arrival} before "
                f"its real arrival {self.arrival} (early-arrival misreport "
                f"is infeasible)"
            )
        if bid.departure > self.departure:
            raise BidConstraintError(
                f"phone {self.phone_id} claims departure {bid.departure} "
                f"after its real departure {self.departure} (late-departure "
                f"misreport is infeasible)"
            )
        return bid

    def utility(self, payment: float, allocated: bool) -> float:
        """Definition 1: utility = payment − real cost if allocated.

        A phone that wins no task incurs no cost; with a payment of zero it
        has utility zero.  (Untruthful baseline mechanisms may in principle
        pay losers, which this formula handles as pure gain.)
        """
        return payment - (self.cost if allocated else 0.0)

    def to_dict(self) -> Dict[str, Any]:
        """Serialise to a JSON-friendly dict (used by trace recording)."""
        return {
            "phone_id": self.phone_id,
            "arrival": self.arrival,
            "departure": self.departure,
            "cost": self.cost,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SmartphoneProfile":
        """Inverse of :meth:`to_dict`.

        Values are taken as they are, not coerced: the id and the slots
        must be integers (not bools, not floats) and the cost a number,
        or the constructor raises :class:`ValidationError`.
        """
        try:
            return cls(
                phone_id=payload["phone_id"],
                arrival=payload["arrival"],
                departure=payload["departure"],
                cost=payload["cost"],
            )
        except KeyError as exc:
            raise ValidationError(f"profile payload missing key: {exc}") from exc
