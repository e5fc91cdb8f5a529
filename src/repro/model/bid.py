"""The bid submitted by a smartphone to the platform.

Section III-B of the paper: within a round of ``m`` slots, each smartphone
``i`` submits at most one bid ``B_i = (ã_i, d̃_i, b_i)`` where ``ã_i`` is
the claimed begin of active time (arrival slot), ``d̃_i`` the claimed end of
active time (departure slot), and ``b_i`` the claimed per-task cost.  Slots
are 1-based and the bid claims the phone is active in every slot ``t`` with
``ã_i <= t <= d̃_i`` (inclusive on both ends, matching the worked example in
Fig. 4 where Smartphone 2 is active in slots 1 through 4).
"""

from __future__ import annotations

import copyreg
import dataclasses
import math
from typing import Any, Dict, SupportsIndex, Tuple, Union

from repro.errors import ValidationError
from repro.utils.validation import check_non_negative, check_positive, check_type


#: The constructor ``object.__reduce_ex__`` names for protocols >= 2,
#: looked up by name because the type stubs do not declare it.
_NEWOBJ: Any = vars(copyreg)["__newobj__"]


def check_phone_fields(
    phone_id: Any, arrival: Any, departure: Any, cost: Any
) -> None:
    """Validate a phone's ``(phone_id, arrival, departure, cost)`` fields.

    One fused test passes plain valid values: ``int`` id and slots with
    ``0 <= phone_id`` and ``1 <= arrival <= departure``, and an ``int``
    or ``float`` cost with ``0 <= cost < inf``.  Anything else (a bool,
    a subclass, NaN, a bad range) runs the per-field checks, which
    raise :class:`ValidationError` naming the first bad field.
    """
    if (
        type(phone_id) is int
        and type(arrival) is int
        and type(departure) is int
        and (type(cost) is float or type(cost) is int)
        and 0 <= phone_id
        and 0 < arrival <= departure
        and 0.0 <= cost < math.inf
    ):
        return
    check_type("phone_id", phone_id, int)
    check_type("arrival", arrival, int)
    check_type("departure", departure, int)
    if phone_id < 0:
        raise ValidationError(f"phone_id must be >= 0, got {phone_id}")
    check_positive("arrival", arrival)
    check_positive("departure", departure)
    if departure < arrival:
        raise ValidationError(
            f"departure ({departure}) must be >= arrival "
            f"({arrival}) for phone {phone_id}"
        )
    check_non_negative("cost", cost)


@dataclasses.dataclass(frozen=True, order=True)
class Bid:
    """An immutable claimed bid ``(arrival, departure, cost)`` of one phone.

    Attributes
    ----------
    phone_id:
        Identifier of the submitting smartphone.  Unique within a round.
    arrival:
        Claimed first active slot ``ã_i`` (1-based, inclusive).
    departure:
        Claimed last active slot ``d̃_i`` (1-based, inclusive).
    cost:
        Claimed cost ``b_i >= 0`` for performing one sensing task.

    The ordering (``order=True``) sorts by ``phone_id`` first, which gives
    deterministic iteration order in reports; mechanisms never rely on this
    ordering for allocation decisions (they sort explicitly by cost with a
    documented tie-break).
    """

    phone_id: int
    arrival: int
    departure: int
    cost: float

    def __post_init__(self) -> None:
        cost = self.cost
        check_phone_fields(self.phone_id, self.arrival, self.departure, cost)
        # Normalise the cost to float so equality is value-based regardless
        # of whether the caller passed an int.
        if type(cost) is not float:
            object.__setattr__(self, "cost", float(cost))

    def __reduce_ex__(
        self, protocol: SupportsIndex
    ) -> Union[str, Tuple[Any, ...]]:
        """The reduce value ``object.__reduce_ex__`` builds, built directly.

        For protocol 2 and above the default is ``(copyreg.__newobj__,
        (type(self),), self.__dict__)`` (plus two ``None`` iterators,
        which pickle and :mod:`copy` treat as absent): ``Bid`` has no
        ``__getnewargs__``, no ``__getstate__`` of its own, no slots and
        a non-empty ``__dict__``.  Returning that tuple here gives the
        same pickle bytes and the same ``copy.copy``/``copy.deepcopy``
        results while skipping the default's per-object lookups of the
        hooks ``Bid`` does not define, which takes about a fifth off
        pickling a city round's result (2·10⁴ bids).  Protocols 0 and 1
        take the default path unchanged.
        """
        if int(protocol) < 2:
            return object.__reduce_ex__(self, protocol)
        return (_NEWOBJ, (type(self),), self.__dict__)

    def is_active(self, slot: int) -> bool:
        """Whether the bid claims activity in ``slot`` (1-based)."""
        return self.arrival <= slot <= self.departure

    @property
    def active_length(self) -> int:
        """Number of slots the bid claims to be active for."""
        return self.departure - self.arrival + 1

    def with_cost(self, cost: float) -> "Bid":
        """Return a copy of this bid with a different claimed cost."""
        return dataclasses.replace(self, cost=cost)

    def with_window(self, arrival: int, departure: int) -> "Bid":
        """Return a copy of this bid with a different claimed window."""
        return dataclasses.replace(self, arrival=arrival, departure=departure)

    def to_dict(self) -> Dict[str, Any]:
        """Serialise to a JSON-friendly dict (used by trace recording)."""
        return {
            "phone_id": self.phone_id,
            "arrival": self.arrival,
            "departure": self.departure,
            "cost": self.cost,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Bid":
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
            raise ValidationError(f"bid payload missing key: {exc}") from exc
