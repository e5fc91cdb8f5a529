"""Unit tests for the Bid model."""

from __future__ import annotations

import copy
import dataclasses
import io
import pickle

import pytest

from repro.errors import ValidationError
from repro.model import Bid


@dataclasses.dataclass(frozen=True, order=True)
class TaggedBid(Bid):
    """A subclass, to check that the reduce value names the real type."""

    tag: str = ""


def default_pickle(value, protocol):
    """``value`` pickled with ``object.__reduce_ex__`` for every bid."""
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=protocol)
    pickler.dispatch_table = {
        cls: lambda bid, protocol=protocol: object.__reduce_ex__(bid, protocol)
        for cls in (Bid, TaggedBid)
    }
    pickler.dump(value)
    return buffer.getvalue()


BIDS = [
    Bid(phone_id=3, arrival=2, departure=5, cost=7.5),
    Bid(phone_id=0, arrival=1, departure=1, cost=4),
    TaggedBid(phone_id=9, arrival=1, departure=4, cost=0.25, tag="x"),
]


class TestBidConstruction:
    def test_basic_fields(self):
        bid = Bid(phone_id=3, arrival=2, departure=5, cost=7.5)
        assert bid.phone_id == 3
        assert bid.arrival == 2
        assert bid.departure == 5
        assert bid.cost == pytest.approx(7.5)

    def test_cost_normalised_to_float(self):
        bid = Bid(phone_id=0, arrival=1, departure=1, cost=4)
        assert isinstance(bid.cost, float)
        assert bid == Bid(phone_id=0, arrival=1, departure=1, cost=4.0)

    def test_single_slot_window_allowed(self):
        bid = Bid(phone_id=1, arrival=3, departure=3, cost=1.0)
        assert bid.active_length == 1

    def test_zero_cost_allowed(self):
        assert Bid(phone_id=1, arrival=1, departure=2, cost=0.0).cost == pytest.approx(0.0)

    def test_negative_phone_id_rejected(self):
        with pytest.raises(ValidationError):
            Bid(phone_id=-1, arrival=1, departure=2, cost=1.0)

    def test_zero_arrival_rejected(self):
        with pytest.raises(ValidationError):
            Bid(phone_id=0, arrival=0, departure=2, cost=1.0)

    def test_departure_before_arrival_rejected(self):
        with pytest.raises(ValidationError):
            Bid(phone_id=0, arrival=4, departure=3, cost=1.0)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValidationError):
            Bid(phone_id=0, arrival=1, departure=2, cost=-0.1)

    def test_nan_cost_rejected(self):
        with pytest.raises(ValidationError):
            Bid(phone_id=0, arrival=1, departure=2, cost=float("nan"))

    def test_infinite_cost_rejected(self):
        with pytest.raises(ValidationError):
            Bid(phone_id=0, arrival=1, departure=2, cost=float("inf"))

    def test_non_int_arrival_rejected(self):
        with pytest.raises(ValidationError):
            Bid(phone_id=0, arrival=1.5, departure=2, cost=1.0)

    def test_bool_phone_id_rejected(self):
        with pytest.raises(ValidationError):
            Bid(phone_id=True, arrival=1, departure=2, cost=1.0)


class TestBidBehaviour:
    def test_is_active_inclusive_bounds(self):
        bid = Bid(phone_id=0, arrival=2, departure=4, cost=1.0)
        assert not bid.is_active(1)
        assert bid.is_active(2)
        assert bid.is_active(3)
        assert bid.is_active(4)
        assert not bid.is_active(5)

    def test_active_length(self):
        bid = Bid(phone_id=0, arrival=2, departure=4, cost=1.0)
        assert bid.active_length == 3

    def test_with_cost_creates_new_bid(self):
        bid = Bid(phone_id=0, arrival=1, departure=2, cost=1.0)
        changed = bid.with_cost(9.0)
        assert changed.cost == pytest.approx(9.0)
        assert bid.cost == pytest.approx(1.0)
        assert changed.phone_id == bid.phone_id

    def test_with_window_creates_new_bid(self):
        bid = Bid(phone_id=0, arrival=1, departure=5, cost=1.0)
        changed = bid.with_window(2, 3)
        assert (changed.arrival, changed.departure) == (2, 3)
        assert (bid.arrival, bid.departure) == (1, 5)

    def test_with_window_validates(self):
        bid = Bid(phone_id=0, arrival=1, departure=5, cost=1.0)
        with pytest.raises(ValidationError):
            bid.with_window(4, 2)

    def test_frozen(self):
        bid = Bid(phone_id=0, arrival=1, departure=2, cost=1.0)
        with pytest.raises(Exception):
            bid.cost = 3.0  # type: ignore[misc]

    def test_equality_and_hash(self):
        a = Bid(phone_id=0, arrival=1, departure=2, cost=1.0)
        b = Bid(phone_id=0, arrival=1, departure=2, cost=1.0)
        assert a == b
        assert hash(a) == hash(b)
        assert a != b.with_cost(2.0)

    def test_ordering_by_phone_id_first(self):
        a = Bid(phone_id=0, arrival=9, departure=9, cost=100.0)
        b = Bid(phone_id=1, arrival=1, departure=1, cost=0.0)
        assert a < b


class TestBidSerialisation:
    def test_round_trip(self):
        bid = Bid(phone_id=7, arrival=2, departure=6, cost=3.25)
        assert Bid.from_dict(bid.to_dict()) == bid

    def test_from_dict_missing_key(self):
        with pytest.raises(ValidationError, match="missing key"):
            Bid.from_dict({"phone_id": 1, "arrival": 1, "departure": 2})

    def test_from_dict_rejects_uncoerced_types(self):
        """Values are taken as they are: a bool id, a fractional slot or
        a string cost is refused, not truncated or parsed."""
        valid = {"phone_id": 1, "arrival": 1, "departure": 2, "cost": 3}
        assert Bid.from_dict(valid) == Bid(1, 1, 2, 3.0)
        for key, bad, message in (
            ("phone_id", True, "phone_id must be a number, got bool"),
            ("phone_id", "3", "phone_id must be of type int, got str"),
            ("arrival", 1.9, "arrival must be of type int, got float"),
            ("departure", "2", "departure must be of type int, got str"),
            ("cost", "3", "cost must be of type int, float, got str"),
        ):
            with pytest.raises(ValidationError, match=message):
                Bid.from_dict({**valid, key: bad})


class TestReduce:
    """``Bid.__reduce_ex__`` is ``object.__reduce_ex__``, built directly."""

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_bytes_equal_the_default(self, protocol):
        shared = BIDS + [BIDS[0]]  # a repeat goes through the memo
        assert pickle.dumps(shared, protocol=protocol) == default_pickle(
            shared, protocol
        )
        assert pickle.loads(pickle.dumps(shared, protocol=protocol)) == shared

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_reduce_value_equals_the_default(self, protocol):
        for bid in BIDS:
            ours = bid.__reduce_ex__(protocol)
            default = object.__reduce_ex__(bid, protocol)
            # The default pads protocols >= 2 with two absent iterators.
            assert ours == default[: len(ours)]
            assert all(item is None for item in default[len(ours):])

    @pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy])
    def test_copies_unchanged(self, copier):
        for bid in BIDS:
            copied = copier(bid)
            assert copied == bid and copied is not bid
            assert type(copied) is type(bid)
            assert vars(copied) == vars(bid)
            assert vars(copied) is not vars(bid)
