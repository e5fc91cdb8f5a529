"""Unit tests for SmartphoneProfile and the misreport constraints."""

from __future__ import annotations

import pytest

from repro.errors import BidConstraintError, ValidationError
from repro.model import Bid, SmartphoneProfile


@pytest.fixture
def profile():
    return SmartphoneProfile(phone_id=5, arrival=2, departure=6, cost=10.0)


class TestProfileConstruction:
    def test_fields(self, profile):
        assert profile.phone_id == 5
        assert profile.arrival == 2
        assert profile.departure == 6
        assert profile.cost == pytest.approx(10.0)

    def test_active_length(self, profile):
        assert profile.active_length == 5

    def test_is_active(self, profile):
        assert not profile.is_active(1)
        assert profile.is_active(2)
        assert profile.is_active(6)
        assert not profile.is_active(7)

    def test_invalid_window_rejected(self):
        with pytest.raises(ValidationError):
            SmartphoneProfile(phone_id=0, arrival=5, departure=4, cost=1.0)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValidationError):
            SmartphoneProfile(phone_id=0, arrival=1, departure=2, cost=-1.0)


class TestTruthfulBid:
    def test_truthful_bid_mirrors_profile(self, profile):
        bid = profile.truthful_bid()
        assert bid == Bid(phone_id=5, arrival=2, departure=6, cost=10.0)

    def test_truthful_bid_is_feasible(self, profile):
        assert profile.is_feasible_claim(profile.truthful_bid())


class TestClaimConstraints:
    def test_delayed_arrival_feasible(self, profile):
        bid = Bid(phone_id=5, arrival=4, departure=6, cost=99.0)
        assert profile.is_feasible_claim(bid)
        assert profile.check_claim(bid) is bid

    def test_early_departure_feasible(self, profile):
        bid = Bid(phone_id=5, arrival=2, departure=3, cost=0.0)
        assert profile.is_feasible_claim(bid)

    def test_any_cost_feasible(self, profile):
        assert profile.is_feasible_claim(
            Bid(phone_id=5, arrival=2, departure=6, cost=1e9)
        )

    def test_early_arrival_infeasible(self, profile):
        bid = Bid(phone_id=5, arrival=1, departure=6, cost=10.0)
        assert not profile.is_feasible_claim(bid)
        with pytest.raises(BidConstraintError, match="early-arrival"):
            profile.check_claim(bid)

    def test_late_departure_infeasible(self, profile):
        bid = Bid(phone_id=5, arrival=2, departure=7, cost=10.0)
        assert not profile.is_feasible_claim(bid)
        with pytest.raises(BidConstraintError, match="late-departure"):
            profile.check_claim(bid)

    def test_wrong_phone_rejected(self, profile):
        bid = Bid(phone_id=6, arrival=2, departure=6, cost=10.0)
        assert not profile.is_feasible_claim(bid)
        with pytest.raises(BidConstraintError, match="belongs to"):
            profile.check_claim(bid)


class TestUtility:
    def test_winner_utility(self, profile):
        assert profile.utility(payment=15.0, allocated=True) == pytest.approx(5.0)

    def test_loser_utility_zero_payment(self, profile):
        assert profile.utility(payment=0.0, allocated=False) == pytest.approx(0.0)

    def test_loser_with_payment_is_pure_gain(self, profile):
        assert profile.utility(payment=3.0, allocated=False) == pytest.approx(3.0)

    def test_underpaid_winner_negative(self, profile):
        assert profile.utility(payment=4.0, allocated=True) == pytest.approx(-6.0)


class TestSerialisation:
    def test_round_trip(self, profile):
        assert SmartphoneProfile.from_dict(profile.to_dict()) == profile

    def test_missing_key(self):
        with pytest.raises(ValidationError, match="missing key"):
            SmartphoneProfile.from_dict({"phone_id": 1})


class TestFromDictTypes:
    """Trace values are validated as read, never coerced."""

    @pytest.mark.parametrize(
        "field,value",
        [
            ("phone_id", True),
            ("phone_id", 1.0),
            ("arrival", "x"),
            ("arrival", 1.9),
            ("arrival", False),
            ("departure", 2.5),
            ("cost", "3"),
            ("cost", True),
            ("cost", None),
        ],
    )
    def test_wrong_json_type_rejected(self, field, value):
        payload = {"phone_id": 1, "arrival": 1, "departure": 2, "cost": 3.0}
        payload[field] = value
        with pytest.raises(ValidationError, match=field):
            SmartphoneProfile.from_dict(payload)

    def test_integer_cost_accepted_as_float(self):
        profile = SmartphoneProfile.from_dict(
            {"phone_id": 1, "arrival": 1, "departure": 2, "cost": 3}
        )
        assert isinstance(profile.cost, float)
        assert profile.cost == pytest.approx(3.0)
