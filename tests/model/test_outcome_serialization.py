"""Unit tests for AuctionOutcome serialization (experiment archiving)."""

from __future__ import annotations

import json

import pytest

from repro.errors import MechanismError, ValidationError
from repro.mechanisms import OfflineVCGMechanism, OnlineGreedyMechanism
from repro.model import AuctionOutcome
from repro.simulation import WorkloadConfig


@pytest.fixture
def outcome():
    scenario = WorkloadConfig(
        num_slots=6,
        phone_rate=2.0,
        task_rate=1.0,
        mean_cost=5.0,
        mean_active_length=2,
        task_value=10.0,
    ).generate(seed=1)
    return OnlineGreedyMechanism().run(
        scenario.truthful_bids(), scenario.schedule
    )


class TestRoundTrip:
    def test_dict_round_trip(self, outcome):
        assert AuctionOutcome.from_dict(outcome.to_dict()) == outcome

    def test_json_round_trip(self, outcome):
        payload = json.loads(json.dumps(outcome.to_dict()))
        restored = AuctionOutcome.from_dict(payload)
        assert restored == outcome
        assert restored.claimed_welfare == pytest.approx(
            outcome.claimed_welfare
        )
        assert restored.total_payment == pytest.approx(
            outcome.total_payment
        )

    def test_offline_outcome_round_trip(self):
        scenario = WorkloadConfig(
            num_slots=5,
            phone_rate=2.0,
            task_rate=1.0,
            mean_cost=5.0,
            mean_active_length=2,
            task_value=10.0,
        ).generate(seed=2)
        outcome = OfflineVCGMechanism().run(
            scenario.truthful_bids(), scenario.schedule
        )
        assert AuctionOutcome.from_dict(outcome.to_dict()) == outcome

    def test_payment_slots_preserved(self, outcome):
        restored = AuctionOutcome.from_dict(outcome.to_dict())
        for phone_id in outcome.winners:
            assert restored.payment_slot(phone_id) == outcome.payment_slot(
                phone_id
            )


class TestFailureModes:
    def test_missing_field(self, outcome):
        payload = outcome.to_dict()
        del payload["allocation"]
        with pytest.raises(MechanismError, match="malformed"):
            AuctionOutcome.from_dict(payload)

    def test_reconstruction_revalidates(self, outcome):
        """Tampered payloads are caught by the constructor's checks."""
        payload = outcome.to_dict()
        if payload["allocation"]:
            task_id = next(iter(payload["allocation"]))
            payload["allocation"][task_id] = 999_999  # unknown phone
            with pytest.raises(MechanismError):
                AuctionOutcome.from_dict(payload)

    def test_bid_values_are_not_coerced(self, outcome):
        """A fractional slot or a string cost in an archived bid is
        refused, not truncated or parsed."""
        for key, bad in (("arrival", 1.9), ("cost", "3"), ("phone_id", True)):
            payload = outcome.to_dict()
            payload["bids"][0][key] = bad
            with pytest.raises(ValidationError, match=key):
                AuctionOutcome.from_dict(payload)

    def test_non_mapping_payload(self):
        with pytest.raises(MechanismError):
            AuctionOutcome.from_dict({"bids": None})  # type: ignore[dict-item]
