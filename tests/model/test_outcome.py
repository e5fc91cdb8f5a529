"""Unit tests for AuctionOutcome validation and accessors."""

from __future__ import annotations

import pytest

from repro.errors import MechanismError
from repro.model import AuctionOutcome, Bid, TaskSchedule


@pytest.fixture
def schedule():
    return TaskSchedule.from_counts([1, 1, 1], value=10.0)


@pytest.fixture
def bids():
    return [
        Bid(phone_id=1, arrival=1, departure=2, cost=3.0),
        Bid(phone_id=2, arrival=1, departure=3, cost=4.0),
        Bid(phone_id=3, arrival=2, departure=3, cost=6.0),
    ]


@pytest.fixture
def outcome(bids, schedule):
    return AuctionOutcome(
        bids=bids,
        schedule=schedule,
        allocation={0: 1, 1: 3},
        payments={1: 5.0, 3: 7.0},
        payment_slots={1: 2, 3: 3},
    )


class TestValidation:
    def test_unknown_task_rejected(self, bids, schedule):
        with pytest.raises(MechanismError, match="unknown task_id"):
            AuctionOutcome(bids, schedule, allocation={9: 1}, payments={})

    def test_unknown_phone_rejected(self, bids, schedule):
        with pytest.raises(MechanismError, match="unknown phone_id"):
            AuctionOutcome(bids, schedule, allocation={0: 9}, payments={})

    def test_phone_allocated_twice_rejected(self, bids, schedule):
        with pytest.raises(MechanismError, match="more than one task"):
            AuctionOutcome(
                bids, schedule, allocation={0: 1, 1: 1}, payments={}
            )

    def test_inactive_phone_allocation_rejected(self, bids, schedule):
        # Phone 1's claimed window is [1, 2]; task 2 is in slot 3.
        with pytest.raises(MechanismError, match="claimed window"):
            AuctionOutcome(bids, schedule, allocation={2: 1}, payments={})

    def test_payment_for_unknown_phone_rejected(self, bids, schedule):
        with pytest.raises(MechanismError, match="unknown phone_id"):
            AuctionOutcome(bids, schedule, allocation={}, payments={9: 1.0})

    def test_payment_slot_outside_round_rejected(self, bids, schedule):
        with pytest.raises(MechanismError, match="outside the round"):
            AuctionOutcome(
                bids,
                schedule,
                allocation={0: 1},
                payments={1: 5.0},
                payment_slots={1: 4},
            )

    def test_duplicate_bid_rejected(self, bids, schedule):
        with pytest.raises(MechanismError, match="duplicate bid"):
            AuctionOutcome(
                bids + [bids[0]], schedule, allocation={}, payments={}
            )

    def test_first_duplicate_bid_named(self, bids, schedule):
        with pytest.raises(MechanismError, match="duplicate bid for phone 2"):
            AuctionOutcome(
                bids + [bids[1], bids[0]], schedule, allocation={}, payments={}
            )

    def test_first_bad_entry_in_check_order_reported(self, bids, schedule):
        # The allocation is checked before payments, and its entries in
        # order: the valid first winner passes, the unknown task fails.
        with pytest.raises(MechanismError, match="unknown task_id 9"):
            AuctionOutcome(
                bids,
                schedule,
                allocation={0: 1, 9: 2, 2: 7},
                payments={8: 1.0},
                payment_slots={1: 99},
            )
        with pytest.raises(MechanismError, match="payment recorded for"):
            AuctionOutcome(
                bids,
                schedule,
                allocation={0: 1},
                payments={8: 1.0},
                payment_slots={7: 99},
            )
        with pytest.raises(MechanismError, match="payment slot recorded for"):
            AuctionOutcome(
                bids,
                schedule,
                allocation={0: 1},
                payments={1: 1.0},
                payment_slots={7: 1, 1: 99},
            )

    def test_insertion_orders_follow_the_inputs(self, bids, schedule):
        """Pickled outcomes keep the callers' orders, not sorted ones."""
        outcome = AuctionOutcome(
            bids[::-1],
            schedule,
            allocation={1: 3, 0: 1},
            payments={3: 7.0, 1: 5.0},
        )
        state = vars(outcome)
        assert list(state["_bids_by_phone"]) == [3, 2, 1]
        assert list(state["_phone_to_task"]) == [3, 1]


class TestAccessors:
    def test_winners_sorted(self, outcome):
        assert outcome.winners == (1, 3)

    def test_is_winner(self, outcome):
        assert outcome.is_winner(1)
        assert not outcome.is_winner(2)

    def test_task_of(self, outcome, schedule):
        assert outcome.task_of(1).task_id == 0
        assert outcome.task_of(2) is None

    def test_phone_of(self, outcome):
        assert outcome.phone_of(0) == 1
        assert outcome.phone_of(2) is None

    def test_served_and_unserved(self, outcome):
        assert [t.task_id for t in outcome.served_tasks] == [0, 1]
        assert [t.task_id for t in outcome.unserved_tasks] == [2]

    def test_payment_defaults_to_zero(self, outcome):
        assert outcome.payment(2) == pytest.approx(0.0)

    def test_payment_unknown_phone(self, outcome):
        with pytest.raises(MechanismError):
            outcome.payment(9)

    def test_payment_slot(self, outcome):
        assert outcome.payment_slot(1) == 2
        # Unrecorded settles at round end.
        assert outcome.payment_slot(2) == 3

    def test_total_payment(self, outcome):
        assert outcome.total_payment == pytest.approx(12.0)

    def test_bid_of(self, outcome):
        assert outcome.bid_of(2).cost == pytest.approx(4.0)
        with pytest.raises(MechanismError):
            outcome.bid_of(9)

    def test_bids_ordered_by_phone(self, outcome):
        assert [b.phone_id for b in outcome.bids] == [1, 2, 3]


class TestClaimedWelfare:
    def test_value_minus_claimed_costs(self, outcome):
        # tasks 0 and 1 are worth 10 each; winners claimed 3 and 6.
        assert outcome.claimed_welfare == pytest.approx((10 - 3) + (10 - 6))

    def test_empty_allocation_zero(self, bids, schedule):
        empty = AuctionOutcome(bids, schedule, allocation={}, payments={})
        assert empty.claimed_welfare == pytest.approx(0.0)

    def test_equality(self, bids, schedule, outcome):
        twin = AuctionOutcome(
            bids,
            schedule,
            allocation={0: 1, 1: 3},
            payments={1: 5.0, 3: 7.0},
            payment_slots={1: 2, 3: 3},
        )
        assert outcome == twin
