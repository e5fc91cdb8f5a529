"""Unit tests for the incremental crowdsourcing platform."""

from __future__ import annotations

import pytest

from repro.auction import CrowdsourcingPlatform
from repro.auction.events import (
    BidSubmitted,
    PaymentSettled,
    SlotClosed,
    TaskAllocated,
    TasksAnnounced,
    TaskUnserved,
)
from repro.errors import MechanismError
from repro.model import Bid


class TestLifecycle:
    def test_slots_advance(self):
        platform = CrowdsourcingPlatform(num_slots=2)
        assert platform.current_slot == 1
        platform.close_slot()
        assert platform.current_slot == 2
        assert not platform.finished
        platform.close_slot()
        assert platform.finished

    def test_finalize_requires_finish(self):
        platform = CrowdsourcingPlatform(num_slots=2)
        platform.close_slot()
        with pytest.raises(MechanismError, match="not finished"):
            platform.finalize()

    def test_no_submissions_after_finish(self):
        platform = CrowdsourcingPlatform(num_slots=1)
        platform.close_slot()
        with pytest.raises(MechanismError, match="finished"):
            platform.submit_tasks(1, value=5.0)
        with pytest.raises(MechanismError, match="finished"):
            platform.close_slot()

    def test_empty_round_finalizes(self):
        platform = CrowdsourcingPlatform(num_slots=3)
        for _ in range(3):
            platform.close_slot()
        outcome = platform.finalize()
        assert outcome.allocation == {}
        assert outcome.total_payment == pytest.approx(0.0)

    def test_invalid_payment_rule(self):
        with pytest.raises(MechanismError):
            CrowdsourcingPlatform(num_slots=1, payment_rule="bogus")


class TestBidSubmission:
    def test_bid_must_arrive_in_current_slot(self):
        platform = CrowdsourcingPlatform(num_slots=3)
        with pytest.raises(MechanismError, match="arrival slot"):
            platform.submit_bid(
                Bid(phone_id=1, arrival=2, departure=3, cost=1.0)
            )

    def test_departure_within_horizon(self):
        platform = CrowdsourcingPlatform(num_slots=3)
        with pytest.raises(MechanismError, match="horizon"):
            platform.submit_bid(
                Bid(phone_id=1, arrival=1, departure=4, cost=1.0)
            )

    def test_one_bid_per_phone(self):
        platform = CrowdsourcingPlatform(num_slots=3)
        platform.submit_bid(Bid(phone_id=1, arrival=1, departure=2, cost=1.0))
        platform.close_slot()
        with pytest.raises(MechanismError, match="already submitted"):
            platform.submit_bid(
                Bid(phone_id=1, arrival=2, departure=2, cost=1.0)
            )

    def test_pool_size_tracks_active_unallocated(self):
        platform = CrowdsourcingPlatform(num_slots=3)
        platform.submit_bid(Bid(phone_id=1, arrival=1, departure=1, cost=1.0))
        platform.submit_bid(Bid(phone_id=2, arrival=1, departure=3, cost=2.0))
        assert platform.pool_size == 2
        platform.close_slot()  # no tasks; phone 1 departs after slot 1
        assert platform.pool_size == 1


class TestAllocationAndPayment:
    def test_cheapest_wins_and_paid_at_departure(self):
        platform = CrowdsourcingPlatform(num_slots=2)
        platform.submit_bid(Bid(phone_id=1, arrival=1, departure=2, cost=1.0))
        platform.submit_bid(Bid(phone_id=2, arrival=1, departure=2, cost=5.0))
        platform.submit_tasks(1, value=10.0)
        platform.close_slot()
        # Winner decided in slot 1 but settled at departure (slot 2).
        settled_slot1 = [
            e for e in platform.events if isinstance(e, PaymentSettled)
        ]
        assert settled_slot1 == []
        platform.close_slot()
        outcome = platform.finalize()
        assert outcome.winners == (1,)
        assert outcome.payment(1) == pytest.approx(5.0)
        assert outcome.payment_slot(1) == 2

    def test_unserved_task_event(self):
        platform = CrowdsourcingPlatform(num_slots=1)
        platform.submit_tasks(1, value=10.0)
        platform.close_slot()
        assert any(
            isinstance(e, TaskUnserved) for e in platform.events
        )

    def test_task_values_and_ids_sequential(self):
        platform = CrowdsourcingPlatform(num_slots=2)
        created = platform.submit_tasks(2, value=7.0)
        assert [t.task_id for t in created] == [0, 1]
        assert [t.index for t in created] == [1, 2]
        platform.close_slot()
        more = platform.submit_tasks(1, value=7.0)
        assert more[0].task_id == 2
        assert more[0].slot == 2

    def test_negative_task_count_rejected(self):
        platform = CrowdsourcingPlatform(num_slots=1)
        with pytest.raises(MechanismError):
            platform.submit_tasks(-1, value=5.0)

    def test_reserve_price_enforced(self):
        platform = CrowdsourcingPlatform(num_slots=1, reserve_price=True)
        platform.submit_bid(
            Bid(phone_id=1, arrival=1, departure=1, cost=50.0)
        )
        platform.submit_tasks(1, value=10.0)
        platform.close_slot()
        assert platform.finalize().allocation == {}


class TestEventLog:
    def test_event_sequence(self):
        platform = CrowdsourcingPlatform(num_slots=1)
        platform.submit_bid(Bid(phone_id=1, arrival=1, departure=1, cost=2.0))
        platform.submit_tasks(1, value=10.0)
        platform.close_slot()
        kinds = [type(e) for e in platform.events]
        assert kinds == [
            BidSubmitted,
            TasksAnnounced,
            TaskAllocated,
            PaymentSettled,
            SlotClosed,
        ]

    def test_events_describe(self):
        platform = CrowdsourcingPlatform(num_slots=1)
        platform.submit_bid(Bid(phone_id=1, arrival=1, departure=1, cost=2.0))
        platform.submit_tasks(1, value=10.0)
        platform.close_slot()
        for event in platform.events:
            text = event.describe()
            assert "[slot 1]" in text


class TestApiGuards:
    def test_double_finalize_rejected(self):
        platform = CrowdsourcingPlatform(num_slots=1)
        platform.close_slot()
        platform.finalize()
        with pytest.raises(MechanismError, match="exactly one outcome"):
            platform.finalize()

    def test_advance_to_closes_empty_slots(self):
        platform = CrowdsourcingPlatform(num_slots=5)
        platform.advance_to(4)
        assert platform.current_slot == 4

    def test_advance_to_backwards_rejected(self):
        platform = CrowdsourcingPlatform(num_slots=5)
        platform.advance_to(3)
        with pytest.raises(MechanismError, match="monotonically"):
            platform.advance_to(2)

    def test_advance_past_horizon_rejected(self):
        platform = CrowdsourcingPlatform(num_slots=5)
        with pytest.raises(MechanismError, match="horizon"):
            platform.advance_to(6)

    def test_negative_max_reassignments_rejected(self):
        with pytest.raises(MechanismError, match="max_reassignments"):
            CrowdsourcingPlatform(num_slots=1, max_reassignments=-1)


class TestFaultReportGuards:
    def test_dropout_requires_a_bid(self):
        platform = CrowdsourcingPlatform(num_slots=2)
        with pytest.raises(MechanismError, match="never submitted"):
            platform.report_dropout(9)

    def test_double_dropout_rejected(self):
        platform = CrowdsourcingPlatform(num_slots=3)
        platform.submit_bid(Bid(phone_id=1, arrival=1, departure=3, cost=1.0))
        platform.report_dropout(1)
        with pytest.raises(MechanismError, match="already dropped"):
            platform.report_dropout(1)

    def test_dropout_after_reported_departure_rejected(self):
        platform = CrowdsourcingPlatform(num_slots=3)
        platform.submit_bid(Bid(phone_id=1, arrival=1, departure=1, cost=1.0))
        platform.close_slot()
        with pytest.raises(MechanismError, match="already left"):
            platform.report_dropout(1)

    def test_failure_requires_a_bid(self):
        platform = CrowdsourcingPlatform(num_slots=2)
        with pytest.raises(MechanismError, match="never"):
            platform.report_task_failure(9)

    def test_failure_after_delivery_rejected(self):
        platform = CrowdsourcingPlatform(num_slots=2)
        platform.submit_bid(Bid(phone_id=1, arrival=1, departure=1, cost=1.0))
        platform.submit_tasks(1, value=10.0)
        platform.close_slot()  # phone 1 settles at its departure (slot 1)
        with pytest.raises(MechanismError, match="already delivered"):
            platform.report_task_failure(1)

    def test_failure_after_dropout_rejected(self):
        platform = CrowdsourcingPlatform(num_slots=3)
        platform.submit_bid(Bid(phone_id=1, arrival=1, departure=3, cost=1.0))
        platform.report_dropout(1)
        with pytest.raises(MechanismError, match="redundant"):
            platform.report_task_failure(1)

    def test_reports_rejected_after_finish(self):
        platform = CrowdsourcingPlatform(num_slots=1)
        platform.submit_bid(Bid(phone_id=1, arrival=1, departure=1, cost=1.0))
        platform.close_slot()
        with pytest.raises(MechanismError, match="finished"):
            platform.report_dropout(1)
        with pytest.raises(MechanismError, match="finished"):
            platform.report_task_failure(1)


def _pool_walk(platform):
    """``pool_size`` as the platform once computed it: a walk over the
    whole heap at every call."""
    return sum(
        1
        for _, bid in platform._pool
        if bid.departure >= platform.current_slot
        and bid.phone_id not in platform._dropped
        and bid.phone_id not in platform._failed
    )


class TestPoolSize:
    """The incremental pool count equals the heap walk after every
    command of seeded faulty rounds (dropouts, failures, reassignment
    chains, with and without a reserve price)."""

    @pytest.mark.parametrize("reserve_price", [False, True])
    def test_matches_the_heap_walk_over_faulty_rounds(self, reserve_price):
        from repro.auction.round_driver import round_commands
        from repro.faults import FaultConfig, FaultInjector
        from repro.faults.recovery import apply_bid_faults
        from repro.simulation import WorkloadConfig

        workload = WorkloadConfig(
            num_slots=8,
            phone_rate=3.0,
            task_rate=1.5,
            mean_cost=10.0,
            mean_active_length=3,
            task_value=14.0,
        )
        faults = FaultConfig(
            dropout_prob=0.3, task_failure_prob=0.3, bid_delay_prob=0.1
        )
        seen = set()
        for seed in range(25):
            scenario = workload.generate(seed=seed)
            plan = FaultInjector(faults).plan(scenario, seed=seed)
            bids, _, _ = apply_bid_faults(
                list(scenario.truthful_bids()), plan
            )
            platform = CrowdsourcingPlatform(
                num_slots=scenario.num_slots,
                reserve_price=reserve_price,
                max_reassignments=plan.config.max_reassignments,
            )
            for command in round_commands(bids, scenario, plan):
                platform.apply(command)
                assert platform.pool_size == _pool_walk(platform), (
                    f"seed {seed}: pool size after {command!r}"
                )
            seen.update(type(event).__name__ for event in platform.events)
        assert {"PhoneDropped", "TaskFailed", "TaskReassigned"} <= seen
