"""Incremental payments vs re-runs — exact equality.

A :class:`StreamingGreedyEngine` answers Algorithm-2 payments and exact
critical values from records kept during its one allocation pass; the
engine-free path re-runs Algorithm 1 on a fresh engine over the
perturbed bids.  The shortcut must be invisible: every payment has to
match the re-run, and the textbook oracle, bit for bit, across seeds and
both reserve-price modes.  (The class names predate the single engine,
when a snapshot "prober" served the re-runs.)
"""

from __future__ import annotations

import pytest

from repro.errors import MechanismError
from repro.mechanisms.critical_payment import (
    algorithm2_payment,
    exact_critical_payment,
)
from repro.mechanisms.streaming import StreamingGreedyEngine
from repro.simulation import WorkloadConfig
from tests import oracles

SEEDS = range(12)
RESERVE_MODES = (False, True)


def _instance(seed):
    scenario = WorkloadConfig.paper_default().replace(
        num_slots=15
    ).generate(seed=seed)
    return scenario.truthful_bids(), scenario.schedule


class TestProberBaseRun:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("reserve", RESERVE_MODES)
    def test_base_run_equals_cold_allocation(self, seed, reserve):
        bids, schedule = _instance(seed)
        engine = StreamingGreedyEngine(bids, schedule, reserve_price=reserve)
        allocation, win_slots = oracles.greedy_allocation(
            bids, schedule, reserve
        )
        assert engine.base_run.allocation == allocation
        assert list(engine.base_run.win_slots.items()) == list(
            win_slots.items()
        )


class TestAlgorithm2Incremental:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("reserve", RESERVE_MODES)
    def test_equals_cold_payment(self, seed, reserve):
        bids, schedule = _instance(seed)
        engine = StreamingGreedyEngine(bids, schedule, reserve_price=reserve)
        base = engine.base_run
        assert base.win_slots, "expected at least one winner"
        bid_by_phone = engine.bid_by_phone
        for phone_id, win_slot in sorted(base.win_slots.items()):
            winner = bid_by_phone[phone_id]
            cold = algorithm2_payment(
                bids, schedule, winner, win_slot, reserve_price=reserve
            )
            warm = algorithm2_payment(
                bids,
                schedule,
                winner,
                win_slot,
                reserve_price=reserve,
                engine=engine,
            )
            assert warm == cold  # repro: noqa-REP002 -- bitwise equality with the re-run is the property under test
            assert cold == oracles.algorithm2_payment(  # repro: noqa-REP002 -- bitwise equality with the oracle is the property under test
                bids, schedule, winner, win_slot, reserve
            )


class TestExactPaymentIncremental:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("reserve", RESERVE_MODES)
    def test_equals_cold_payment(self, seed, reserve):
        bids, schedule = _instance(seed)
        engine = StreamingGreedyEngine(bids, schedule, reserve_price=reserve)
        bid_by_phone = engine.bid_by_phone
        for phone_id in sorted(engine.base_run.win_slots):
            winner = bid_by_phone[phone_id]
            cold = exact_critical_payment(
                bids, schedule, winner, reserve_price=reserve
            )
            warm = exact_critical_payment(
                bids, schedule, winner, reserve_price=reserve, engine=engine
            )
            assert warm == cold  # repro: noqa-REP002 -- bitwise equality with the re-run is the property under test


class TestProberGuards:
    """An engine built for another auction is refused, never used."""

    def test_rejects_mismatched_reserve(self):
        bids, schedule = _instance(0)
        engine = StreamingGreedyEngine(bids, schedule, reserve_price=False)
        winner_id = next(iter(engine.base_run.win_slots))
        winner = engine.bid_by_phone[winner_id]
        with pytest.raises(MechanismError, match="reserve_price"):
            exact_critical_payment(
                bids, schedule, winner, reserve_price=True, engine=engine
            )

    def test_rejects_different_bid_vector(self):
        bids, schedule = _instance(0)
        other_bids, _ = _instance(1)
        engine = StreamingGreedyEngine(
            other_bids, schedule, reserve_price=False
        )
        winner_id = next(iter(engine.base_run.win_slots))
        winner = engine.bid_by_phone[winner_id]
        with pytest.raises(MechanismError, match="different bid vector"):
            algorithm2_payment(
                bids,
                schedule,
                winner,
                win_slot=1,
                reserve_price=False,
                engine=engine,
            )
