"""The one-pass VCG replacement payments of the offline mechanism.

With one task value ``ν`` the matchable phone sets form a transversal
matroid, and :meth:`TaskAssignmentGraph.welfare_without_each_winner`
prices every winner from the solved allocation in one pass.  These tests
hold it to the per-winner matching repair
(:meth:`TaskAssignmentGraph.welfare_without_phone`) byte for byte, check
the closed form ``p_i = ν − g_j`` (``ν`` without a replacement) on
hand-built rounds, and check that a non-optimal allocation is refused.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import MatchingError
from repro.matching.graph import (
    TaskAssignmentGraph,
    _sum_exchanged_gains,
    _sum_gains,
)
from repro.model import AuctionOutcome, Bid, SensingTask, TaskSchedule
from repro.simulation import WorkloadConfig
from tests.matching.engines import COLD_ENGINES, forced_engine, offline_vcg, solve

VALUE = 10.0


def _repair_outcome(bids, schedule, engine):
    """The offline VCG outcome priced by one matching repair per winner.

    A cold reference has no repair; it re-solves without each winner.
    """
    if engine in COLD_ENGINES:
        allocation, welfare = solve(schedule, bids, engine)

        def welfare_without(phone_id):
            return solve(schedule, bids, engine, exclude_phone=phone_id)[1]

    else:
        with forced_engine(engine):
            graph = TaskAssignmentGraph(schedule, bids)
        allocation, welfare = graph.solve()
        welfare_without = graph.welfare_without_phone
    bid_by_phone = {bid.phone_id: bid for bid in bids}
    payments = {}
    payment_slots = {}
    for phone_id in sorted(set(allocation.values())):
        bid = bid_by_phone[phone_id]
        payments[phone_id] = welfare + bid.cost - welfare_without(phone_id)
        payment_slots[phone_id] = bid.departure
    return AuctionOutcome(
        bids=bids,
        schedule=schedule,
        allocation=allocation,
        payments=payments,
        payment_slots=payment_slots,
    )


def _assert_matches_repair(bids, schedule, engine=None):
    outcome = offline_vcg(bids, schedule, engine)
    reference = _repair_outcome(bids, schedule, engine)
    assert pickle.dumps(outcome) == pickle.dumps(reference)
    return outcome


# Table I rounds.  The pure-Python and scipy references re-solve from
# scratch for every winner, so they run Table I's rates over a shorter
# horizon to keep the suite fast.
ENGINE_HORIZONS = [("dense", 50), ("sparse", 50), ("python", 6), ("scipy", 15)]


@pytest.mark.parametrize("engine,num_slots", ENGINE_HORIZONS)
def test_table_one_rounds_match_the_repair_byte_for_byte(engine, num_slots):
    config = WorkloadConfig(num_slots=num_slots)
    winners = 0
    for seed in range(32):
        scenario = config.generate(seed=seed)
        outcome = _assert_matches_repair(
            scenario.truthful_bids(), scenario.schedule, engine
        )
        winners += len(outcome.payments)
    assert winners > 32


def test_integer_cost_ties_match_the_repair():
    """Tie-saturated rounds: many equal gains, many tied optima."""
    rng = np.random.default_rng(5)
    for _ in range(200):
        num_slots = int(rng.integers(1, 7))
        schedule = TaskSchedule.from_counts(
            rng.integers(0, 3, num_slots).tolist(), value=VALUE
        )
        bids = []
        for phone_id in range(int(rng.integers(1, 10))):
            arrival = int(rng.integers(1, num_slots + 1))
            bids.append(
                Bid(
                    phone_id=phone_id,
                    arrival=arrival,
                    departure=int(rng.integers(arrival, num_slots + 1)),
                    cost=float(rng.integers(1, 13)),
                )
            )
        _assert_matches_repair(bids, schedule)


def _bid(phone_id, arrival, departure, cost):
    return Bid(phone_id=phone_id, arrival=arrival, departure=departure, cost=cost)


def _payments(bids, counts):
    schedule = TaskSchedule.from_counts(counts, value=VALUE)
    return _assert_matches_repair(bids, schedule).payments


class TestClosedForm:
    def test_winner_without_replacement_is_paid_the_task_value(self):
        """Loser 2 is unprofitable and loser 3 only covers an empty slot."""
        bids = [_bid(1, 1, 1, 3.0), _bid(2, 1, 1, 12.0), _bid(3, 2, 2, 1.0)]
        assert _payments(bids, [1, 0]) == {1: VALUE}

    def test_closure_chains_through_several_windows(self):
        """Loser 6 reaches slot 4 only through winners 1, 2 and 3.

        Loser 5 is cheaper but its closure is slot 4 alone, so it
        replaces winner 4 and loser 6 replaces the other three.
        """
        bids = [
            _bid(1, 1, 2, 1.0),
            _bid(2, 2, 3, 2.0),
            _bid(3, 3, 4, 3.0),
            _bid(4, 4, 4, 4.0),
            _bid(5, 4, 4, 5.0),
            _bid(6, 1, 1, 6.0),
        ]
        assert _payments(bids, [1, 1, 1, 1]) == {1: 6.0, 2: 6.0, 3: 6.0, 4: 5.0}

    def test_integer_cost_ties(self):
        bids = [_bid(1, 1, 2, 3.0), _bid(2, 1, 1, 3.0), _bid(3, 2, 2, 3.0)]
        payments = _payments(bids, [1, 1])
        assert len(payments) == 2
        assert set(payments.values()) == {3.0}

    def test_zero_task_slot_inside_a_loser_window(self):
        """Loser 4 spans the empty slot 2; loser 3 covers it alone."""
        bids = [
            _bid(1, 1, 1, 1.0),
            _bid(2, 3, 3, 2.0),
            _bid(3, 2, 2, 0.5),
            _bid(4, 1, 3, 5.0),
        ]
        assert _payments(bids, [1, 0, 1]) == {1: 5.0, 2: 5.0}

    def test_loser_window_past_the_last_task_slot(self):
        bids = [
            _bid(1, 1, 1, 1.0),
            _bid(2, 2, 4, 2.0),
            _bid(3, 2, 4, 5.0),
            _bid(4, 3, 4, 0.5),
        ]
        assert _payments(bids, [1, 1, 0, 0]) == {1: VALUE, 2: 5.0}

    def test_all_unprofitable_round(self):
        bids = [_bid(1, 1, 2, 11.0), _bid(2, 1, 1, 10.0)]
        schedule = TaskSchedule.from_counts([1, 1], value=VALUE)
        graph = TaskAssignmentGraph(schedule, bids)
        assert graph.welfare_without_each_winner({}) == {}
        outcome = _assert_matches_repair(bids, schedule)
        assert outcome.allocation == {}
        assert outcome.payments == {}


class TestRefusals:
    @pytest.mark.parametrize(
        "bids,counts,allocation",
        [
            # Task 1 shares slot 1 with task 0 and the cheaper loser.
            ([_bid(1, 1, 1, 1.0), _bid(2, 1, 1, 2.0)], [2], {0: 2}),
            # The unserved task at slot 2 is reached only through winner 1.
            ([_bid(1, 1, 2, 1.0), _bid(2, 1, 1, 2.0)], [1, 1], {0: 1}),
        ],
    )
    def test_unserved_task_in_a_loser_closure(self, bids, counts, allocation):
        schedule = TaskSchedule.from_counts(counts, value=VALUE)
        graph = TaskAssignmentGraph(schedule, bids)
        with pytest.raises(MatchingError, match="not optimal"):
            graph.welfare_without_each_winner(allocation)

    def test_pair_outside_the_phone_window(self):
        schedule = TaskSchedule.from_counts([1, 1], value=VALUE)
        graph = TaskAssignmentGraph(schedule, [_bid(1, 1, 1, 1.0)])
        with pytest.raises(MatchingError, match="cannot profitably serve"):
            graph.welfare_without_each_winner({1: 1})

    def test_heterogeneous_values_keep_the_repair(self):
        mixed = TaskSchedule(
            num_slots=1,
            tasks=[
                SensingTask(task_id=0, slot=1, index=1, value=VALUE),
                SensingTask(task_id=1, slot=1, index=2, value=20.0),
            ],
        )
        bids = [_bid(1, 1, 1, 1.0), _bid(2, 1, 1, 4.0)]
        graph = TaskAssignmentGraph(mixed, bids)
        assert not graph.is_interval_matroid
        with pytest.raises(MatchingError, match="uniform task values"):
            graph.welfare_without_each_winner({})
        _assert_matches_repair(bids, mixed)


def test_exchanged_gain_sums_equal_one_dimensional_sums():
    """Row-wise totals keep ``_sum_gains``' bits, past numpy's buffer size."""
    rng = np.random.default_rng(3)
    for size in (1, 2, 9, 130, 1000, 9000):
        base = np.sort(rng.random(size) * 40.0)
        drop = rng.integers(0, size, 5)
        added = rng.random(5) * 40.0
        removed = _sum_exchanged_gains(base, drop, None)
        exchanged = _sum_exchanged_gains(base, drop, added)
        for k in range(5):
            rest = np.delete(base, drop[k])
            assert removed[k] == _sum_gains(rest)
            assert exchanged[k] == _sum_gains(np.append(rest, added[k]))


def test_city_scale_sampled_winners_match_the_repair():
    """~10⁴ phones, where the graph picks the sparse engine."""
    scenario = WorkloadConfig(num_slots=1000, phone_rate=10.0).generate(seed=7)
    bids = scenario.truthful_bids()
    graph = TaskAssignmentGraph(scenario.schedule, bids)
    assert graph.engine == "sparse"
    assert len(bids) > 9000
    allocation, welfare = graph.solve()
    without = graph.welfare_without_each_winner(allocation)
    assert len(without) == len(set(allocation.values()))
    bid_by_phone = {bid.phone_id: bid for bid in bids}
    sample = np.random.default_rng(0).choice(sorted(without), 50, replace=False)
    for phone_id in sample.tolist():
        cost = bid_by_phone[phone_id].cost
        one_pass = welfare + cost - without[phone_id]
        repaired = welfare + cost - graph.welfare_without_phone(phone_id)
        assert one_pass == repaired  # repro: noqa-REP002 -- bitwise payments

