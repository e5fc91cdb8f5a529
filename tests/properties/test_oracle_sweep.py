"""Both mechanisms against the textbook oracles, on thousands of tiny rounds.

The online mechanism's pickled outcome must equal the one
:func:`tests.oracles.online_outcome` builds — same allocation, same
payment for every winner, same dict order — under both payment rules and
both reserve modes.  The offline VCG mechanism must reach the brute-force
optimum and pay every winner the brute-force VCG amount.

The rounds are the Fig. 4/5 scale: at most 7 phones and 4 slots, up to 3
tasks per slot.  Costs are small integers, so ties are everywhere; many
rounds have fewer phones than tasks (unsaturated); half use one task
value for every task and half draw a value per task.

Exact float equality on money is the point of the online half, hence
the REP002 suppressions.
"""

import pickle

import numpy as np
import pytest

from repro.mechanisms import OfflineVCGMechanism, OnlineGreedyMechanism
from repro.model.bid import Bid
from repro.model.task import SensingTask, TaskSchedule
from tests import oracles

#: 2,000 rounds, checked in 20 chunks so a failure names its seed range.
CHUNKS = range(20)
CHUNK_SIZE = 100

MODES = [
    (reserve_price, payment_rule)
    for reserve_price in (False, True)
    for payment_rule in ("paper", "exact")
]


def tiny_round(seed):
    """One random round: ≤ 7 phones, ≤ 4 slots, integer costs."""
    rng = np.random.default_rng(seed)
    num_slots = int(rng.integers(1, 5))
    uniform = seed % 2 == 0
    value = float(rng.integers(6, 13))
    tasks = []
    for slot in range(1, num_slots + 1):
        for index in range(1, int(rng.integers(0, 4)) + 1):
            tasks.append(
                SensingTask(
                    task_id=len(tasks),
                    slot=slot,
                    index=index,
                    value=value if uniform else float(rng.integers(4, 14)),
                )
            )
    bids = []
    for phone_id in range(int(rng.integers(0, 8))):
        arrival = int(rng.integers(1, num_slots + 1))
        bids.append(
            Bid(
                phone_id=phone_id,
                arrival=arrival,
                departure=int(rng.integers(arrival, num_slots + 1)),
                cost=float(rng.integers(1, 13)),
            )
        )
    return bids, TaskSchedule(num_slots, tasks)


def _seeds(chunk):
    return range(chunk * CHUNK_SIZE, (chunk + 1) * CHUNK_SIZE)


def test_sweep_covers_the_hard_regimes():
    """The generator really produces ties, unsaturated and mixed rounds."""
    rounds = [tiny_round(seed) for seed in range(CHUNK_SIZE * len(CHUNKS))]
    unsaturated = sum(
        len(bids) < len(schedule) for bids, schedule in rounds
    )
    tied = sum(
        len({bid.cost for bid in bids}) < len(bids) for bids, _ in rounds
    )
    heterogeneous = sum(
        schedule.uniform_value is None for _, schedule in rounds
    )
    assert len(rounds) >= 2_000
    assert unsaturated >= 200
    assert tied >= 500
    assert heterogeneous >= 200


@pytest.mark.parametrize("chunk", CHUNKS)
def test_online_mechanism_matches_the_oracle(chunk):
    for seed in _seeds(chunk):
        bids, schedule = tiny_round(seed)
        for reserve_price, payment_rule in MODES:
            got = OnlineGreedyMechanism(
                reserve_price=reserve_price, payment_rule=payment_rule
            ).run(bids, schedule)
            want = oracles.online_outcome(
                bids, schedule, reserve_price, payment_rule
            )
            assert got.allocation == want.allocation, (seed, reserve_price)
            assert got.payments == want.payments, (  # repro: noqa-REP002 -- exact equality with the oracle is the property under test
                seed,
                reserve_price,
                payment_rule,
            )
            assert pickle.dumps(got) == pickle.dumps(want), seed
            if payment_rule == "exact":
                # The short scan the 50-seed suite relies on agrees.
                short = oracles.online_outcome(
                    bids, schedule, reserve_price, "exact", exhaustive=False
                )
                assert pickle.dumps(short) == pickle.dumps(want), seed


@pytest.mark.parametrize("chunk", CHUNKS)
def test_offline_vcg_matches_brute_force(chunk):
    for seed in _seeds(chunk):
        bids, schedule = tiny_round(seed)
        outcome = OfflineVCGMechanism().run(bids, schedule)
        welfare, payments = oracles.vcg_reference(bids, schedule)
        cost_of = {bid.phone_id: bid.cost for bid in bids}
        achieved = sum(
            schedule.task(task_id).value - cost_of[phone_id]
            for task_id, phone_id in outcome.allocation.items()
        )
        assert achieved == pytest.approx(welfare, abs=1e-9), seed
        for phone_id, amount in outcome.payments.items():
            assert amount == pytest.approx(
                payments[phone_id], abs=1e-9
            ), (seed, phone_id)


@pytest.mark.parametrize("reserve_price", [False, True])
def test_winning_is_monotone_in_claimed_cost(reserve_price):
    """Theorem 4's premise: a winner wins in a prefix of regions."""
    for seed in range(400):
        bids, schedule = tiny_round(seed)
        _, win_slots = oracles.greedy_allocation(
            bids, schedule, reserve_price
        )
        for bid in bids:
            if bid.phone_id not in win_slots:
                continue
            _, wins = oracles.threshold_regions(
                bids, schedule, bid, reserve_price
            )
            assert wins == sorted(wins, reverse=True), (seed, bid)
