"""The event-driven streaming engine: allocation, payments, telemetry.

Equivalence with the textbook oracle lives in
``tests/properties/test_streaming_properties.py`` and
``tests/properties/test_oracle_sweep.py``; this module covers the
engine's surface — parameter validation, the single-pass allocation
against the oracle, the incremental-payment guard rails, the re-run
regime, memory discipline of payment re-runs, the
``online.stream.*`` counters, and sampled city-scale payments against
the oracle's re-run.
"""

import pickle
import tracemalloc

import numpy as np
import pytest

from repro import obs
from repro.errors import MechanismError
from repro.mechanisms import (
    OnlineGreedyMechanism,
    StreamingGreedyEngine,
    create_mechanism,
)
from repro.mechanisms.critical_payment import (
    algorithm2_payment,
    exact_critical_payment,
)
from repro.model.task import TaskSchedule
from repro.obs import InMemorySink, Tracer
from repro.simulation import WorkloadConfig
from tests import oracles


def _scenario(seed: int = 3, num_slots: int = 20, **kwargs):
    return WorkloadConfig(num_slots=num_slots, **kwargs).generate(seed=seed)


class TestEngineSelection:
    def test_unknown_engine_is_rejected(self):
        with pytest.raises(MechanismError, match="engine"):
            OnlineGreedyMechanism(engine="turbo")

    def test_registry_builds_the_streaming_variant(self):
        mechanism = create_mechanism("online-greedy", engine="streaming")
        assert isinstance(mechanism, OnlineGreedyMechanism)

    def test_streaming_outcome_matches_batch_via_registry(self):
        """Both accepted engine names build the same mechanism."""
        scenario = _scenario()
        bids = scenario.truthful_bids()
        batch = create_mechanism("online-greedy").run(
            bids, scenario.schedule
        )
        streaming = create_mechanism(
            "online-greedy", engine="streaming"
        ).run(bids, scenario.schedule)
        assert pickle.dumps(streaming) == pickle.dumps(batch)


class TestStreamingAllocation:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("reserve_price", [False, True])
    def test_base_run_matches_batch_allocation(self, seed, reserve_price):
        scenario = _scenario(seed=seed)
        bids = scenario.truthful_bids()
        engine = StreamingGreedyEngine(
            bids, scenario.schedule, reserve_price=reserve_price
        )
        allocation, win_slots = oracles.greedy_allocation(
            bids, scenario.schedule, reserve_price
        )
        assert engine.base_run.allocation == allocation
        assert engine.base_run.win_slots == win_slots

    def test_event_count_covers_arrivals_and_tasks(self):
        scenario = _scenario()
        bids = scenario.truthful_bids()
        engine = StreamingGreedyEngine(bids, scenario.schedule)
        assert engine.events >= len(bids)

    def test_empty_round_streams_cleanly(self):
        schedule = TaskSchedule.from_counts([0, 0, 0], value=30.0)
        engine = StreamingGreedyEngine([], schedule)
        assert engine.base_run.allocation == {}
        assert engine.cascade_steps == 0


class TestPaymentGuards:
    def test_engine_for_different_bids_is_rejected(self):
        scenario = _scenario()
        bids = scenario.truthful_bids()
        engine = StreamingGreedyEngine(bids[:-1], scenario.schedule)
        run = StreamingGreedyEngine(bids, scenario.schedule).base_run
        phone_id, win_slot = next(iter(run.win_slots.items()))
        winner = next(b for b in bids if b.phone_id == phone_id)
        with pytest.raises(MechanismError, match="different bid vector"):
            algorithm2_payment(
                bids,
                scenario.schedule,
                winner,
                win_slot,
                engine=engine,
            )

    def test_engine_reserve_mismatch_is_rejected(self):
        scenario = _scenario()
        bids = scenario.truthful_bids()
        engine = StreamingGreedyEngine(
            bids, scenario.schedule, reserve_price=True
        )
        run = StreamingGreedyEngine(bids, scenario.schedule).base_run
        phone_id, win_slot = next(iter(run.win_slots.items()))
        winner = next(b for b in bids if b.phone_id == phone_id)
        with pytest.raises(MechanismError, match="reserve_price"):
            algorithm2_payment(
                bids,
                scenario.schedule,
                winner,
                win_slot,
                engine=engine,
            )

    def test_covers_accepts_equal_but_distinct_sequences(self):
        scenario = _scenario()
        bids = scenario.truthful_bids()
        engine = StreamingGreedyEngine(bids, scenario.schedule)
        assert engine.covers(bids)
        assert engine.covers(list(bids))
        assert not engine.covers(bids[:-1])

    def test_incremental_requires_homogeneous_values_under_reserve(self):
        """Heterogeneous task values + reserve → payments re-run."""
        scenario = _scenario()
        bids = scenario.truthful_bids()
        tasks = list(scenario.schedule.tasks)
        bumped = [
            task if i else type(task)(
                task_id=task.task_id,
                slot=task.slot,
                index=task.index,
                value=task.value + 5.0,
            )
            for i, task in enumerate(tasks)
        ]
        schedule = TaskSchedule(scenario.schedule.num_slots, bumped)
        assert schedule.uniform_value is None
        engine = StreamingGreedyEngine(bids, schedule, reserve_price=True)
        assert not engine.supports_incremental_payments
        with pytest.raises(MechanismError, match="incremental"):
            engine.exact_payment(bids[0])
        # The payment entry points silently re-run the allocation and
        # stay bit-identical to the engine-free path.
        for phone_id, win_slot in engine.base_run.win_slots.items():
            winner = engine.bid_by_phone[phone_id]
            direct = algorithm2_payment(
                bids, schedule, winner, win_slot, reserve_price=True
            )
            routed = algorithm2_payment(
                bids,
                schedule,
                winner,
                win_slot,
                reserve_price=True,
                engine=engine,
            )
            assert routed == direct  # repro: noqa-REP002 -- bitwise fallback equivalence is the property under test
            exact_direct = exact_critical_payment(
                bids, schedule, winner, reserve_price=True
            )
            exact_routed = exact_critical_payment(
                bids,
                schedule,
                winner,
                reserve_price=True,
                engine=engine,
            )
            assert exact_routed == exact_direct  # repro: noqa-REP002 -- bitwise fallback equivalence is the property under test

    def test_cascade_steps_accumulate(self):
        scenario = _scenario(seed=11)
        bids = scenario.truthful_bids()
        engine = StreamingGreedyEngine(bids, scenario.schedule)
        assert engine.cascade_steps == 0
        for phone_id, win_slot in engine.base_run.win_slots.items():
            algorithm2_payment(
                bids,
                scenario.schedule,
                engine.bid_by_phone[phone_id],
                win_slot,
                engine=engine,
            )
        # Poisson workloads displace at least one successor somewhere.
        assert engine.cascade_steps >= 0


def _feed_through(bids, schedule, reserve_price, check):
    """Feed a slot-fed engine slot by slot; after each slot, call
    ``check(engine, rebuild)`` with an engine built over the bids that
    arrived by then and the tasks announced by then."""
    engine = StreamingGreedyEngine.slot_fed(
        schedule.num_slots, reserve_price=reserve_price
    )
    for slot in range(1, schedule.num_slots + 1):
        engine.feed_slot(
            [bid for bid in bids if bid.arrival == slot],
            schedule.tasks_in_slot(slot),
        )
        rebuild = StreamingGreedyEngine(
            [bid for bid in bids if bid.arrival <= slot],
            TaskSchedule(
                schedule.num_slots,
                [task for task in schedule if task.slot <= slot],
            ),
            reserve_price=reserve_price,
        )
        check(engine, rebuild)
    return engine


def _mixed_values(schedule):
    return TaskSchedule(
        schedule.num_slots,
        [
            type(task)(
                task_id=task.task_id,
                slot=task.slot,
                index=task.index,
                value=task.value + task.slot % 3,
            )
            for task in schedule
        ],
    )


class TestSlotFedEngine:
    """A slot-fed engine answers like a rebuild over what it was fed."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("reserve_price", [False, True])
    @pytest.mark.parametrize("values", ["uniform", "mixed"])
    def test_every_slot_prices_like_a_rebuild(
        self, seed, reserve_price, values
    ):
        scenario = _scenario(seed=seed, mean_cost=25.0)
        bids = scenario.truthful_bids()
        schedule = scenario.schedule
        if values == "mixed":
            schedule = _mixed_values(schedule)
        priced = []

        def check(engine, rebuild):
            assert engine.base_run == rebuild.base_run
            assert engine.supports_incremental_payments is (
                rebuild.supports_incremental_payments
            )
            # Every bid fed so far, winners whose departure lies beyond
            # the last fed slot included.
            for bid in rebuild.bids:
                win_slot = rebuild.base_run.win_slots.get(
                    bid.phone_id, bid.arrival
                )
                answers = engine.answers_algorithm2(bid.phone_id, win_slot)
                assert answers == rebuild.answers_algorithm2(
                    bid.phone_id, win_slot
                )
                if answers:
                    paid = engine.algorithm2_payment(bid, win_slot)
                    assert paid.hex() == rebuild.algorithm2_payment(
                        bid, win_slot
                    ).hex()
                    priced.append(paid)
                answers = engine.answers_exact(bid.phone_id)
                assert answers == rebuild.answers_exact(bid.phone_id)
                if answers:
                    assert engine.exact_payment(bid).hex() == (
                        rebuild.exact_payment(bid).hex()
                    )

        engine = _feed_through(bids, schedule, reserve_price, check)
        assert priced
        one_pass = StreamingGreedyEngine(
            bids, schedule, reserve_price=reserve_price
        )
        assert engine.base_run == one_pass.base_run
        assert engine.schedule == schedule
        assert engine.covers(bids) and engine.bids == tuple(bids)

    def test_mixed_values_switch_reserve_payments_off_for_good(self):
        scenario = _scenario(seed=1)
        schedule = _mixed_values(scenario.schedule)
        regimes = []
        _feed_through(
            scenario.truthful_bids(),
            schedule,
            True,
            lambda engine, _: regimes.append(
                engine.supports_incremental_payments
            ),
        )
        first_value = schedule.tasks[0].value
        first_mixed = min(
            task.slot for task in schedule if task.value != first_value
        )
        assert any(regimes[: first_mixed - 1])
        assert not any(regimes[first_mixed - 1 :])

    def test_feed_refuses_a_bid_or_task_of_another_slot(self):
        scenario = _scenario()
        engine = StreamingGreedyEngine.slot_fed(scenario.num_slots)
        late = next(
            bid for bid in scenario.truthful_bids() if bid.arrival > 1
        )
        with pytest.raises(MechanismError, match="of another slot"):
            engine.feed_slot([late], ())
        task = next(t for t in scenario.schedule if t.slot > 1)
        with pytest.raises(MechanismError, match="of another slot"):
            engine.feed_slot((), [task])
        for _ in range(scenario.num_slots):
            engine.feed_slot((), ())
        with pytest.raises(MechanismError, match="closed"):
            engine.feed_slot((), ())

    def test_a_one_pass_engine_takes_no_feed(self):
        scenario = _scenario()
        engine = StreamingGreedyEngine(
            scenario.truthful_bids(), scenario.schedule
        )
        with pytest.raises(MechanismError, match="closed"):
            engine.feed_slot((), ())


class TestStreamTelemetry:
    def test_stream_counters_are_emitted(self):
        scenario = _scenario()
        bids = scenario.truthful_bids()
        tracer = Tracer(sink=InMemorySink())
        with obs.activate(tracer):
            OnlineGreedyMechanism().run(
                bids, scenario.schedule
            )
        counters = tracer.metrics.counters
        assert counters["online.stream.events"] > 0
        assert "online.stream.cascade_steps" in counters
        assert (
            tracer.metrics.gauges["online.stream.events_per_second"] >= 0
        )

    def test_fallback_counter_only_fires_when_unsupported(self):
        scenario = _scenario()
        bids = scenario.truthful_bids()
        tracer = Tracer(sink=InMemorySink())
        with obs.activate(tracer):
            OnlineGreedyMechanism().run(
                bids, scenario.schedule
            )
        assert "online.stream.payment_fallbacks" not in (
            tracer.metrics.counters
        )


class TestProberMemory:
    def test_virtual_snapshots_stay_small_at_city_scale(self):
        """~10⁴ phones × 200 slots: the engine and its re-runs stay small.

        Payment re-runs are fresh engines over the perturbed bids, never
        per-slot snapshots, so a round's allocation plus a handful of
        exclusion re-runs stays within a few MB.
        """
        scenario = WorkloadConfig(num_slots=200, phone_rate=50.0).generate(
            seed=3
        )
        bids = scenario.truthful_bids()
        assert len(bids) > 9_000
        tracemalloc.start()
        try:
            engine = StreamingGreedyEngine(bids, scenario.schedule)
            run = engine.base_run
            # Exercise a handful of re-run payments too.
            for phone_id, win_slot in list(run.win_slots.items())[:5]:
                algorithm2_payment(
                    bids,
                    scenario.schedule,
                    engine.bid_by_phone[phone_id],
                    win_slot,
                )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert run.allocation
        assert peak < 16 * 1024 * 1024


class TestCityScaleOracle:
    def test_city_scale_sampled_winners_match_the_rerun(self):
        """~2·10³ phones over the city campaign's 50 slots.

        The streaming counterpart of the offline
        ``test_city_scale_sampled_winners_match_the_repair``: 20 sampled
        winners' Algorithm-2 payments, answered from the engine's
        per-slot records, equal the oracle's literal re-run without the
        winner, bit for bit.
        """
        scenario = WorkloadConfig(num_slots=50, phone_rate=40.0).generate(
            seed=11
        )
        bids = scenario.truthful_bids()
        assert 1_500 < len(bids) < 2_500
        outcome = OnlineGreedyMechanism().run(bids, scenario.schedule)
        win_slot = {
            phone_id: scenario.schedule.task(task_id).slot
            for task_id, phone_id in outcome.allocation.items()
        }
        bid_by_phone = {bid.phone_id: bid for bid in bids}
        sample = np.random.default_rng(0).choice(
            sorted(win_slot), 20, replace=False
        )
        for phone_id in sample.tolist():
            expected = oracles.algorithm2_payment(
                bids,
                scenario.schedule,
                bid_by_phone[phone_id],
                win_slot[phone_id],
            )
            paid = outcome.payments[phone_id]
            assert paid == expected  # repro: noqa-REP002 -- bitwise payments
