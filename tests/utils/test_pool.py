"""The one fan-out primitive: order, laziness, failure, segment lifetime."""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.errors import ValidationError
from repro.utils.pool import WorkerPool
from tests.experiments.test_sharding import SPEC, SegmentNameSpy, two_cities


def _finish_after(delay, value):
    time.sleep(delay)
    return value, time.monotonic()


def _fail_on(value, bad):
    if value == bad:
        raise ValueError(f"unit {value} failed")
    return value


class TestOrder:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_submission_order_whatever_the_completion_order(self, workers):
        # Unit 0 sleeps longest, so on two workers unit 1 finishes first.
        delays = [0.5, 0.0, 0.0]
        with WorkerPool(workers) as pool:
            envelopes = list(
                pool.run(
                    _finish_after,
                    [(delay, index) for index, delay in enumerate(delays)],
                )
            )
        assert [e.result[0] for e in envelopes] == [0, 1, 2]
        finished = [e.result[1] for e in envelopes]
        if workers > 1:
            assert finished[1] < finished[0]
        assert envelopes[0].elapsed_seconds >= 0.5
        pids = {e.worker_pid for e in envelopes}
        if workers == 1:
            assert pids == {os.getpid()}
        else:
            assert os.getpid() not in pids


class TestLaziness:
    @staticmethod
    def _logged_units(log, count):
        for index in range(count):
            log.append(f"build {index}")
            yield (0.0, index)

    def test_serial_pool_builds_each_unit_after_the_previous_result(self):
        log = []
        with WorkerPool(1) as pool:
            for envelope in pool.run(
                _finish_after, self._logged_units(log, 3)
            ):
                log.append(f"consume {envelope.result[0]}")
        assert log == [
            "build 0",
            "consume 0",
            "build 1",
            "consume 1",
            "build 2",
            "consume 2",
        ]

    def test_process_pool_submits_every_unit_up_front(self):
        log = []
        with WorkerPool(2) as pool:
            envelopes = pool.run(_finish_after, self._logged_units(log, 3))
            next(envelopes)
            assert log == ["build 0", "build 1", "build 2"]
            assert [e.result[0] for e in envelopes] == [1, 2]


    def test_process_pool_keeps_twice_its_width_in_flight(self):
        log = []
        with WorkerPool(2) as pool:
            envelopes = pool.run(_finish_after, self._logged_units(log, 10))
            next(envelopes)
            assert log == [f"build {index}" for index in range(4)]
            next(envelopes)
            assert log == [f"build {index}" for index in range(5)]
            assert [e.result[0] for e in envelopes] == list(range(2, 10))
        assert len(log) == 10


class TestFailure:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_exception_propagates_and_pool_shuts_down(self, workers):
        pool = WorkerPool(workers)
        with pytest.raises(ValueError, match="unit 1 failed"):
            with pool:
                list(pool.run(_fail_on, [(index, 1) for index in range(4)]))
        assert pool._executor is None
        assert multiprocessing.active_children() == []

    def test_process_pool_needs_its_with_block(self):
        with pytest.raises(RuntimeError, match="with-block"):
            next(WorkerPool(2).run(_fail_on, [(0, 1)]))

    def test_workers_must_be_positive(self):
        with pytest.raises(ValidationError):
            WorkerPool(0)


class TestShardSegmentLifetime:
    """The pool's laziness bounds a serial sharded campaign's memory."""

    @pytest.fixture
    def alive(self, monkeypatch):
        import repro.experiments.sharding as sharding_mod

        spy = SegmentNameSpy(sharding_mod._create_segment)
        release = sharding_mod._release_segment
        state = {"alive": set(), "peak": 0, "spy": spy}

        def create(nbytes):
            segment = spy(nbytes)
            state["alive"].add(segment.name)
            state["peak"] = max(state["peak"], len(state["alive"]))
            return segment

        def release_segment(segment, unlink):
            if unlink:
                state["alive"].discard(segment.name)
            release(segment, unlink)

        monkeypatch.setattr(sharding_mod, "_create_segment", create)
        monkeypatch.setattr(sharding_mod, "_release_segment", release_segment)
        return state

    def test_serial_campaign_holds_one_segment_at_a_time(self, alive):
        from repro.experiments.sharding import run_sharded_campaign

        run_sharded_campaign(
            SPEC, two_cities(), seed=1, workers=1, shards_per_city=2
        )
        assert len(alive["spy"].names) == 4
        assert alive["peak"] == 1
        assert alive["alive"] == set()

    def test_process_pool_encodes_every_shard_up_front(self, alive):
        from repro.experiments.sharding import run_sharded_campaign

        run_sharded_campaign(
            SPEC, two_cities(), seed=1, workers=2, shards_per_city=2
        )
        assert alive["peak"] == 4
        assert alive["alive"] == set()

    def test_process_pool_bounds_live_segments_by_its_width(self, alive):
        """Eight shards on two workers: at most 2 x 2 segments live."""
        from repro.experiments.sharding import run_sharded_campaign

        run_sharded_campaign(
            SPEC,
            two_cities(rounds=(4, 4)),
            seed=1,
            workers=2,
            shards_per_city=4,
        )
        assert len(alive["spy"].names) == 8
        assert alive["peak"] == 4
        assert alive["alive"] == set()
