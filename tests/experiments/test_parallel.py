"""Parallel sweep execution — byte-identity with the serial path.

``run_sweep(..., workers=N)`` fans repetitions out over a process pool
but must remain an implementation detail: identical aggregation, the
same checkpoint bytes, the same retry/partial semantics.  These tests
pin that contract, including checkpoint-resume *under* parallelism.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    CheckpointStore,
    ExperimentConfig,
    SweepSpec,
    point_to_dict,
)
from repro.experiments.runner import (
    RepetitionResult,
    run_point,
    run_repetition,
    run_sweep,
)
from repro.simulation import WorkloadConfig


@pytest.fixture(scope="module")
def fast_config():
    return ExperimentConfig(
        workload=WorkloadConfig(
            num_slots=8,
            phone_rate=3.0,
            task_rate=2.0,
            mean_cost=10.0,
            mean_active_length=2,
            task_value=15.0,
        ),
        repetitions=4,
        base_seed=77,
    )


@pytest.fixture(scope="module")
def spec(fast_config):
    return SweepSpec(
        name="parallel-test",
        title="t",
        param="num_slots",
        values=(6, 8),
        config=fast_config,
    )


def _point_bytes(point) -> str:
    return json.dumps(point_to_dict(point), sort_keys=True)


class TestRunRepetition:
    def test_worker_row_matches_serial_engine(self, fast_config):
        seed = next(iter(fast_config.seeds()))
        result = run_repetition(
            fast_config.workload,
            fast_config.mechanisms,
            seed,
            retries=0,
            backoff=0.0,
            on_failure="raise",
        )
        assert isinstance(result, RepetitionResult)
        assert not result.failed
        assert result.retried == 0
        assert len(result.row) == len(fast_config.mechanisms)
        labels = [r.mechanism_name for r in result.row]
        assert labels == [s.name for s in fast_config.mechanisms]


class TestRunPointParallel:
    def test_equal_to_serial(self, fast_config):
        serial = run_point(fast_config, param="num_slots", value=8)
        parallel = run_point(
            fast_config, param="num_slots", value=8, workers=4
        )
        assert _point_bytes(serial) == _point_bytes(parallel)

    def test_workers_must_be_positive(self, fast_config):
        with pytest.raises(ExperimentError, match="workers"):
            run_point(fast_config, param="num_slots", value=8, workers=0)

    def test_sleep_stub_rejected_in_parallel(self, fast_config):
        with pytest.raises(ExperimentError, match="sleep stub"):
            run_point(
                fast_config,
                param="num_slots",
                value=8,
                workers=2,
                sleep=lambda _: None,
            )


class TestRunSweepParallel:
    def test_byte_identical_to_serial(self, spec):
        serial = run_sweep(spec)
        parallel = run_sweep(spec, workers=4)
        assert len(serial.points) == len(parallel.points)
        for a, b in zip(serial.points, parallel.points):
            assert _point_bytes(a) == _point_bytes(b)

    def test_checkpoint_resume_under_parallelism(self, tmp_path, spec):
        """A serial run killed mid-sweep resumes with workers=4 and
        still aggregates byte-identically."""
        uninterrupted = run_sweep(spec)

        store = CheckpointStore(tmp_path)
        store.save_point(spec.name, uninterrupted.points[0])  # "killed"
        resumed = run_sweep(spec, checkpoint=store, workers=4)

        for fresh, loaded in zip(uninterrupted.points, resumed.points):
            assert _point_bytes(fresh) == _point_bytes(loaded)

    def test_parallel_sweep_populates_the_store(self, tmp_path, spec):
        store = CheckpointStore(tmp_path)
        run_sweep(spec, checkpoint=store, workers=2)
        assert store.path_for(spec.name).exists()
        for value in spec.values:
            assert store.load_point(spec.name, spec.param, value) is not None

    def test_workers_must_be_positive(self, spec):
        with pytest.raises(ExperimentError, match="workers"):
            run_sweep(spec, workers=0)
