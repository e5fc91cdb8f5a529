"""Checkpoint/resume and graceful-degradation tests.

The headline property: a sweep killed mid-run and resumed from its
checkpoints aggregates *byte-identically* to an uninterrupted run.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import CheckpointError, ExperimentError, ValidationError
from repro.experiments import (
    CheckpointStore,
    ExperimentConfig,
    SweepSpec,
    point_from_dict,
    point_to_dict,
)
from repro.experiments.checkpoint import SCHEMA_VERSION
from repro.experiments.runner import run_point, run_sweep
from repro.simulation import WorkloadConfig


@pytest.fixture
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
        repetitions=3,
        base_seed=50,
    )


@pytest.fixture
def spec(fast_config):
    return SweepSpec(
        name="resume-test",
        title="t",
        param="num_slots",
        values=(6, 8, 10),
        config=fast_config,
    )


class FlakyWorkload:
    """Delegates to a real workload but fails the first ``fail_times``
    generations of the configured seeds."""

    def __init__(self, base, fail_seeds, fail_times=1):
        self._base = base
        self._remaining = {seed: fail_times for seed in fail_seeds}

    def generate_columns(self, seed):
        if self._remaining.get(seed, 0) > 0:
            self._remaining[seed] -= 1
            raise RuntimeError(f"transient failure for seed {seed}")
        return self._base.generate_columns(seed)


class TestStoreRoundTrip:
    def test_save_then_load(self, tmp_path, fast_config):
        point = run_point(fast_config, param="num_slots", value=8)
        store = CheckpointStore(tmp_path)
        path = store.save_point("sweep", point)
        assert path.exists()
        loaded = store.load_point("sweep", "num_slots", 8)
        assert loaded == point

    def test_missing_returns_none(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.load_point("sweep", "num_slots", 8) is None

    def test_no_temp_files_left_behind(self, tmp_path, fast_config):
        point = run_point(fast_config, param="num_slots", value=8)
        store = CheckpointStore(tmp_path)
        store.save_point("sweep", point)
        leftovers = list(tmp_path.rglob("*.tmp"))
        assert leftovers == []

    def test_point_dict_round_trip(self, fast_config):
        point = run_point(fast_config, param="num_slots", value=8)
        assert point_from_dict(point_to_dict(point)) == point

    def test_malformed_point_payload_raises(self):
        with pytest.raises(CheckpointError, match="malformed"):
            point_from_dict({"param": "x"})


class TestCorruptionHandling:
    def _saved(self, tmp_path, fast_config):
        point = run_point(fast_config, param="num_slots", value=8)
        store = CheckpointStore(tmp_path)
        path = store.save_point("sweep", point)
        return store, path

    def test_truncated_file_treated_as_missing(self, tmp_path, fast_config):
        store, path = self._saved(tmp_path, fast_config)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert store.load_point("sweep", "num_slots", 8) is None
        # The corrupt file was quarantined, not deleted: the evidence
        # survives under *.corrupt and a clean re-save is possible.
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()

    def test_quarantined_point_can_be_resaved(self, tmp_path, fast_config):
        point = run_point(fast_config, param="num_slots", value=8)
        store = CheckpointStore(tmp_path)
        path = store.save_point("sweep", point)
        path.write_text("{corrupt")
        assert store.load_point("sweep", "num_slots", 8) is None
        store.save_point("sweep", point)
        assert store.load_point("sweep", "num_slots", 8) == point
        assert path.with_name(path.name + ".corrupt").exists()

    def test_strict_load_leaves_corrupt_file_in_place(
        self, tmp_path, fast_config
    ):
        store, path = self._saved(tmp_path, fast_config)
        path.write_text("{not json")
        with pytest.raises(CheckpointError):
            store.load_point("sweep", "num_slots", 8, strict=True)
        assert path.exists()
        assert not path.with_name(path.name + ".corrupt").exists()

    def test_truncated_file_strict_raises(self, tmp_path, fast_config):
        store, path = self._saved(tmp_path, fast_config)
        path.write_text("{not json")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            store.load_point("sweep", "num_slots", 8, strict=True)

    def test_checksum_mismatch_detected(self, tmp_path, fast_config):
        store, path = self._saved(tmp_path, fast_config)
        document = json.loads(path.read_text())
        document["payload"]["failed_repetitions"] = 99
        path.write_text(json.dumps(document))
        # Strict first: the non-strict load below quarantines the file.
        with pytest.raises(CheckpointError, match="checksum"):
            store.load_point("sweep", "num_slots", 8, strict=True)
        assert store.load_point("sweep", "num_slots", 8) is None
        assert path.with_name(path.name + ".corrupt").exists()

    def test_unknown_schema_rejected(self, tmp_path, fast_config):
        store, path = self._saved(tmp_path, fast_config)
        document = json.loads(path.read_text())
        document["schema"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(document))
        with pytest.raises(CheckpointError, match="schema"):
            store.load_point("sweep", "num_slots", 8, strict=True)

    def test_alien_point_rejected(self, tmp_path, fast_config):
        point = run_point(fast_config, param="num_slots", value=8)
        store = CheckpointStore(tmp_path)
        path = store.save_point("sweep", point)
        # File moved under the wrong value's name.
        alien = store.path_for("sweep", "num_slots", 10)
        alien.write_text(path.read_text())
        # Strict first: the non-strict load below quarantines the file.
        with pytest.raises(CheckpointError, match="requested"):
            store.load_point("sweep", "num_slots", 10, strict=True)
        assert store.load_point("sweep", "num_slots", 10) is None
        assert alien.with_name(alien.name + ".corrupt").exists()


class TestResume:
    def test_resumed_sweep_is_byte_identical(self, tmp_path, spec):
        """Kill-and-resume: precompute some points' checkpoints, then
        run the sweep against the store — aggregation must match an
        uninterrupted run byte for byte."""
        uninterrupted = run_sweep(spec)

        store = CheckpointStore(tmp_path)
        for point in uninterrupted.points[:2]:  # "killed" after 2 points
            store.save_point(spec.name, point)
        resumed = run_sweep(spec, checkpoint=store)

        for fresh, loaded in zip(uninterrupted.points, resumed.points):
            assert json.dumps(
                point_to_dict(fresh), sort_keys=True
            ) == json.dumps(point_to_dict(loaded), sort_keys=True)

    def test_completed_points_not_recomputed(self, tmp_path, spec, monkeypatch):
        store = CheckpointStore(tmp_path)
        run_sweep(spec, checkpoint=store)  # populate every checkpoint

        import repro.experiments.runner as runner_module

        def boom(*args, **kwargs):
            raise AssertionError("run_point called despite checkpoints")

        monkeypatch.setattr(runner_module, "run_point", boom)
        result = run_sweep(spec, checkpoint=store)
        assert result.values == spec.values

    def test_sweep_populates_the_store(self, tmp_path, spec):
        store = CheckpointStore(tmp_path)
        run_sweep(spec, checkpoint=store)
        for value in spec.values:
            assert store.path_for(spec.name, spec.param, value).exists()


class TestGracefulDegradation:
    def test_retry_recovers_transient_failures(self, fast_config):
        seeds = list(fast_config.seeds())
        flaky = FlakyWorkload(
            fast_config.workload, fail_seeds=seeds[:1], fail_times=1
        )
        waits = []
        point = run_point(
            fast_config,
            workload=flaky,
            retries=2,
            backoff=0.5,
            sleep=waits.append,
        )
        reference = run_point(fast_config)
        assert point.status == "complete"
        assert point.completed_repetitions == len(seeds)
        assert point.of("online").welfare.mean == pytest.approx(
            reference.of("online").welfare.mean
        )
        assert waits == [0.5]

    def test_backoff_grows_exponentially(self, fast_config):
        seeds = list(fast_config.seeds())
        flaky = FlakyWorkload(
            fast_config.workload, fail_seeds=seeds[:1], fail_times=3
        )
        waits = []
        run_point(
            fast_config,
            workload=flaky,
            retries=3,
            backoff=1.0,
            sleep=waits.append,
        )
        assert waits == [1.0, 2.0, 4.0]

    def test_exhausted_retries_raise_by_default(self, fast_config):
        seeds = list(fast_config.seeds())
        flaky = FlakyWorkload(
            fast_config.workload, fail_seeds=seeds[:1], fail_times=10
        )
        with pytest.raises(RuntimeError, match="transient"):
            run_point(fast_config, workload=flaky, retries=1)

    def test_partial_point_drops_the_repetition(self, fast_config):
        seeds = list(fast_config.seeds())
        flaky = FlakyWorkload(
            fast_config.workload, fail_seeds=seeds[:1], fail_times=10
        )
        point = run_point(
            fast_config, workload=flaky, on_failure="partial"
        )
        assert point.status == "partial"
        assert point.completed_repetitions == len(seeds) - 1
        assert point.failed_repetitions == 1
        # Pairing preserved: every mechanism aggregates the same count.
        for metric in point.metrics:
            assert metric.welfare.count == len(seeds) - 1

    def test_all_failed_marks_the_point_failed(self, fast_config):
        seeds = list(fast_config.seeds())
        flaky = FlakyWorkload(
            fast_config.workload, fail_seeds=seeds, fail_times=10
        )
        point = run_point(
            fast_config, workload=flaky, on_failure="partial"
        )
        assert point.status == "failed"
        assert point.metrics == ()
        assert point.completed_repetitions == 0

    def test_failed_points_skipped_by_series(self, fast_config):
        seeds = list(fast_config.seeds())
        flaky = FlakyWorkload(
            fast_config.workload, fail_seeds=seeds, fail_times=10
        )
        failed = run_point(
            fast_config, workload=flaky, param="num_slots", value=6,
            on_failure="partial",
        )
        good = run_point(fast_config, param="num_slots", value=8)
        from repro.experiments.runner import SweepResult

        result = SweepResult(
            name="x",
            param="num_slots",
            points=(failed, good),
            config=fast_config,
        )
        series = result.series("online", "welfare")
        assert [value for value, _ in series] == [8]

    def test_invalid_on_failure_rejected(self, fast_config):
        with pytest.raises(ExperimentError, match="on_failure"):
            run_point(fast_config, on_failure="ignore")

    def test_negative_retries_rejected(self, fast_config):
        with pytest.raises(ExperimentError, match="retries"):
            run_point(fast_config, retries=-1)

    @pytest.mark.parametrize("backoff", [float("nan"), float("inf")])
    def test_non_finite_backoff_rejected(self, fast_config, backoff):
        with pytest.raises(ValidationError, match="backoff must be finite"):
            run_point(fast_config, retries=1, backoff=backoff)
