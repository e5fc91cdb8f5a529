"""Checkpoint/resume and graceful-degradation tests.

The headline property: a sweep killed mid-run and resumed from its
checkpoint log — cut at any byte of its last record, or with a flipped
checksum — aggregates *byte-identically* to an uninterrupted run.
"""

from __future__ import annotations

import dataclasses
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
from repro.experiments.checkpoint import SWEEP_CHECKPOINT_SCHEMA
from repro.experiments.runner import run_point, run_sweep
from repro.simulation import WorkloadConfig
from repro.utils.recordlog import seal


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
        assert path == store.path_for("sweep")
        assert path.name == "sweep.ckpt.jsonl"
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

    def test_each_point_is_one_sealed_line(self, tmp_path, fast_config):
        store = CheckpointStore(tmp_path)
        points = [
            run_point(fast_config, param="num_slots", value=value)
            for value in (6, 8)
        ]
        for point in points:
            path = store.save_point("sweep", point)
        assert path.read_bytes() == b"".join(_line(point) for point in points)

    def test_sweep_name_is_made_filesystem_safe(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.path_for("fig 6/welfare") == (
            tmp_path / "fig_6_welfare.ckpt.jsonl"
        )

    def test_last_record_for_a_point_wins(self, tmp_path, fast_config):
        point = run_point(fast_config, param="num_slots", value=8)
        rerun = dataclasses.replace(point, failed_repetitions=7)
        store = CheckpointStore(tmp_path)
        store.save_point("sweep", point)
        store.save_point("sweep", rerun)
        assert store.load_point("sweep", "num_slots", 8) == rerun


def _line(point, schema=SWEEP_CHECKPOINT_SCHEMA):
    return seal({"schema": schema, "point": point_to_dict(point)}, "checksum")[0]


class TestCorruptionHandling:
    def _saved(self, tmp_path, fast_config):
        point = run_point(fast_config, param="num_slots", value=8)
        store = CheckpointStore(tmp_path)
        path = store.save_point("sweep", point)
        return store, path

    def test_truncated_file_treated_as_missing(self, tmp_path, fast_config):
        store, path = self._saved(tmp_path, fast_config)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        assert store.load_point("sweep", "num_slots", 8) is None
        # The torn line was cut, not lost: the evidence survives in
        # *.corrupt and the log continues from its valid (empty) prefix.
        assert path.read_bytes() == b""
        corrupt = path.with_name(path.name + ".corrupt")
        assert corrupt.read_bytes() == data[: len(data) // 2]

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
        path.write_bytes(path.read_bytes() + b"{not json\n")
        damaged = path.read_bytes()
        with pytest.raises(CheckpointError):
            store.load_point("sweep", "num_slots", 8, strict=True)
        assert path.read_bytes() == damaged
        assert not path.with_name(path.name + ".corrupt").exists()

    def test_truncated_file_strict_raises(self, tmp_path, fast_config):
        store, path = self._saved(tmp_path, fast_config)
        path.write_text("{not json")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            store.load_point("sweep", "num_slots", 8, strict=True)

    def test_checksum_mismatch_detected(self, tmp_path, fast_config):
        store, path = self._saved(tmp_path, fast_config)
        document = json.loads(path.read_text())
        document["point"]["failed_repetitions"] = 99
        path.write_text(json.dumps(document) + "\n")
        # Strict first: the non-strict load below cuts the line.
        with pytest.raises(CheckpointError, match="checksum"):
            store.load_point("sweep", "num_slots", 8, strict=True)
        assert store.load_point("sweep", "num_slots", 8) is None
        assert path.with_name(path.name + ".corrupt").exists()

    def test_unknown_schema_rejected(self, tmp_path, fast_config):
        point = run_point(fast_config, param="num_slots", value=8)
        store = CheckpointStore(tmp_path)
        path = store.path_for("sweep")
        path.write_bytes(_line(point, schema="repro-sweep-checkpoint/1"))
        with pytest.raises(CheckpointError, match="schema"):
            store.load_point("sweep", "num_slots", 8, strict=True)
        assert store.load_point("sweep", "num_slots", 8) is None
        assert path.read_bytes() == b""

    def test_malformed_point_ends_the_prefix(self, tmp_path, fast_config):
        store, path = self._saved(tmp_path, fast_config)
        bad = seal(
            {"schema": SWEEP_CHECKPOINT_SCHEMA, "point": {"param": "x"}},
            "checksum",
        )[0]
        intact = path.read_bytes()
        path.write_bytes(intact + bad)
        with pytest.raises(CheckpointError, match="malformed"):
            store.load_point("sweep", "num_slots", 8, strict=True)
        assert store.load_point("sweep", "num_slots", 8) is not None
        assert path.read_bytes() == intact
        assert path.with_name(path.name + ".corrupt").read_bytes() == bad

    def test_cuts_are_counted(self, tmp_path, fast_config):
        from repro import obs
        from repro.obs import ManualClock, Tracer

        store, path = self._saved(tmp_path, fast_config)
        path.write_bytes(path.read_bytes()[:-1])
        tracer = Tracer(clock=ManualClock())
        with obs.activate(tracer):
            store.load_point("sweep", "num_slots", 8)
        assert tracer.metrics.counters["checkpoint.quarantined"] == 1.0


@pytest.fixture
def memo_run_point(monkeypatch):
    """``run_point`` computed once per sweep value, then served again.

    The resume tests below rerun a sweep once per cut offset; the
    recomputed point must equal the uninterrupted one, which a memo of
    the real computation gives at a fraction of the cost (the
    recomputation itself is pinned by :class:`TestResume`).
    """
    import repro.experiments.runner as runner_module

    real = runner_module.run_point
    memo = {}
    calls = []

    def remembered(config, **kwargs):
        key = (kwargs["param"], kwargs["value"])
        calls.append(key)
        if key not in memo:
            memo[key] = real(config, **kwargs)
        return memo[key]

    monkeypatch.setattr(runner_module, "run_point", remembered)
    return calls


def _sweep_bytes(result):
    return [
        json.dumps(point_to_dict(point), sort_keys=True)
        for point in result.points
    ]


class TestCutLogResume:
    """A sweep log cut or corrupted anywhere resumes byte-identically."""

    def _logged(self, tmp_path, spec):
        store = CheckpointStore(tmp_path)
        reference = run_sweep(spec, checkpoint=store)
        path = store.path_for(spec.name)
        return store, path, path.read_bytes(), _sweep_bytes(reference)

    def test_every_cut_inside_the_last_record(
        self, tmp_path, spec, memo_run_point
    ):
        store, path, intact, reference = self._logged(tmp_path, spec)
        corrupt = path.with_name(path.name + ".corrupt")
        last = intact.rindex(b"\n", 0, len(intact) - 1) + 1
        for size in range(last + 1, len(intact)):
            path.write_bytes(intact[:size])
            del memo_run_point[:]
            resumed = run_sweep(spec, checkpoint=store)
            assert _sweep_bytes(resumed) == reference, size
            assert memo_run_point == [(spec.param, spec.values[-1])], size
            assert corrupt.read_bytes() == intact[last:size], size
            assert path.read_bytes() == intact, size
            corrupt.unlink()

    def test_flipped_checksum_character(self, tmp_path, spec, memo_run_point):
        store, path, intact, reference = self._logged(tmp_path, spec)
        last = intact.rindex(b"\n", 0, len(intact) - 1) + 1
        at = intact.index(b'"checksum":"', last) + len(b'"checksum":"')
        flipped = b"0" if intact[at : at + 1] != b"0" else b"1"
        damaged = intact[:at] + flipped + intact[at + 1 :]
        path.write_bytes(damaged)
        resumed = run_sweep(spec, checkpoint=store)
        assert _sweep_bytes(resumed) == reference
        corrupt = path.with_name(path.name + ".corrupt")
        assert corrupt.read_bytes() == damaged[last:]
        assert path.read_bytes() == intact

    def test_corrupt_middle_record_keeps_the_prefix(
        self, tmp_path, spec, memo_run_point
    ):
        store, path, intact, reference = self._logged(tmp_path, spec)
        lines = intact.splitlines(keepends=True)
        lines[1] = lines[1].replace(b'"status":"', b'"status":"X', 1)
        path.write_bytes(b"".join(lines))
        del memo_run_point[:]
        resumed = run_sweep(spec, checkpoint=store)
        assert _sweep_bytes(resumed) == reference
        assert memo_run_point == [
            (spec.param, value) for value in spec.values[1:]
        ]
        corrupt = path.with_name(path.name + ".corrupt")
        assert corrupt.read_bytes() == b"".join(lines[1:])
        assert path.read_bytes() == intact

    @pytest.mark.parametrize("workers", [1, 4])
    def test_cut_log_resumes_at_any_worker_count(
        self, tmp_path, spec, workers
    ):
        store, path, intact, reference = self._logged(tmp_path, spec)
        path.write_bytes(intact[: len(intact) - len(intact) // 3])
        resumed = run_sweep(spec, checkpoint=store, workers=workers)
        assert _sweep_bytes(resumed) == reference
        assert path.read_bytes() == intact


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
        assert store.path_for(spec.name).exists()
        for value in spec.values:
            assert store.load_point(spec.name, spec.param, value) is not None


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
