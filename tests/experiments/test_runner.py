"""Unit tests for sweep execution."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import ExperimentError
from repro.experiments import ExperimentConfig, MechanismSpec, SweepSpec
from repro.experiments.runner import run_point, run_repetition, run_sweep
from repro.model import Bid, SensingTask, SmartphoneProfile
from repro.simulation import SimulationEngine, WorkloadConfig


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


class TestRunPoint:
    def test_metrics_per_mechanism(self, fast_config):
        point = run_point(fast_config)
        labels = [m.label for m in point.metrics]
        assert labels == ["offline", "online"]
        offline = point.of("offline")
        assert offline.welfare.count == 3
        assert offline.tasks_served.mean > 0

    def test_offline_dominates_online(self, fast_config):
        point = run_point(fast_config)
        assert (
            point.of("offline").welfare.mean
            >= point.of("online").welfare.mean - 1e-9
        )

    def test_unknown_label(self, fast_config):
        point = run_point(fast_config)
        with pytest.raises(ExperimentError, match="no mechanism labelled"):
            point.of("bogus")

    def test_deterministic(self, fast_config):
        a = run_point(fast_config)
        b = run_point(fast_config)
        assert a.of("online").welfare.mean == b.of("online").welfare.mean

    def test_custom_mechanisms(self, fast_config):
        config = fast_config.replace(
            mechanisms=(
                MechanismSpec.of("fifo"),
                MechanismSpec.of("fixed-price", price=12.0),
            )
        )
        point = run_point(config)
        assert [m.label for m in point.metrics] == ["fifo", "fixed-price"]


class TestRunSweep:
    def test_sweep_points(self, fast_config):
        spec = SweepSpec(
            name="test",
            title="welfare vs slots",
            param="num_slots",
            values=(6, 10),
            config=fast_config,
        )
        result = run_sweep(spec)
        assert result.values == (6, 10)
        assert len(result.points) == 2
        assert result.param == "num_slots"

    def test_welfare_grows_with_slots(self, fast_config):
        spec = SweepSpec(
            name="test",
            title="t",
            param="num_slots",
            values=(5, 15),
            config=fast_config,
        )
        result = run_sweep(spec)
        series = result.series("online", "welfare")
        assert series[1][1] > series[0][1]

    def test_series_skips_undefined(self, fast_config):
        config = fast_config.replace(
            workload=fast_config.workload.replace(phone_rate=0.0)
        )
        spec = SweepSpec(
            name="test",
            title="t",
            param="task_rate",
            values=(1.0,),
            config=config,
        )
        result = run_sweep(spec)
        # No phones -> nothing allocated -> overpayment undefined.
        assert result.series("online", "overpayment_ratio") == []

    def test_empty_values_rejected(self, fast_config):
        with pytest.raises(ExperimentError):
            SweepSpec(
                name="x", title="t", param="num_slots", values=(),
                config=fast_config,
            )

    def test_duplicate_values_rejected(self, fast_config):
        with pytest.raises(ExperimentError, match="duplicate"):
            SweepSpec(
                name="x", title="t", param="num_slots", values=(5, 5),
                config=fast_config,
            )

    def test_unknown_param_surfaces(self, fast_config):
        spec = SweepSpec(
            name="x", title="t", param="bogus", values=(1,),
            config=fast_config,
        )
        with pytest.raises(ExperimentError, match="unknown workload"):
            run_sweep(spec)


#: Every built-in mechanism the sweeps compare, the online one under both
#: payment rules with and without the reserve price.
EVERY_MECHANISM = (
    MechanismSpec.of("offline-vcg"),
    MechanismSpec.of("online-greedy"),
    MechanismSpec.of("online-greedy", label="exact", payment_rule="exact"),
    MechanismSpec.of("online-greedy", label="reserve", reserve_price=True),
    MechanismSpec.of(
        "online-greedy",
        label="exact-reserve",
        payment_rule="exact",
        reserve_price=True,
    ),
    MechanismSpec.of("second-price-slot"),
    MechanismSpec.of("fixed-price", price=12.0),
    MechanismSpec.of("random-alloc", seed=7),
    MechanismSpec.of("fifo"),
)

#: A busy round and one whose task rate leaves most slots without tasks.
WORKLOADS = {
    "busy": WorkloadConfig(
        num_slots=10,
        phone_rate=4.0,
        task_rate=2.5,
        mean_cost=10.0,
        mean_active_length=3,
        task_value=15.0,
    ),
    "sparse-tasks": WorkloadConfig(
        num_slots=12,
        phone_rate=3.0,
        task_rate=0.4,
        mean_cost=10.0,
        mean_active_length=2,
        task_value=15,
    ),
}


def repetition(workload, seed, mechanisms=EVERY_MECHANISM):
    return run_repetition(
        workload, mechanisms, seed, retries=0, backoff=0.0, on_failure="raise"
    )


class TestRunRepetitionFromColumns:
    """A repetition runs each mechanism from the round's columns, and the
    results are the ones the scenario path produces, to the byte."""

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_rows_pickle_like_the_scenario_path(self, name, seed):
        workload = WORKLOADS[name]
        row = repetition(workload, seed).row
        scenario = workload.generate(seed)
        engine = SimulationEngine()
        assert len(row) == len(EVERY_MECHANISM)
        for spec, result in zip(EVERY_MECHANISM, row):
            expected = engine.run(spec.build(), scenario)
            assert pickle.dumps(result, protocol=4) == pickle.dumps(
                expected, protocol=4
            ), spec.display_label

    def test_sparse_workload_has_zero_task_slots(self):
        workload = WORKLOADS["sparse-tasks"]
        for seed in range(4):
            counts = workload.generate_columns(seed).task_counts
            assert (counts == 0).any() and counts.sum() > 0

    def test_no_model_object_is_validated(self, monkeypatch):
        """The columns were validated once; a repetition that falls back
        to building validated bids, profiles or tasks fails here."""

        def refuse(self):
            raise AssertionError(
                f"validated {type(self).__name__} built during a repetition"
            )

        for cls in (Bid, SmartphoneProfile, SensingTask):
            monkeypatch.setattr(cls, "__post_init__", refuse)
        for name, workload in sorted(WORKLOADS.items()):
            result = repetition(workload, seed=1)
            assert result.row is not None and not result.retried, name
