"""Engine choice of the assignment graph, and the scipy oracle.

The graph picks the CSR engine for large sparse instances and the dense
engine otherwise; the rule is part of every output digest, so the
instances the perf gates and the paper's figures run are pinned to their
engines here.  Also covers the scipy welfare oracle (skipped when scipy
is absent) and the ``compatible`` callback on the sparse path.
"""

import numpy as np
import pytest

import repro.matching.graph as graph_module
from repro.experiments.config import apply_workload_override
from repro.experiments.figures import figure_spec
from repro.matching import SparseAssignmentSolver, max_weight_matching
from repro.matching.graph import TaskAssignmentGraph
from repro.model.bid import Bid
from repro.model.task import TaskSchedule
from repro.simulation.workload import WorkloadConfig
from tests.matching.engines import forced_engine, solve
from tests.matching.scipy_oracle import min_cost_csr, solve_csr_min_weight


def _small_instance():
    scenario = WorkloadConfig(num_slots=12).generate(seed=3)
    return scenario.truthful_bids(), scenario.schedule


class TestAutoDispatch:
    def test_small_instance_resolves_dense(self):
        bids, schedule = _small_instance()
        graph = TaskAssignmentGraph(schedule, bids)
        assert graph.engine == "dense"

    def test_explicit_override_wins(self):
        """Patched thresholds force either engine, then the rule returns."""
        bids, schedule = _small_instance()
        with forced_engine("sparse"):
            assert TaskAssignmentGraph(schedule, bids).engine == "sparse"
        assert TaskAssignmentGraph(schedule, bids).engine == "dense"
        scenario = WorkloadConfig(num_slots=300).generate(seed=3)
        with forced_engine("dense"):
            graph = TaskAssignmentGraph(
                scenario.schedule, scenario.truthful_bids()
            )
        assert graph.engine == "dense"

    def test_large_sparse_instance_resolves_sparse(self, monkeypatch):
        # Shrink the size threshold so a 30-slot instance counts as
        # city-scale; the density half of the rule is what's under test.
        scenario = WorkloadConfig(num_slots=30).generate(seed=3)
        bids, schedule = scenario.truthful_bids(), scenario.schedule
        probe = TaskAssignmentGraph(schedule, bids)
        monkeypatch.setattr(graph_module, "SPARSE_MIN_CELLS", 1)
        assert probe.edge_density <= graph_module.SPARSE_MAX_DENSITY
        graph = TaskAssignmentGraph(schedule, bids)
        assert graph.engine == "sparse"

    def test_dense_instance_stays_dense_despite_size(self, monkeypatch):
        monkeypatch.setattr(graph_module, "SPARSE_MIN_CELLS", 1)
        schedule = TaskSchedule.from_counts([2, 2], value=30.0)
        bids = [
            Bid(phone_id=i, arrival=1, departure=2, cost=10.0 + i)
            for i in range(4)
        ]
        graph = TaskAssignmentGraph(schedule, bids)
        assert graph.edge_density == 1.0
        assert graph.engine == "dense"

    def test_auto_thresholds_hold_paper_scale_on_dense(self):
        scenario = WorkloadConfig(num_slots=80).generate(seed=11)
        graph = TaskAssignmentGraph(
            scenario.schedule, scenario.truthful_bids()
        )
        assert graph.engine == "dense"

    def test_perf_gate_shapes_keep_their_engines(self):
        """The CI perf gates time the same engine as their baselines.

        ``test_offline_vcg_scaling[80]`` (dense) and
        ``test_offline_vcg_scaling_sparse[500]`` (sparse) in
        ``benchmarks/test_perf_scaling.py`` gate against committed
        timings of those engines; the benchmark builds its instances
        this way.
        """
        engines = {}
        for num_slots in (80, 500):
            scenario = WorkloadConfig.paper_default().replace(
                num_slots=num_slots
            ).generate(seed=1)
            engines[num_slots] = TaskAssignmentGraph(
                scenario.schedule, scenario.truthful_bids()
            ).engine
        assert engines == {80: "dense", 500: "sparse"}

    @pytest.mark.parametrize("name", ["fig6", "fig7", "fig8"])
    def test_every_figure_round_solves_dense(self, name):
        """Figs. 6–11 at seed 2014 never reach the sparse engine.

        The engines may serve different tasks on tied optima, which
        moves the real-cost welfare and so the figure digests; a
        threshold change that sent any of these rounds to the sparse
        engine has to fail here first.
        """
        spec = figure_spec(name, base_seed=2014)
        for value in spec.values:
            workload = apply_workload_override(
                spec.config.workload, spec.param, value
            )
            for seed in spec.config.seeds():
                scenario = workload.generate(seed)
                graph = TaskAssignmentGraph(
                    scenario.schedule, scenario.truthful_bids()
                )
                assert graph.engine == "dense", (name, value, seed)


class TestScipyGating:
    def test_scipy_backend_matches_welfare(self):
        bids, schedule = _small_instance()
        _, expected = TaskAssignmentGraph(schedule, bids).solve()
        allocation, welfare = solve(schedule, bids, "scipy")
        assert welfare == pytest.approx(expected, abs=1e-9)
        assert allocation  # something was actually matched

    def test_scipy_welfare_without_phone_matches_cold(self):
        bids, schedule = _small_instance()
        graph = TaskAssignmentGraph(schedule, bids)
        allocation, _ = graph.solve()
        phone = next(iter(allocation.values()))
        assert graph.welfare_without_phone(phone) == pytest.approx(
            solve(schedule, bids, "scipy", exclude_phone=phone)[1],
            abs=1e-9,
        )

    def test_max_weight_matching_scipy_total(self):
        rng = np.random.default_rng(5)
        weights = rng.uniform(-5.0, 20.0, size=(6, 9))
        expected = max_weight_matching(weights.tolist())
        indptr, indices, data, dummy_cost = min_cost_csr(weights)
        assignment = solve_csr_min_weight(
            6, 9, indptr, indices, data, dummy_cost=dummy_cost
        )
        total = sum(
            weights[row, col]
            for row, col in enumerate(assignment.tolist())
            if col < 9 and weights[row, col] > 0.0
        )
        assert total == pytest.approx(expected.total_weight, abs=1e-9)


class TestSparseGraphPath:
    def test_compatible_callback_on_sparse_backend(self):
        schedule = TaskSchedule.from_counts([1, 1], value=30.0)
        bids = [
            Bid(phone_id=0, arrival=1, departure=2, cost=5.0),
            Bid(phone_id=1, arrival=1, departure=2, cost=1.0),
        ]
        evaluated = []

        def compatible(task, bid):
            evaluated.append((task.task_id, bid.phone_id))
            return bid.phone_id == 0

        with forced_engine("sparse"):
            graph = TaskAssignmentGraph(
                schedule, bids, compatible=compatible
            )
        assert graph.engine == "sparse"
        allocation, _ = graph.solve()
        assert set(allocation.values()) == {0}
        # Evaluated only on interval-active pairs — here all four.
        assert sorted(evaluated) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_compatible_skips_interval_inactive_pairs(self):
        schedule = TaskSchedule.from_counts([1, 0, 1], value=30.0)
        bids = [
            Bid(phone_id=0, arrival=1, departure=1, cost=5.0),
            Bid(phone_id=1, arrival=3, departure=3, cost=5.0),
        ]
        evaluated = []

        def compatible(task, bid):
            evaluated.append((task.slot, bid.phone_id))
            return True

        TaskAssignmentGraph(schedule, bids, compatible=compatible)
        # Phone 0 is active only in slot 1, phone 1 only in slot 3: the
        # two cross pairs are never evaluated.
        assert sorted(evaluated) == [(1, 0), (3, 1)]

    def test_exclude_phone_inherits_backend(self):
        bids, schedule = _small_instance()
        with forced_engine("sparse"):
            graph = TaskAssignmentGraph(schedule, bids)
            allocation, _ = graph.solve()
            phone = next(iter(allocation.values()))
            _, reduced_welfare = graph.solve(exclude_phone=phone)
        assert reduced_welfare == graph.welfare_without_phone(phone)  # repro: noqa-REP002 -- warm repair vs cold exclusion, bitwise

    def test_weight_accessor_agrees_with_dense_matrix(self):
        bids, schedule = _small_instance()
        with forced_engine("sparse"):
            graph = TaskAssignmentGraph(schedule, bids)
        dense = np.asarray(graph.weights)
        for row, task in enumerate(graph.tasks[:10]):
            for col, bid in enumerate(graph.bids):
                assert (
                    graph.weight(task.task_id, bid.phone_id)
                    == dense[row, col]
                )

    def test_city_scale_build_never_allocates_dense_matrix(self):
        """A 1000-slot graph builds in a fraction of the dense footprint.

        The dense ``tasks x bids`` matrix of this instance is ~140 MB;
        the CSR build must stay well under a quarter of that (it
        measures ~6 MB in practice — the point is the *scaling*, not
        the constant).
        """
        import tracemalloc

        scenario = WorkloadConfig.paper_default().replace(
            num_slots=1000
        ).generate(seed=1)
        bids = scenario.truthful_bids()
        tracemalloc.start()
        try:
            graph = TaskAssignmentGraph(scenario.schedule, bids)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        dense_bytes = len(graph.tasks) * len(graph.bids) * 8
        assert dense_bytes > 100_000_000  # genuinely city-scale
        assert peak < dense_bytes / 4
        # ... and the engine rule sends an instance this size to sparse.
        assert graph.engine == "sparse"

    def test_max_weight_matching_sparse_backend_identical(self):
        """The CSR solver on a dense input picks the dense entry's pairs."""
        rng = np.random.default_rng(9)
        weights = rng.uniform(-5.0, 20.0, size=(7, 11))
        dense = max_weight_matching(weights.tolist())
        indptr, indices, data, dummy_cost = min_cost_csr(weights)
        assignment, _ = SparseAssignmentSolver(
            7, 11, indptr, indices, data, dummy_cost=dummy_cost
        ).solve()
        pairs = tuple(
            (row, col)
            for row, col in enumerate(assignment.tolist())
            if col < 11 and weights[row, col] > 0.0
        )
        assert pairs == dense.pairs
        assert sum(weights[row, col] for row, col in pairs) == pytest.approx(
            dense.total_weight, abs=1e-12
        )
