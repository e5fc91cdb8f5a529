"""``AssignmentSolver`` against oracles on tie-heavy, repeated-row costs.

Rows with bit-identical costs share one ``cost - v`` row, and a tree row
whose class was already relaxed at a larger offset skips its relax;
parents are recovered after each search as the first tree row attaining
a column's distance.  Both shortcuts only matter when rows repeat and
slacks tie, so every matrix here has repeated rows.  On small integer
costs (ties everywhere, exact float totals) the solve must give the
reference solver's matching, ties included, and every repaired matching
must cost what a cold re-solve costs.  On one-decimal costs, where rounding
breaks some ties, every query must match the same solver with one class
per row bit for bit.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pytest

from repro import obs
from repro.experiments.config import apply_workload_override
from repro.experiments.figures import figure_spec
from repro.matching.graph import TaskAssignmentGraph
from repro.matching.hungarian import solve_assignment_min
from repro.matching.solver import AssignmentSolver
from repro.obs import Tracer


def _repeated_rows(seed: int) -> np.ndarray:
    """An integer cost matrix whose rows repeat, with more columns than rows."""
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(2, 10))
    cols = int(rng.integers(rows + 1, rows + 8))
    distinct = rng.integers(0, int(rng.integers(2, 5)), size=(rows, cols))
    picks = rng.integers(0, max(1, rows // 2), size=rows)
    cost = distinct[picks].astype(float)
    assert len({row.tobytes() for row in cost}) < rows
    return cost


def _decimal_repeated_rows(seed: int) -> np.ndarray:
    """Repeated rows of one-decimal costs: ties that rounding can break."""
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(2, 10))
    cols = int(rng.integers(rows + 1, rows + 8))
    distinct = rng.integers(0, 30, size=(rows, cols)) * 0.1
    return distinct[rng.integers(0, max(1, rows // 2), size=rows)]


class _OneClassPerRow(AssignmentSolver):
    """The same solver with every row in a class of its own.

    No tree row then shares a class with another, so no relax is ever
    skipped: the plain search the class skip must reproduce bit for bit.
    """

    @staticmethod
    def _cost_classes(cost: np.ndarray) -> List[int]:
        return list(range(len(cost)))


def _cold_total(cost: np.ndarray) -> float:
    return solve_assignment_min(cost.tolist())[1]


def _assert_assignment(cost: np.ndarray, row_to_col, total: float) -> None:
    """``row_to_col`` matches every row to a distinct column at ``total``."""
    cols = row_to_col.tolist()
    assert min(cols) >= 0 and len(set(cols)) == len(cols)
    assert sum(cost[row, col] for row, col in enumerate(cols)) == total


SEEDS = range(40)


class TestSolveAgainstReference:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_matching_ties_included(self, seed):
        cost = _repeated_rows(seed)
        row_to_col, total = AssignmentSolver(cost).solve()
        reference, reference_total = solve_assignment_min(cost.tolist())
        assert row_to_col.tolist() == reference
        assert total == reference_total

    def test_one_class_of_rows(self):
        cost = np.tile([3.0, 1.0, 1.0, 2.0, 1.0, 0.0, 0.0], (5, 1))
        row_to_col, total = AssignmentSolver(cost).solve()
        reference, reference_total = solve_assignment_min(cost.tolist())
        assert row_to_col.tolist() == reference
        assert total == reference_total


class TestColumnRemovalAgainstColdResolve:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_column(self, seed):
        cost = _repeated_rows(seed)
        solver = AssignmentSolver(cost)
        solver.solve()
        for column in range(cost.shape[1]):
            reduced = np.delete(cost, column, axis=1)
            expected = _cold_total(reduced)
            repaired = solver.matching_without_column(column)
            assert column not in repaired.tolist()
            _assert_assignment(cost, repaired, expected)


class TestRowClassesChangeNothing:
    """Shared rows and skipped relaxes against the plain search.

    One-decimal costs round, so a same-class row can enter the tree at
    an offset a float ulp above the one its class was relaxed at; only
    the offset test then tells the skip it must relax again.
    """

    @pytest.mark.parametrize("seed", range(60))
    def test_every_query_bit_identical(self, seed):
        cost = _decimal_repeated_rows(seed)
        shared, plain = AssignmentSolver(cost), _OneClassPerRow(cost)
        shared_solution, plain_solution = shared.solve(), plain.solve()
        assert shared_solution[0].tolist() == plain_solution[0].tolist()
        assert shared_solution[1].hex() == plain_solution[1].hex()
        for column in range(cost.shape[1]):
            assert (
                shared.matching_without_column(column).tolist()
                == plain.matching_without_column(column).tolist()
            )


def _figure_round(name: str, point: int, repetition: int) -> TaskAssignmentGraph:
    """The offline graph of one seed-2014 figure-sweep round."""
    spec = figure_spec(name, repetitions=10, base_seed=2014)
    workload = apply_workload_override(
        spec.config.workload, spec.param, spec.values[point]
    )
    columns = workload.generate_columns(spec.config.seeds()[repetition])
    return TaskAssignmentGraph(columns.schedule, columns.decode_bids())


class TestFigureRoundWork:
    """A skipped relax still counts as a pivot: the search is the same one."""

    @pytest.mark.parametrize(
        "round_key, augmentations, pivots, welfare",
        [
            (("fig6", 0, 0), 89, 531, "0x1.5fe3e70fc5423p+10"),
            (("fig6", 3, 4), 172, 1440, "0x1.5a8d2a65f3bb6p+11"),
            (("fig7", 2, 5), 130, 1199, "0x1.2015d5676c2b7p+11"),
            (("fig8", -1, 9), 149, 4308, "0x1.e7a36896de804p+9"),
        ],
    )
    def test_pivots_and_augmentations_pinned(
        self, round_key, augmentations, pivots, welfare
    ):
        graph = _figure_round(*round_key)
        assert graph.engine == "dense"
        tracer = Tracer()
        with obs.activate(tracer):
            _, claimed = graph.solve()
        counters = tracer.metrics.counters
        assert counters["matching.augmentations"] == augmentations
        assert counters["matching.pivots"] == pivots
        assert claimed.hex() == welfare
