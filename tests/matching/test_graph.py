"""Unit tests for the task x smartphone assignment graph."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MatchingError
from repro.matching.graph import TaskAssignmentGraph
from repro.model import Bid, SensingTask, TaskSchedule


@pytest.fixture
def schedule():
    # Two tasks in slot 1, one in slot 2, value 10.
    return TaskSchedule.from_counts([2, 1], value=10.0)


@pytest.fixture
def bids():
    return [
        Bid(phone_id=1, arrival=1, departure=1, cost=3.0),
        Bid(phone_id=2, arrival=1, departure=2, cost=6.0),
        Bid(phone_id=3, arrival=2, departure=2, cost=12.0),  # above value
    ]


class TestConstruction:
    def test_weights_follow_paper(self, schedule, bids):
        graph = TaskAssignmentGraph(schedule, bids)
        # Task 0 (slot 1): phone 1 active (10-3), phone 2 active (10-6),
        # phone 3 inactive (0).
        assert graph.weight(0, 1) == 7.0
        assert graph.weight(0, 2) == 4.0
        assert graph.weight(0, 3) == 0.0
        # Task 2 (slot 2): phone 1 inactive, phone 3 active but negative.
        assert graph.weight(2, 1) == 0.0
        assert graph.weight(2, 3) == -2.0

    def test_num_edges_counts_positive_only(self, schedule, bids):
        graph = TaskAssignmentGraph(schedule, bids)
        # Positive: (t0,p1), (t0,p2), (t1,p1), (t1,p2), (t2,p2) = 5.
        assert graph.num_edges == 5

    def test_duplicate_phone_rejected(self, schedule, bids):
        with pytest.raises(MatchingError, match="duplicate"):
            TaskAssignmentGraph(schedule, bids + [bids[0]])

    def test_unknown_lookups_rejected(self, schedule, bids):
        graph = TaskAssignmentGraph(schedule, bids)
        with pytest.raises(MatchingError):
            graph.weight(99, 1)
        with pytest.raises(MatchingError):
            graph.weight(0, 99)

    def test_bids_sorted_by_phone(self, schedule, bids):
        graph = TaskAssignmentGraph(schedule, list(reversed(bids)))
        assert [b.phone_id for b in graph.bids] == [1, 2, 3]


class TestSolve:
    def test_optimal_allocation(self, schedule, bids):
        graph = TaskAssignmentGraph(schedule, bids)
        allocation, welfare = graph.solve()
        # Optimal: task0/task1 -> phones 1 and 2 (slot 1), task 2 unserved
        # (only phone 3 could do it, at negative welfare).
        assert set(allocation.values()) == {1, 2}
        assert welfare == pytest.approx(7.0 + 4.0)
        assert 2 not in allocation  # task 2 unserved

    def test_never_allocates_negative_welfare(self, schedule, bids):
        graph = TaskAssignmentGraph(schedule, bids)
        allocation, _ = graph.solve()
        for task_id, phone_id in allocation.items():
            assert graph.weight(task_id, phone_id) > 0.0

    def test_exclude_phone(self, schedule, bids):
        graph = TaskAssignmentGraph(schedule, bids)
        allocation, welfare = graph.solve(exclude_phone=1)
        assert 1 not in allocation.values()
        # Phone 2 takes one slot-1 task: welfare 4.
        assert welfare == pytest.approx(4.0)

    def test_exclude_unknown_phone_rejected(self, schedule, bids):
        graph = TaskAssignmentGraph(schedule, bids)
        with pytest.raises(MatchingError):
            graph.solve(exclude_phone=99)

    def test_empty_bids(self, schedule):
        graph = TaskAssignmentGraph(schedule, [])
        allocation, welfare = graph.solve()
        assert allocation == {}
        assert welfare == pytest.approx(0.0)

    def test_empty_schedule(self, bids):
        schedule = TaskSchedule.from_counts([0, 0], value=10.0)
        graph = TaskAssignmentGraph(schedule, bids)
        allocation, welfare = graph.solve()
        assert allocation == {}
        assert welfare == pytest.approx(0.0)


class TestWelfareWithoutPhone:
    def test_matches_full_resolve(self, schedule, bids):
        graph = TaskAssignmentGraph(schedule, bids)
        for bid in bids:
            fast = graph.welfare_without_phone(bid.phone_id)
            _, slow = graph.solve(exclude_phone=bid.phone_id)
            assert fast == pytest.approx(slow)

    def test_matches_full_resolve_random(self):
        from repro.simulation import WorkloadConfig

        workload = WorkloadConfig(
            num_slots=8,
            phone_rate=3.0,
            task_rate=2.0,
            mean_cost=10.0,
            mean_active_length=2,
            task_value=15.0,
        )
        for seed in range(4):
            scenario = workload.generate(seed=seed)
            graph = TaskAssignmentGraph(
                scenario.schedule, scenario.truthful_bids()
            )
            allocation, _ = graph.solve()
            for phone_id in set(allocation.values()):
                fast = graph.welfare_without_phone(phone_id)
                _, slow = graph.solve(exclude_phone=phone_id)
                assert fast == pytest.approx(slow)

    def test_unknown_phone_rejected(self, schedule, bids):
        graph = TaskAssignmentGraph(schedule, bids)
        with pytest.raises(MatchingError):
            graph.welfare_without_phone(99)

    def test_loser_removal_keeps_welfare(self, schedule, bids):
        graph = TaskAssignmentGraph(schedule, bids)
        _, full = graph.solve()
        # Phone 3 never wins; removing it cannot change the optimum.
        assert graph.welfare_without_phone(3) == pytest.approx(full)


def _per_row_edges(graph, compatible=None):
    """The CSR arrays built one task row at a time (the reference)."""
    bids = graph.bids
    arrivals = np.array([bid.arrival for bid in bids])
    departures = np.array([bid.departure for bid in bids])
    costs = np.array([bid.cost for bid in bids])
    counts = []
    col_chunks = []
    weight_chunks = []
    for task in graph.tasks:
        cols = np.nonzero(
            (arrivals <= task.slot) & (departures >= task.slot)
        )[0]
        if compatible is not None:
            cols = np.array(
                [col for col in cols if compatible(task, bids[col])],
                dtype=np.int64,
            )
        counts.append(cols.size)
        if cols.size:
            col_chunks.append(cols.astype(np.int64))
            weight_chunks.append(np.float64(task.value) - costs[cols])
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    if not col_chunks:
        return indptr, np.empty(0, dtype=np.int64), np.empty(0)
    return indptr, np.concatenate(col_chunks), np.concatenate(weight_chunks)


def _odd_pairs(task, bid):
    return (task.task_id + bid.phone_id) % 3 != 0


class TestSlotTiledEdges:
    """One tile per slot equals the per-row build, filtered or not."""

    @pytest.mark.parametrize("compatible", [None, _odd_pairs])
    @pytest.mark.parametrize("seed", range(40))
    def test_csr_arrays_match_per_row_reference(self, seed, compatible):
        rng = np.random.default_rng(seed)
        num_slots = int(rng.integers(1, 9))
        tasks = []
        for slot in range(1, num_slots + 1):
            for index in range(1, int(rng.integers(0, 5)) + 1):
                tasks.append(
                    SensingTask(
                        task_id=len(tasks),
                        slot=slot,
                        index=index,
                        value=float(rng.uniform(1.0, 30.0)),
                    )
                )
        bids = []
        for phone_id in range(int(rng.integers(0, 12))):
            arrival = int(rng.integers(1, num_slots + 1))
            departure = int(rng.integers(arrival, num_slots + 1))
            bids.append(
                Bid(
                    phone_id=phone_id,
                    arrival=arrival,
                    departure=departure,
                    cost=float(rng.uniform(0.5, 25.0)),
                )
            )
        graph = TaskAssignmentGraph(
            TaskSchedule(num_slots, tasks), bids, compatible=compatible
        )
        indptr, edge_cols, edge_weights = _per_row_edges(graph, compatible)
        assert graph._indptr.tobytes() == indptr.tobytes()
        assert graph._edge_cols.tobytes() == edge_cols.tobytes()
        assert graph._edge_weights.tobytes() == edge_weights.tobytes()
