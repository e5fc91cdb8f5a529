"""Every matching engine on one instance, for the cross-engine suites.

:class:`~repro.matching.graph.TaskAssignmentGraph` picks its engine from
the instance and has no option to pick another.  The suites reach all
four engines anyway:

* ``"dense"`` and ``"sparse"`` are the production engines.
  :func:`forced_engine` patches the two thresholds of
  :mod:`repro.matching.graph`, so every graph built inside the block —
  the mechanisms' graphs included — takes the named engine.
* ``"python"`` and ``"scipy"`` are cold references: the pure-Python
  Hungarian (:func:`~repro.matching.hungarian.solve_assignment_min`) on
  the graph's padded dense matrix, and scipy on its CSR form
  (:mod:`tests.matching.scipy_oracle`, skipped without scipy).  They have
  no warm repair, so an exclusion is a fresh solve.

:func:`offline_vcg` runs the offline mechanism's allocation and payment
rule on any of the four.
"""

from __future__ import annotations

import contextlib
import math
from typing import Dict, Iterator, Optional, Sequence, Tuple
from unittest import mock

import numpy as np

import repro.matching.graph as graph_module
from repro.matching.graph import TaskAssignmentGraph
from repro.matching.hungarian import solve_assignment_min
from repro.matching.solver import padded_cost
from repro.mechanisms.offline_vcg import OfflineVCGMechanism
from repro.model.bid import Bid
from repro.model.outcome import AuctionOutcome
from repro.model.task import TaskSchedule
from tests.matching.scipy_oracle import min_cost_csr, solve_csr_min_weight

WARM_ENGINES = ("dense", "sparse")
COLD_ENGINES = ("python", "scipy")
ENGINES = WARM_ENGINES + COLD_ENGINES


@contextlib.contextmanager
def forced_engine(engine: Optional[str]) -> Iterator[None]:
    """Build every graph inside the block on ``engine``.

    ``None`` leaves the instance rule in force.
    """
    if engine is None:
        yield
        return
    if engine == "sparse":
        thresholds = {"SPARSE_MIN_CELLS": 0, "SPARSE_MAX_DENSITY": 1.0}
    elif engine == "dense":
        thresholds = {"SPARSE_MIN_CELLS": math.inf}
    else:
        raise ValueError(f"not a graph engine: {engine!r}")
    with mock.patch.multiple(graph_module, **thresholds):
        yield


def cold_assignment(graph: TaskAssignmentGraph, engine: str) -> np.ndarray:
    """``row -> col`` of the graph's optimum from a cold reference."""
    weights = np.asarray(graph.weights)
    if engine == "python":
        assignment, _ = solve_assignment_min(padded_cost(weights).tolist())
        return np.asarray(assignment, dtype=np.int64)
    if engine != "scipy":
        raise ValueError(f"not a cold reference: {engine!r}")
    indptr, indices, data, dummy_cost = min_cost_csr(weights)
    return solve_csr_min_weight(
        *weights.shape, indptr, indices, data, dummy_cost=dummy_cost
    )


def solve(
    schedule: TaskSchedule,
    bids: Sequence[Bid],
    engine: str,
    exclude_phone: Optional[int] = None,
) -> Tuple[Dict[int, int], float]:
    """``TaskAssignmentGraph.solve`` on ``engine``."""
    if engine in WARM_ENGINES:
        with forced_engine(engine):
            return TaskAssignmentGraph(schedule, bids).solve(exclude_phone)
    kept = [bid for bid in bids if bid.phone_id != exclude_phone]
    graph = TaskAssignmentGraph(schedule, kept)
    if not graph.tasks or not graph.bids:
        return {}, 0.0
    return graph._extract_allocation(
        cold_assignment(graph, engine), list(graph.bids)
    )


def offline_vcg(
    bids: Sequence[Bid], schedule: TaskSchedule, engine: Optional[str] = None
) -> AuctionOutcome:
    """:class:`OfflineVCGMechanism` with its matching on ``engine``.

    ``None`` runs the mechanism as is.  A cold reference supplies the
    allocation and the claimed welfare; payments then follow the
    mechanism's rule: the one-pass replacement on interval-matroid
    rounds, a fresh exclusion solve per winner otherwise.
    """
    if engine not in COLD_ENGINES:
        with forced_engine(engine):
            return OfflineVCGMechanism().run(bids, schedule)
    graph = TaskAssignmentGraph(schedule, bids)
    allocation, welfare = solve(schedule, bids, engine)
    winners = sorted(set(allocation.values()))
    if graph.is_interval_matroid:
        without = graph.welfare_without_each_winner(allocation)
    else:
        without = {
            phone_id: solve(schedule, bids, engine, phone_id)[1]
            for phone_id in winners
        }
    bid_by_phone = {bid.phone_id: bid for bid in bids}
    return AuctionOutcome(
        bids=bids,
        schedule=schedule,
        allocation=allocation,
        payments={
            phone_id: welfare + bid_by_phone[phone_id].cost - without[phone_id]
            for phone_id in winners
        },
        payment_slots={
            phone_id: bid_by_phone[phone_id].departure for phone_id in winners
        },
    )
