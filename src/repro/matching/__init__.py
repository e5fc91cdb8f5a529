"""Bipartite matching substrate.

The offline mechanism reduces winning-bid determination to maximum-weight
bipartite matching (Section IV-B of the paper).  This package provides:

* :mod:`repro.matching.graph` — building the task x smartphone weighted
  bipartite graph from bids and a task schedule, and solving it on the
  engine the instance calls for (dense or CSR),
* :mod:`repro.matching.solver` — the vectorised dense assignment solver
  with its warm-started column-removal repair, and
  :func:`~repro.matching.solver.max_weight_matching`, the entry point for
  dense weight matrices,
* :mod:`repro.matching.sparse` — the CSR heap-Dijkstra assignment solver
  for large sparse (interval-structured) instances, same repair query,
* :mod:`repro.matching.hungarian` — a from-scratch ``O(n^3)`` Hungarian
  algorithm (potentials + slack arrays), the reference the solvers are
  audited against,
* :mod:`repro.matching.bruteforce` — exponential exact matcher used to
  cross-check the Hungarian implementation on small instances,
* :mod:`repro.matching.validate` — structural validity checks.
"""

from repro.matching.bruteforce import brute_force_max_weight_matching
from repro.matching.graph import TaskAssignmentGraph
from repro.matching.hungarian import MatchingResult, solve_assignment_min
from repro.matching.solver import AssignmentSolver, max_weight_matching
from repro.matching.sparse import SparseAssignmentSolver
from repro.matching.validate import check_matching

__all__ = [
    "AssignmentSolver",
    "SparseAssignmentSolver",
    "TaskAssignmentGraph",
    "MatchingResult",
    "max_weight_matching",
    "solve_assignment_min",
    "brute_force_max_weight_matching",
    "check_matching",
]
