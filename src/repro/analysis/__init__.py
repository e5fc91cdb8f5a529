"""Static and dynamic enforcement of the repository's invariants.

The correctness story of this reproduction rests on conventions that are
documented (ARCHITECTURE.md, ``mechanisms/base.py``) but were historically
unenforced.  This package enforces them mechanically, in two layers:

* :mod:`repro.analysis.linter` — a custom AST lint pass with one rule per
  repo-specific invariant (no global-state randomness, no float ``==`` on
  money, mechanism ``run()`` purity, the mechanism registration contract,
  no bare ``except``, no mutable default arguments).  Run it via
  ``repro-crowd lint`` or ``python -m repro.analysis``.
* :mod:`repro.analysis.flow` — the interprocedural layer: a module-graph
  + def-use dataflow engine whose rules (REP010–REP015) prove
  concurrency and determinism properties across function boundaries —
  pickle-safety at the worker boundary, no worker-reachable mutable
  globals, RNG-stream discipline, order-independent reductions, no
  telemetry in hot inner loops, and clock-guarded time reads.  Run it
  via ``repro-crowd lint --flow``.
* :mod:`repro.analysis.sanitizer` — a runtime wrapper that validates every
  :class:`~repro.model.AuctionOutcome` a mechanism produces against the
  paper's structural feasibility, individual-rationality, and
  welfare-accounting invariants (Theorems 1-5), plus the schedule-fuzzing
  :func:`check_parallel_determinism` that executes a sweep point under
  permuted worker counts and chunk orders (plus campaign rounds and
  sharded campaigns) and asserts byte-identical outcomes.

Both layers report structured records (:class:`LintViolation`,
:class:`Violation`) rather than strings, so tooling and tests can assert
on them precisely.
"""

from repro.analysis.flow import FlowReport, run_flow
from repro.analysis.linter import (
    DEFAULT_LINT_PATHS,
    iter_python_files,
    lint_paths,
    lint_source,
)
from repro.analysis.reporters import render_json, render_text
from repro.analysis.rules import ALL_RULES, default_rules, get_rule
from repro.analysis.rules.base import LintRule, LintViolation, SourceFile
from repro.analysis.sanitizer import (
    SanitizedMechanism,
    Violation,
    check_parallel_determinism,
    check_replay_fidelity,
    check_trace_transparency,
    sanitize_outcome,
)

__all__ = [
    "ALL_RULES",
    "DEFAULT_LINT_PATHS",
    "FlowReport",
    "LintRule",
    "LintViolation",
    "SanitizedMechanism",
    "SourceFile",
    "Violation",
    "check_parallel_determinism",
    "check_replay_fidelity",
    "check_trace_transparency",
    "default_rules",
    "get_rule",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "render_json",
    "render_text",
    "run_flow",
    "sanitize_outcome",
]
