"""Interprocedural concurrency & determinism analysis (REP010–REP015).

The flow package proves, statically, the properties the paper's
truthfulness guarantees assume at scale: nothing unpicklable crosses a
process-pool boundary (REP010), no worker mutates module-level state
(REP011), every random draw in mechanism/solver/fault code flows from a
named ``RngStreams`` handle (REP012), no hot-path reduction depends on
set iteration order (REP013), no telemetry burns inside per-bid inner
loops (REP014), and replay-critical code reads time only through the
injectable clock layer (REP015).

Layering::

    modules.py    discover + name modules, build the graph
    summaries.py  one picklable dataflow summary per function (cached)
    engine.py     call resolution, class dispatch, worker reachability
    rules.py      REP010–REP015 over the engine
    baseline.py   committed (code, path, symbol)-matched suppressions
    driver.py     run_flow(): orchestrate, cache, noqa + baseline

The runtime counterpart — schedule-fuzzing over worker counts, chunk
orders, and shard pools — lives in
:func:`repro.analysis.sanitizer.check_parallel_determinism`.
"""

from repro.analysis.flow.baseline import (
    BASELINE_SCHEMA,
    BaselineEntry,
    BaselineError,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.flow.driver import (
    DEFAULT_FLOW_ROOT,
    FlowReport,
    build_graph,
    run_flow,
)
from repro.analysis.flow.engine import FlowEngine
from repro.analysis.flow.modules import (
    ModuleGraph,
    build_module_graph,
    module_name_for,
)
from repro.analysis.flow.rules import (
    ALL_FLOW_RULES,
    FlowRule,
    flow_rules,
    run_flow_rules,
)
from repro.analysis.flow.summaries import (
    FunctionSummary,
    ModuleSummary,
    summarize_module,
)

__all__ = [
    "ALL_FLOW_RULES",
    "BASELINE_SCHEMA",
    "BaselineEntry",
    "BaselineError",
    "DEFAULT_FLOW_ROOT",
    "FlowEngine",
    "FlowReport",
    "FlowRule",
    "FunctionSummary",
    "ModuleGraph",
    "ModuleSummary",
    "apply_baseline",
    "build_graph",
    "build_module_graph",
    "flow_rules",
    "load_baseline",
    "module_name_for",
    "run_flow",
    "run_flow_rules",
    "summarize_module",
    "write_baseline",
]
