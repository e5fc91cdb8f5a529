"""The interprocedural rules REP010–REP015.

Unlike the single-file rules in :mod:`repro.analysis.rules`, these run
over a resolved :class:`~repro.analysis.flow.engine.FlowEngine` — each
``check`` sees the whole call graph at once.  Every violation carries a
``symbol`` (``module:qualname``) so the baseline file can match findings
across line-number drift.

Scopes
------
*Worker-reachable* means in the call-graph closure of any function
handed to ``executor.submit`` — code that executes inside a process-pool
worker, where an unpicklable value dies at the boundary, a mutated
module global silently diverges per process, and a wall-clock read
breaks byte-identical replay.  *Hot-path packages* are the per-bid inner
loops of the paper's mechanism and its solvers (``repro.mechanisms``,
``repro.matching``); *seeded packages* additionally cover the fault
layer, where every draw must come from a named stream.
"""

from __future__ import annotations

import abc
from typing import Iterator, List, Sequence, Tuple

from repro.analysis.flow.engine import FlowEngine
from repro.analysis.flow.summaries import FunctionSummary, ModuleSummary
from repro.analysis.rules.base import LintViolation

#: Packages whose inner loops are the paper's hot path.
HOT_PATH_PACKAGES = ("repro.mechanisms", "repro.matching")

#: Packages where every random draw must flow from a named RngStreams
#: handle (mechanism / solver / fault code).
SEEDED_PACKAGES = ("repro.mechanisms", "repro.matching", "repro.faults")

#: The sanctioned wall-clock choke point: the injectable Clock layer.
CLOCK_MODULE = "repro.obs.clock"

#: Modules sanctioned to touch the clock: the Clock layer itself.
CLOCK_EXEMPT_MODULES = (CLOCK_MODULE,)


def _in_packages(module: str, packages: Sequence[str]) -> bool:
    return any(
        module == package or module.startswith(package + ".")
        for package in packages
    )


class FlowRule(abc.ABC):
    """Base class of the interprocedural rules."""

    name: str = "abstract-flow"
    code: str = "REP0XX"
    description: str = ""

    @abc.abstractmethod
    def check(self, engine: FlowEngine) -> Iterator[LintViolation]:
        """Yield every violation found in ``engine``'s module graph."""

    def violation(
        self,
        summary: ModuleSummary,
        line: int,
        col: int,
        message: str,
        symbol: str,
    ) -> LintViolation:
        return LintViolation(
            path=summary.path,
            line=line,
            col=col,
            code=self.code,
            rule=self.name,
            message=message,
            symbol=symbol,
        )


def _each_function(
    engine: FlowEngine,
) -> Iterator[Tuple[str, ModuleSummary, FunctionSummary]]:
    for key, (summary, fn) in sorted(engine.functions.items()):
        yield key, summary, fn


class WorkerPickleSafetyRule(FlowRule):
    """REP010: values crossing the worker boundary must be picklable.

    A callable handed to ``executor.submit`` must be a module-level
    function (pickle serialises it by qualified name), and no argument
    may be a lambda or a function defined inside the submitting scope —
    both die in ``pickle.dumps`` at submission time, but only once a
    worker actually picks them up, which makes the failure intermittent
    under small pools.

    Shared-memory handles are the quieter variant: a local built via
    ``SharedMemory(...)`` *does* pickle (by name, reconstructing a
    second live handle in the worker), so nothing fails at submit time
    — but the worker's copy re-registers with the resource tracker and
    double-frees on close/unlink.  The discipline is to pass the
    segment *name* (``segment.name``, an attribute access the rule
    deliberately leaves clean) and re-attach inside the worker, as
    :func:`repro.experiments.sharding._run_shard` does.
    """

    name = "worker-pickle-safety"
    code = "REP010"
    description = (
        "callables and arguments passed to executor.submit must be "
        "module-level and picklable (no lambdas or nested functions); "
        "shared-memory handles must cross by segment name, not by value"
    )

    def check(self, engine: FlowEngine) -> Iterator[LintViolation]:
        for key, summary, fn in _each_function(engine):
            for submit in fn.submits:
                if submit.callable_kind in {"lambda", "nested"}:
                    yield self.violation(
                        summary,
                        submit.line,
                        submit.col,
                        f"worker callable {submit.callable_name!r} is a "
                        f"{submit.callable_kind} "
                        "function; process pools can only pickle "
                        "module-level functions",
                        symbol=key,
                    )
                for bad in submit.bad_args:
                    yield self.violation(
                        summary,
                        submit.line,
                        submit.col,
                        f"argument {bad!r} passed across the worker "
                        "boundary is not picklable (lambda or locally "
                        "defined function)",
                        symbol=key,
                    )
                for handle in submit.handle_args:
                    yield self.violation(
                        summary,
                        submit.line,
                        submit.col,
                        f"argument {handle!r} is a live shared-memory "
                        "handle; pickling it ships a second owner to "
                        "the worker (double close/unlink) — pass "
                        f"{handle}.name and attach by name worker-side",
                        symbol=key,
                    )


class WorkerMutableGlobalRule(FlowRule):
    """REP011: no mutable-global writes reachable from worker entrypoints.

    A module-level list/dict/set mutated inside a worker exists once
    *per process*: the parent never sees the write, two workers never
    see each other's, and a resumed run starts empty — state that looks
    shared but is not.  Rebinding via ``global`` is flagged regardless
    of mutability.
    """

    name = "worker-mutable-global"
    code = "REP011"
    description = (
        "module-level mutable state must not be written by code "
        "reachable from a process-pool worker entrypoint"
    )

    def check(self, engine: FlowEngine) -> Iterator[LintViolation]:
        reachable = engine.worker_reachable()
        for key, summary, fn in _each_function(engine):
            entry = reachable.get(key)
            if entry is None:
                continue
            mutable = {name for name, _ in summary.mutable_globals}
            params = {name for name, _ in fn.params}
            locals_ = set(fn.assigned_locals)
            for write in fn.global_writes:
                if write.kind == "mutate" and (
                    write.name not in mutable
                    or write.name in params
                    or write.name in locals_
                ):
                    continue
                yield self.violation(
                    summary,
                    write.line,
                    write.col,
                    f"{write.kind} of module-level {write.name!r} is "
                    f"reachable from worker entrypoint {entry!r}; "
                    "per-process copies of this state silently diverge",
                    symbol=key,
                )


class RngStreamDisciplineRule(FlowRule):
    """REP012: draws in mechanism/solver/fault code use named streams.

    Constructing or reseeding an ambient RNG
    (``np.random.default_rng``, ``random.seed``, ...) inside the seeded
    packages detaches the draw from the ``RngStreams`` hierarchy that
    makes sweeps replayable; randomness must arrive as an argument or
    through a named ``streams.get(...)`` handle.
    """

    name = "rng-stream-discipline"
    code = "REP012"
    description = (
        "mechanism/solver/fault code must not construct or reseed "
        "ambient RNGs; draws flow from named RngStreams handles"
    )

    def check(self, engine: FlowEngine) -> Iterator[LintViolation]:
        for key, summary, fn in _each_function(engine):
            if not _in_packages(summary.module, SEEDED_PACKAGES):
                continue
            for site in fn.rng_creations:
                yield self.violation(
                    summary,
                    site.line,
                    site.col,
                    f"ambient RNG {site.what!r} constructed in seeded "
                    "package code; take an rng argument or use a named "
                    "RngStreams handle",
                    symbol=key,
                )


class UnorderedReductionRule(FlowRule):
    """REP013: set iteration must not feed order-sensitive reductions.

    Float addition is not associative, and dict insertion order is
    payload: a loop over a ``set`` that accumulates floats or fills a
    mapping produces hash-order-dependent bytes, which breaks the
    bit-identical guarantee payments rely on.  Iterate
    ``sorted(the_set)`` instead.
    """

    name = "unordered-reduction"
    code = "REP013"
    description = (
        "iterating a set while accumulating floats or filling a dict "
        "makes the result hash-order dependent; iterate sorted(...)"
    )

    def check(self, engine: FlowEngine) -> Iterator[LintViolation]:
        for key, summary, fn in _each_function(engine):
            for site in fn.set_reductions:
                yield self.violation(
                    summary,
                    site.line,
                    site.col,
                    f"{site.what} in iteration order; wrap the iterable "
                    "in sorted(...) to fix the order",
                    symbol=key,
                )


class TelemetryInInnerLoopRule(FlowRule):
    """REP014: no span/metric emission inside hot-path inner loops.

    Telemetry per bid multiplies observer cost into the O(n·m) payment
    loops the benchmarks gate; spans and counters belong at phase
    boundaries (see ``mechanisms/greedy_core.py`` for the pattern).
    """

    name = "telemetry-in-inner-loop"
    code = "REP014"
    description = (
        "obs.span/counter/observe/gauge must not be called inside "
        "loops in mechanism/solver hot paths"
    )

    def check(self, engine: FlowEngine) -> Iterator[LintViolation]:
        for key, summary, fn in _each_function(engine):
            if not _in_packages(summary.module, HOT_PATH_PACKAGES):
                continue
            for site in fn.telemetry_in_loop:
                yield self.violation(
                    summary,
                    site.line,
                    site.col,
                    f"telemetry call {site.what!r} inside a loop on the "
                    "hot path; hoist it to the enclosing phase boundary",
                    symbol=key,
                )


class UnguardedTimeReadRule(FlowRule):
    """REP015: replay-critical code reads time only through the Clock layer.

    Worker-reachable code calling ``time.*``/``datetime.now`` or
    reading ``os.environ`` produces values that differ per run and per
    host, poisoning byte-identical resume; route reads through
    :mod:`repro.obs.clock` (``perf_seconds`` / an injected ``Clock``),
    which replay harnesses can freeze.
    """

    name = "unguarded-time-read"
    code = "REP015"
    description = (
        "worker-reachable code must read time/env through "
        "repro.obs.clock, not time.*/datetime.now/os.environ"
    )

    def check(self, engine: FlowEngine) -> Iterator[LintViolation]:
        reachable = engine.worker_reachable()
        for key, summary, fn in _each_function(engine):
            if summary.module in CLOCK_EXEMPT_MODULES:
                continue
            entry = reachable.get(key)
            if entry is None:
                continue
            for site in fn.time_reads:
                yield self.violation(
                    summary,
                    site.line,
                    site.col,
                    f"unguarded {site.what!r} read is reachable from "
                    f"worker entrypoint {entry!r}; use repro.obs.clock "
                    "so replay can inject a deterministic source",
                    symbol=key,
                )


#: Every flow rule, in code order.
ALL_FLOW_RULES: Tuple[type, ...] = (
    WorkerPickleSafetyRule,
    WorkerMutableGlobalRule,
    RngStreamDisciplineRule,
    UnorderedReductionRule,
    TelemetryInInnerLoopRule,
    UnguardedTimeReadRule,
)


def flow_rules() -> List[FlowRule]:
    """Instantiate all six interprocedural rules."""
    return [rule() for rule in ALL_FLOW_RULES]


def run_flow_rules(engine: FlowEngine) -> List[LintViolation]:
    """Run every flow rule over ``engine``; sorted findings."""
    violations: List[LintViolation] = []
    for rule in flow_rules():
        violations.extend(rule.check(engine))
    return sorted(violations)
