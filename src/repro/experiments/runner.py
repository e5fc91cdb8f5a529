"""Sweep execution: repetitions, metric collection, aggregation.

:func:`run_point` measures every configured mechanism on one workload
setting over seeded repetitions; :func:`run_sweep` does that for every
value of the swept parameter.  Each repetition draws one round's
validated :class:`~repro.model.columnar.RoundColumns` and every
mechanism runs on those same columns (same seeds → same instances), so
mechanism comparisons are paired, not independent.  The round function
is :meth:`SimulationEngine.run_columns
<repro.simulation.engine.SimulationEngine.run_columns>`, the one shard
workers run: no ``Scenario`` and no profile list is built.

Graceful degradation
--------------------
A repetition that raises can be retried (``retries`` attempts with
exponential backoff); a repetition that keeps failing is dropped from
*every* mechanism (pairing is preserved) and the point is marked
``"partial"`` instead of aborting the sweep.  Passing a
:class:`~repro.experiments.checkpoint.CheckpointStore` to
:func:`run_sweep` appends each completed point to the sweep's record
log and resumes past completed points after a kill — a resumed sweep
aggregates byte-identically to an uninterrupted one.

Parallel execution
------------------
Each repetition (:func:`run_repetition`) is one unit of a
:class:`~repro.utils.pool.WorkerPool`: in-process with ``workers=1``,
on a process pool otherwise.  Every mechanism runs on the same columns
inside one unit, and units come back in seed order, so a parallel point
stays paired and aggregates byte-identically to a serial one.
"""

from __future__ import annotations

import dataclasses
import time
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro import obs
from repro.errors import ExperimentError
from repro.experiments.config import (
    ExperimentConfig,
    MechanismSpec,
    apply_workload_override,
)
from repro.experiments.sweeps import SweepSpec
from repro.metrics.summary import Summary, summarize
from repro.obs.live import Heartbeat, HeartbeatConfig, append_worker_beats
from repro.simulation.engine import SimulationEngine, SimulationResult
from repro.simulation.workload import WorkloadConfig
from repro.utils.pool import WorkerPool
from repro.utils.retry import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from repro.experiments.checkpoint import CheckpointStore

#: ``on_failure`` policies for repetitions that exhaust their retries.
ON_FAILURE_RAISE = "raise"      # propagate the exception (default)
ON_FAILURE_PARTIAL = "partial"  # drop the repetition, mark the point
_ON_FAILURE = (ON_FAILURE_RAISE, ON_FAILURE_PARTIAL)


@dataclasses.dataclass(frozen=True)
class MechanismMetrics:
    """Aggregated metrics of one mechanism at one sweep point.

    ``overpayment_ratio`` is ``None`` when no repetition produced a
    defined ratio (nothing allocated anywhere).
    """

    label: str
    welfare: Summary
    overpayment_ratio: Optional[Summary]
    total_payment: Summary
    tasks_served: Summary


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """All mechanisms' metrics at one swept parameter value.

    ``status`` is ``"complete"`` when every repetition succeeded,
    ``"partial"`` when some repetitions were dropped after exhausting
    their retries, and ``"failed"`` when none succeeded (``metrics`` is
    then empty).  ``completed_repetitions`` is ``None`` for points built
    by callers that do not track repetition accounting.
    """

    param: str
    value: Any
    metrics: Tuple[MechanismMetrics, ...]
    status: str = "complete"
    completed_repetitions: Optional[int] = None
    failed_repetitions: int = 0

    def of(self, label: str) -> MechanismMetrics:
        """Metrics of the mechanism with ``label``."""
        for metric in self.metrics:
            if metric.label == label:
                return metric
        known = [m.label for m in self.metrics]
        raise ExperimentError(
            f"no mechanism labelled {label!r} at this point; known: {known}"
        )


@dataclasses.dataclass(frozen=True)
class SweepResult:
    """A completed sweep: one :class:`SweepPoint` per parameter value."""

    name: str
    param: str
    points: Tuple[SweepPoint, ...]
    config: ExperimentConfig

    @property
    def values(self) -> Tuple[Any, ...]:
        """The swept parameter values, in order."""
        return tuple(point.value for point in self.points)

    def series(
        self, label: str, metric: str = "welfare"
    ) -> List[Tuple[Any, float]]:
        """``(value, mean)`` pairs for one mechanism and metric.

        ``metric`` is one of ``welfare``, ``overpayment_ratio``,
        ``total_payment``, ``tasks_served``.  Points where the metric is
        undefined are skipped.
        """
        pairs: List[Tuple[Any, float]] = []
        for point in self.points:
            if point.status == "failed":
                continue  # no repetition survived; nothing to plot
            summary = getattr(point.of(label), metric)
            if summary is None:
                continue
            pairs.append((point.value, summary.mean))
        return pairs


@dataclasses.dataclass(frozen=True)
class RepetitionResult:
    """One seeded repetition's outcome, as returned by a worker.

    ``row`` holds one :class:`~repro.simulation.engine.SimulationResult`
    per mechanism (in the configured mechanism order), or ``None`` when
    the repetition exhausted its retries under ``on_failure="partial"``.
    """

    seed: int
    row: Optional[Tuple[SimulationResult, ...]]
    retried: int

    @property
    def failed(self) -> bool:
        """Whether the repetition was dropped."""
        return self.row is None


def run_repetition(
    workload: WorkloadConfig,
    mechanisms: Tuple[MechanismSpec, ...],
    seed: int,
    retries: int,
    backoff: float,
    on_failure: str,
    sleep: Optional[Callable[[float], None]] = None,
) -> RepetitionResult:
    """Execute one seeded repetition across every mechanism.

    The :class:`~repro.utils.pool.WorkerPool` unit of a sweep point, so
    it is a top-level function of picklable arguments (frozen
    dataclasses all the way down).  A repetition that raises is retried
    here with ``backoff`` waits through ``sleep`` (default
    :func:`time.sleep`; a stub only works in-process).  One that
    exhausts its retries re-raises under ``on_failure="raise"`` and
    comes back with ``row=None`` under ``"partial"``.
    """
    built = [spec.build() for spec in mechanisms]
    wait = sleep if sleep is not None else time.sleep
    policy = RetryPolicy(retries=retries, backoff=backoff)
    retried = 0
    row: Optional[Tuple[SimulationResult, ...]] = None
    for attempt in range(retries + 1):
        try:
            columns = workload.generate_columns(seed)
            row = tuple(
                SimulationEngine.run_columns(mechanism, columns)
                for mechanism in built
            )
            break
        except Exception:
            if attempt >= retries:
                if on_failure == ON_FAILURE_RAISE:
                    raise
                row = None
            else:
                retried += 1
                delay = policy.delay_for(attempt)
                if delay > 0:
                    wait(delay)
    return RepetitionResult(seed=seed, row=row, retried=retried)


def run_point(
    config: ExperimentConfig,
    workload: Optional[WorkloadConfig] = None,
    param: str = "",
    value: Any = None,
    retries: int = 0,
    backoff: float = 0.0,
    sleep: Optional[Callable[[float], None]] = None,
    on_failure: str = ON_FAILURE_RAISE,
    workers: int = 1,
    heartbeat: Optional[HeartbeatConfig] = None,
) -> SweepPoint:
    """Measure every configured mechanism on one workload setting.

    Parameters
    ----------
    config / workload / param / value:
        As before: the mechanisms, the effective workload, and the swept
        coordinate this point sits at.
    retries:
        Extra attempts for a repetition whose execution raises.
    backoff:
        Base delay (seconds) between attempts; attempt ``k`` waits
        ``backoff * 2**(k-1)``.  Zero disables waiting.
    sleep:
        Injection point for the backoff wait (tests pass a stub;
        default: :func:`time.sleep`).  Requires ``workers=1`` — a stub
        cannot cross a process boundary.
    on_failure:
        ``"raise"`` propagates a repetition's final failure;
        ``"partial"`` drops the repetition from every mechanism (the
        comparison stays paired) and records it in
        ``failed_repetitions``.
    workers:
        Size of the :class:`~repro.utils.pool.WorkerPool` the
        repetitions (:func:`run_repetition`) run on.  ``1`` (the
        default) runs them in-process; ``> 1`` fans them out over a
        process pool.  Either way results are collected in seed order,
        so pairing and aggregation are byte-identical across worker
        counts.
    heartbeat:
        Optional :class:`~repro.obs.live.HeartbeatConfig`; pulses once
        per ``every`` completed repetitions (file and/or console), then
        appends one worker-beat record per repetition to the file.
        Heartbeats never influence seeds, pairing, or aggregation.
    """
    if on_failure not in _ON_FAILURE:
        raise ExperimentError(
            f"on_failure must be one of {_ON_FAILURE}, got {on_failure!r}"
        )
    if retries < 0:
        raise ExperimentError(f"retries must be >= 0, got {retries}")
    if workers < 1:
        raise ExperimentError(f"workers must be >= 1, got {workers}")
    if workers > 1 and sleep is not None:
        raise ExperimentError(
            "a sleep stub cannot cross process boundaries; "
            "use workers=1 with injected sleep"
        )
    effective = workload if workload is not None else config.workload
    seeds = config.seeds()
    pulse = (
        Heartbeat(
            dataclasses.replace(heartbeat, label="repetition"),
            total=len(seeds),
        )
        if heartbeat is not None
        else None
    )
    units = (
        (effective, config.mechanisms, seed, retries, backoff, on_failure, sleep)
        for seed in seeds
    )

    rows: List[Sequence[SimulationResult]] = []
    completed = 0
    failed = 0
    retried = 0
    worker_seconds: Dict[int, float] = {}
    beats: List[Dict[str, Any]] = []
    with obs.span(
        "sweep.point", param=param, value=value, workers=workers
    ) as tel, WorkerPool(workers) as pool:
        for unit_index, envelope in enumerate(
            pool.run(run_repetition, units)
        ):
            repetition = envelope.result
            retried += repetition.retried
            if repetition.retried:
                obs.counter("sweep.retries", repetition.retried)
            obs.observe("sweep.worker.seconds", envelope.elapsed_seconds)
            worker_seconds[envelope.worker_pid] = (
                worker_seconds.get(envelope.worker_pid, 0.0)
                + envelope.elapsed_seconds
            )
            beats.append(
                {
                    "unit_index": unit_index,
                    "elapsed_seconds": envelope.elapsed_seconds,
                    "worker_pid": envelope.worker_pid,
                    "seed": repetition.seed,
                    "retried": repetition.retried,
                }
            )
            if pulse is not None:
                pulse.beat(unit_index, seed=repetition.seed)
            if repetition.row is None:
                failed += 1
                continue
            completed += 1
            rows.append(repetition.row)
        if heartbeat is not None and heartbeat.path is not None:
            append_worker_beats(heartbeat.path, "repetition", beats)
        tel.set_attribute(
            "worker_seconds",
            {
                pid: round(seconds, 6)
                for pid, seconds in sorted(worker_seconds.items())
            },
        )
        tel.set_attribute("completed", completed)
        tel.set_attribute("failed", failed)
        tel.set_attribute("retried", retried)

    if completed == 0:
        return SweepPoint(
            param=param,
            value=value,
            metrics=(),
            status="failed",
            completed_repetitions=0,
            failed_repetitions=failed,
        )

    metrics: List[MechanismMetrics] = []
    for index, spec in enumerate(config.mechanisms):
        results = [row[index] for row in rows]
        ratios = [r.overpayment_ratio for r in results]
        defined_ratios = [r for r in ratios if r is not None]
        metrics.append(
            MechanismMetrics(
                label=spec.display_label,
                welfare=summarize([r.true_welfare for r in results]),
                overpayment_ratio=(
                    summarize(defined_ratios) if defined_ratios else None
                ),
                total_payment=summarize(
                    [r.total_payment for r in results]
                ),
                tasks_served=summarize(
                    [float(r.tasks_served) for r in results]
                ),
            )
        )
    return SweepPoint(
        param=param,
        value=value,
        metrics=tuple(metrics),
        status="complete" if failed == 0 else "partial",
        completed_repetitions=completed,
        failed_repetitions=failed,
    )


def run_sweep(
    spec: SweepSpec,
    checkpoint: Optional["CheckpointStore"] = None,
    retries: int = 0,
    backoff: float = 0.0,
    sleep: Optional[Callable[[float], None]] = None,
    on_failure: Optional[str] = None,
    workers: int = 1,
    heartbeat: Optional[HeartbeatConfig] = None,
) -> SweepResult:
    """Execute a parameter sweep, optionally checkpointed and resumable.

    With a ``checkpoint`` store, every completed point is appended to
    the sweep's record log and any point already in its valid prefix
    is loaded instead of recomputed, so a killed sweep resumes where it
    stopped and aggregates byte-identically to an uninterrupted run.

    ``on_failure`` defaults to ``"partial"`` when resilience was asked
    for (``retries > 0`` or a checkpoint store) and ``"raise"``
    otherwise, preserving the historical fail-fast behaviour.

    ``workers > 1`` fans each point's repetitions out over a process
    pool (one per computed point, see :func:`run_point`).  Seed
    pairing, aggregation order, point statuses, and checkpoint bytes
    are identical to a serial run; checkpointing composes with
    parallelism unchanged, because points are still completed and
    persisted one at a time.

    A ``heartbeat`` pulses per completed sweep *point* (on top of the
    per-repetition pulses :func:`run_point` emits with the same
    config), so a long sweep reports progress at both granularities.
    """
    if workers < 1:
        raise ExperimentError(f"workers must be >= 1, got {workers}")
    if on_failure is None:
        resilient = retries > 0 or checkpoint is not None
        on_failure = ON_FAILURE_PARTIAL if resilient else ON_FAILURE_RAISE
    points: List[SweepPoint] = []
    point_pulse = (
        Heartbeat(
            dataclasses.replace(heartbeat, label="point"),
            total=len(spec.values),
        )
        if heartbeat is not None
        else None
    )
    with obs.span(
        "sweep.run",
        sweep=spec.name,
        param=spec.param,
        values=len(spec.values),
        workers=workers,
    ) as tel:
        checkpoint_hits = 0
        for value_index, value in enumerate(spec.values):
            point: Optional[SweepPoint] = None
            if checkpoint is not None:
                with obs.span("sweep.checkpoint.load", value=value):
                    point = checkpoint.load_point(
                        spec.name, spec.param, value
                    )
                if point is not None:
                    checkpoint_hits += 1
                    obs.counter("sweep.checkpoint.hits")
            if point is None:
                workload = apply_workload_override(
                    spec.config.workload, spec.param, value
                )
                point = run_point(
                    spec.config,
                    workload=workload,
                    param=spec.param,
                    value=value,
                    retries=retries,
                    backoff=backoff,
                    sleep=sleep,
                    on_failure=on_failure,
                    workers=workers,
                    heartbeat=heartbeat,
                )
                if checkpoint is not None:
                    with obs.span("sweep.checkpoint.save", value=value):
                        checkpoint.save_point(spec.name, point)
            points.append(point)
            if point_pulse is not None:
                point_pulse.beat(value_index, value=value)
        tel.set_attribute("checkpoint_hits", checkpoint_hits)
    return SweepResult(
        name=spec.name,
        param=spec.param,
        points=tuple(points),
        config=spec.config,
    )
