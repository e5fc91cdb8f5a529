"""One process-pool fan-out for sweeps, campaigns, and shards.

:class:`WorkerPool` runs a module-level ``worker`` over a stream of
argument tuples and yields one :class:`Envelope` per unit — the
worker's result, its wall time, and the pid that ran it — in
submission order, whatever order the units finish in.

* ``workers == 1`` runs in-process and lazily: the next unit is drawn
  from ``units`` only after the caller has consumed the previous
  envelope.  A caller whose units are expensive to build (a shard's
  shared-memory segment) therefore holds one at a time, and
  in-process-only hooks (a sleep stub, a crash hook) may ride in the
  arguments.
* ``workers > 1`` keeps at most ``2 * workers`` units submitted to a
  default-context :class:`~concurrent.futures.ProcessPoolExecutor` and
  not yet yielded, so what a caller builds per unit (a shard's segment)
  is bounded by the pool's width.  A worker exception re-raises in the
  caller, and leaving the ``with`` block cancels the units that have
  not started and joins the pool.

The envelope is the only timing channel: workers return outcome data,
and callers turn envelopes into telemetry (histograms, heartbeat
worker-beat records) in the parent, in unit order.
"""

from __future__ import annotations

import collections
import dataclasses
import os
from concurrent.futures import Future, ProcessPoolExecutor
from typing import (
    Any,
    Callable,
    Deque,
    Generic,
    Iterable,
    Iterator,
    Optional,
    Tuple,
    TypeVar,
)

from repro.obs.clock import perf_seconds
from repro.utils.validation import check_positive

T = TypeVar("T")


@dataclasses.dataclass(frozen=True)
class Envelope(Generic[T]):
    """One unit's result plus where and how long it ran."""

    result: T
    elapsed_seconds: float
    worker_pid: int


def _timed(worker: Callable[..., T], unit: Tuple[Any, ...]) -> Envelope[T]:
    start = perf_seconds()
    result = worker(*unit)
    return Envelope(result, perf_seconds() - start, os.getpid())


class WorkerPool:
    """``with WorkerPool(workers) as pool: pool.run(worker, units)``."""

    def __init__(self, workers: int) -> None:
        check_positive("workers", workers)
        self.workers = workers
        self._executor: Optional[ProcessPoolExecutor] = None

    def __enter__(self) -> "WorkerPool":
        if self.workers > 1:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if self._executor is not None:
            self._executor.shutdown(
                wait=True, cancel_futures=exc_type is not None
            )
            self._executor = None

    def run(
        self,
        worker: Callable[..., T],
        units: Iterable[Tuple[Any, ...]],
    ) -> Iterator[Envelope[T]]:
        """Yield ``worker(*unit)``'s envelope per unit, in unit order."""
        if self.workers > 1 and self._executor is None:
            raise RuntimeError("WorkerPool.run called outside its with-block")
        if self._executor is None:
            for unit in units:
                yield _timed(worker, unit)
            return
        in_flight: Deque[Future[Envelope[T]]] = collections.deque()
        for unit in units:
            in_flight.append(self._executor.submit(_timed, worker, unit))
            if len(in_flight) == 2 * self.workers:
                # Popped, so each result dies once the caller drops its
                # envelope.
                yield in_flight.popleft().result()
        while in_flight:
            yield in_flight.popleft().result()
