"""Per-layer self-time tracing from outside the program.

The benchmark never adds spans to ``src/repro``.  Instead, :class:`LayerTracer`
replaces each layer's public entry points (class methods, or module-level
names at the sites that call them) with thin wrappers that time the call,
and it subtracts time spent in nested wrapped calls, so each layer is charged
only its *self* time.  :meth:`LayerTracer.uninstall` removes every wrapper
again.

Only calls on the main thread are timed; calls from helper threads (the shard
checkpoint writer) pass straight through, so self times never overlap.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter


class LayerTracer:
    """Self time and call counts per layer name."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, float] = {}
        # One entry per open wrapped call: time spent in nested wrapped calls.
        self._child_time: List[float] = []
        self._main = threading.get_ident()
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def count(self, name: str, amount: float) -> None:
        """Add ``amount`` to a plain counter (bytes, winners, bids)."""
        self.counts[name] = self.counts.get(name, 0) + amount

    def timed(
        self,
        layer: str,
        func: Callable[..., Any],
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> Callable[..., Any]:
        """``func`` wrapped so its self time is charged to ``layer``."""
        self.self_s.setdefault(layer, 0.0)
        self.calls.setdefault(layer, 0)
        child_time = self._child_time
        main = self._main

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if threading.get_ident() != main:
                return func(*args, **kwargs)
            child_time.append(0.0)
            start = _clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                nested = child_time.pop()
                self.self_s[layer] += elapsed - nested
                self.calls[layer] += 1
                if child_time:
                    child_time[-1] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def patch(
        self,
        owner: Any,
        name: str,
        layer: str,
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Replace ``owner.name`` by a timed wrapper charged to ``layer``."""
        # A class's own ``__dict__`` entry keeps a staticmethod recognisable.
        original = (
            owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        )
        if isinstance(original, staticmethod):
            replacement: Any = staticmethod(
                self.timed(layer, original.__func__, on_result)
            )
        else:
            replacement = self.timed(layer, original, on_result)
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement)

    def replace(self, owner: Any, name: str, replacement: Any) -> None:
        """Swap ``owner.name`` for ``replacement`` until :meth:`uninstall`."""
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def attributed_s(self) -> float:
        """Sum of every layer's self time."""
        return sum(self.self_s.values())


class _TimedPickle:
    """Stands in for the ``pickle`` module inside the sharding layer."""

    def __init__(self, tracer: LayerTracer, real: Any) -> None:
        self._real = real

        def count_blob(blob: bytes) -> None:
            tracer.count("experiments.blob_bytes", len(blob))

        self.dumps = tracer.timed("experiments.pickle", real.dumps, count_blob)
        self.loads = tracer.timed("experiments.unpickle", real.loads)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._real, name)


def install(tracer: LayerTracer) -> None:
    """Wrap the public entry points of every ``repro`` layer."""
    import pickle

    from repro.auction import multi_round
    from repro.auction.platform import CrowdsourcingPlatform
    from repro.durability.journal import Journal
    from repro.durability.journaled import JournaledPlatform
    from repro.experiments import runner, sharding
    from repro.experiments.checkpoint import CheckpointStore
    from repro.faults import recovery
    from repro.matching.graph import TaskAssignmentGraph
    from repro.mechanisms.offline_vcg import OfflineVCGMechanism
    from repro.mechanisms.online_greedy import OnlineGreedyMechanism
    from repro.model.columnar import RoundColumns
    from repro.simulation.engine import SimulationEngine
    from repro.simulation.workload import WorkloadConfig

    def count_offline_winners(outcome: Any) -> None:
        tracer.count("mechanisms.winners", len(outcome.payments))
        tracer.count("mechanisms.offline.winners", len(outcome.payments))

    def count_online_winners(outcome: Any) -> None:
        tracer.count("mechanisms.winners", len(outcome.payments))

    def count_segment(nbytes: int) -> None:
        tracer.count("model.segment_bytes", nbytes)

    # simulation
    tracer.patch(WorkloadConfig, "generate", "simulation.generate")
    tracer.patch(WorkloadConfig, "generate_columns", "simulation.generate")
    tracer.patch(SimulationEngine, "run", "simulation.engine")
    # model (the columnar codec, at its call sites in the sharding layer)
    tracer.patch(sharding, "packed_size", "model.pack", count_segment)
    tracer.patch(sharding, "pack_rounds_into", "model.pack")
    tracer.patch(sharding, "unpack_rounds", "model.unpack")
    for name in ("decode_bids", "decode_profiles", "decode_schedule"):
        tracer.patch(RoundColumns, name, "model.decode")
    # matching
    tracer.patch(TaskAssignmentGraph, "__init__", "matching.graph")
    tracer.patch(TaskAssignmentGraph, "solve", "matching.solve")
    tracer.patch(TaskAssignmentGraph, "welfare_without_phone", "matching.repair")
    # mechanisms
    tracer.patch(
        OfflineVCGMechanism, "run", "mechanisms.offline", count_offline_winners
    )
    tracer.patch(
        OnlineGreedyMechanism, "run", "mechanisms.online", count_online_winners
    )
    # metrics
    tracer.patch(SimulationEngine, "package", "metrics.package")
    # experiments
    tracer.patch(runner, "run_sweep", "experiments.sweep")
    tracer.patch(runner, "run_point", "experiments.point")
    tracer.patch(CheckpointStore, "save_point", "experiments.checkpoint")
    tracer.patch(sharding.ShardCheckpointWriter, "close", "experiments.checkpoint")
    tracer.patch(sharding, "run_sharded_campaign", "experiments.sharded")
    tracer.replace(sharding, "pickle", _TimedPickle(tracer, pickle))
    # auction
    tracer.patch(multi_round, "run_campaign", "auction.campaign")
    for name in (
        "submit_bid",
        "submit_tasks",
        "report_dropout",
        "report_task_failure",
        "close_slot",
        "advance_to",
        "finalize",
    ):
        tracer.patch(CrowdsourcingPlatform, name, "auction.platform")
        tracer.patch(JournaledPlatform, name, "durability.platform")
    # faults
    tracer.patch(recovery, "run_with_faults", "faults.recovery")
    # durability
    tracer.patch(Journal, "append", "durability.append")
    tracer.patch(Journal, "sync", "durability.fsync")
