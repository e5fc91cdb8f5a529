"""Sharded multi-city campaigns with shared-memory fan-out.

The sweep runner (:mod:`repro.experiments.runner`) and the independent
rounds of :func:`repro.auction.multi_round.run_campaign` hand the pool
one repetition or round per unit, and each unit generates its own
workload draw.  At city scale that is the bottleneck: generating and
pickling a 2·10⁴-phone round costs an order of magnitude more than
running the streaming mechanism over it.  This module fans campaigns
out at *shard* granularity instead, over the same
:class:`~repro.utils.pool.WorkerPool`:

* A campaign is a list of :class:`CityConfig` entries.  Each city's rounds
  are split into ``shards_per_city`` contiguous round ranges (single-city
  campaigns fall back to pure round-range sharding), producing one
  :class:`ShardPlan` per range.
* The parent vector-generates every round of a shard
  (``WorkloadConfig.generate_columns``), packs the columns into **one**
  ``multiprocessing.shared_memory`` segment per shard
  (:mod:`repro.model.columnar`), and submits the segment *name* plus a
  small picklable :class:`ShardTask` to the pool — no bid list ever
  crosses a pickle boundary on the way in.  With ``workers=1`` the pool
  runs in-process and encodes each shard only after the previous one
  was collected, so one segment is alive at a time; with more workers
  at most ``2 * workers`` are.
* Workers attach by name and run each round from its zero-copy columns
  through :meth:`SimulationEngine.run_columns
  <repro.simulation.engine.SimulationEngine.run_columns>`, the round
  function sweep repetitions share:
  :func:`~repro.model.columnar.unpack_rounds` validates every round's
  values once, with numpy, the online mechanism's allocation pass reads
  the columns, and the round metrics read real costs straight from them
  (:class:`~repro.metrics.welfare.RoundCosts`) — no profile list and no
  :class:`~repro.simulation.scenario.Scenario` is built.  Each worker
  streams one durable checkpoint record per round from a background
  writer thread (:class:`ShardCheckpointWriter`) concurrently with
  compute — so a killed 10⁴-round campaign resumes mid-shard.
  Checkpoint files are
  :mod:`repro.utils.recordlog` logs: sealed lines, the shared torn-tail
  rule, and an fsync every
  :data:`~repro.utils.recordlog.FSYNC_EVERY` records and on close.
* Workers return each round as its own pickle blob.  The parent decodes
  every round from its own blob — whether it was computed in-process
  (``workers=1``), crossed the pool pipe, or was loaded from a shard
  checkpoint — so the assembled result's pickle bytes are identical
  across worker counts, shard submission orders, and resume points (the
  determinism contract ``check_parallel_determinism`` enforces).  A
  computed shard's rounds are decoded as soon as the pool returns the
  shard, overlapping the workers still computing, and its blobs are
  dropped; resumed rounds are decoded from their checkpoint blobs at
  assembly.  When a round is decoded cannot change the bytes: rounds
  decoded from separate streams share no object.
* Round result graphs are acyclic, so the cyclic garbage collector finds
  nothing in them, yet while a worker builds rounds and the parent
  unpickles them it would run a generation-0 pass every few hundred
  allocations and older-generation passes over everything alive.  So
  the worker's round loop runs with the collector paused
  (:func:`_cyclic_gc_paused`), and so does the parent from the first
  shard it submits until the campaign is assembled: re-enabled between
  shards, the collector would walk every shard decoded so far again.
  Refcounting still frees everything, and the collector's prior state
  is restored on every exit path.

Determinism
-----------
City ``i`` named ``name`` draws its seed as
``RngStreams(seed).child(i, name=f"city:{name}")`` (or uses an explicit
``CityConfig.seed``), and round ``k`` of a city uses
``RngStreams(city_seed).child(k)`` — the exact derivation of the serial
campaign loop.  A city's :class:`~repro.auction.multi_round.CampaignResult`
therefore matches ``run_campaign(mechanism, workload, num_rounds,
seed=city_seed)`` round for round, and shard boundaries are invisible in
the output.
"""

from __future__ import annotations

import base64
import contextlib
import dataclasses
import gc
import hashlib
import os
import pathlib
import pickle
import queue
import re
import secrets
import threading
import traceback
from multiprocessing import shared_memory
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro import obs
from repro.auction.multi_round import CampaignResult, aggregate_rounds
from repro.errors import CheckpointError, ShardingError
from repro.experiments.config import MechanismSpec
from repro.model.columnar import (
    RoundColumns,
    pack_rounds_into,
    packed_size,
    unpack_rounds,
)
from repro.obs.clock import perf_seconds
from repro.obs.live import Heartbeat, HeartbeatConfig, append_worker_beats
from repro.simulation.engine import SimulationEngine, SimulationResult
from repro.simulation.workload import WorkloadConfig
from repro.utils.pool import Envelope, WorkerPool
from repro.utils.recordlog import (
    RecordError,
    RecordWriter,
    canonical_json,
    cut_log,
    read_log,
    unseal,
)
from repro.utils.rng import RngStreams
from repro.utils.validation import check_positive, check_type

#: Schema tag on every shard checkpoint record.
SHARD_CHECKPOINT_SCHEMA = "repro-shard-checkpoint/1"

_CITY_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


# ----------------------------------------------------------------------
# Campaign description
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class CityConfig:
    """One city (region) of a sharded campaign.

    Attributes
    ----------
    name:
        Stable identifier (used in checkpoint filenames and reports).
    workload:
        The city's per-round workload draw.
    num_rounds:
        Rounds this city runs.
    seed:
        Explicit campaign seed for the city; when ``None`` the runner
        derives one from the campaign seed and the city's position/name.
    """

    name: str
    workload: WorkloadConfig
    num_rounds: int
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        check_type("name", self.name, str)
        if not _CITY_NAME.match(self.name):
            raise ShardingError(
                f"city name {self.name!r} must match "
                f"{_CITY_NAME.pattern} (it names checkpoint files)"
            )
        check_type("num_rounds", self.num_rounds, int)
        check_positive("num_rounds", self.num_rounds)


@dataclasses.dataclass(frozen=True)
class ShardPlan:
    """One planned shard: a contiguous round range of one city."""

    shard_id: int
    city_index: int
    city_name: str
    city_seed: int
    round_start: int
    round_stop: int  # exclusive

    @property
    def round_indices(self) -> Tuple[int, ...]:
        """The round indices this shard computes."""
        return tuple(range(self.round_start, self.round_stop))


@dataclasses.dataclass(frozen=True)
class ShardTask:
    """What crosses the pool boundary for one shard (small, picklable).

    The round payload stays in the named shared-memory segment; only the
    segment *name* and the codec header travel by pickle (the REP010
    worker-pickle-safety discipline — never ship a live handle).
    """

    shard_id: int
    city_name: str
    segment: str
    header: Dict[str, Any]
    round_indices: Tuple[int, ...]
    mechanism: MechanismSpec
    skip_rounds: Tuple[int, ...] = ()
    checkpoint_path: Optional[str] = None


@dataclasses.dataclass(frozen=True)
class ShardOutcome:
    """One shard's computed rounds, as returned by a worker.

    ``rounds`` holds ``(round_index, pickled SimulationResult)`` pairs —
    blobs, not objects, so the parent rebuilds every round from its own
    pickle stream regardless of which execution path produced it (see
    the module docstring's determinism note).  The parent decodes them
    as soon as it has collected the outcome, then drops the outcome.
    ``round_seconds`` is each computed round's wall time, for the
    parent's worker-beat records.
    """

    shard_id: int
    rounds: Tuple[Tuple[int, bytes], ...]
    round_seconds: Tuple[float, ...]
    checkpointed: int


@dataclasses.dataclass(frozen=True)
class ShardedCampaignResult:
    """Deterministic outcome of a sharded campaign.

    Holds only outcome data (per-city campaign results and their sums);
    operational facts — shard timings, resume counts, segment sizes —
    are emitted on ``campaign.shard.*`` telemetry instead, so the
    result's pickle bytes never depend on how the campaign was executed.
    """

    cities: Tuple[Tuple[str, CampaignResult], ...]
    total_welfare: float
    total_payment: float

    @property
    def num_rounds(self) -> int:
        """Total rounds across all cities."""
        return sum(result.num_rounds for _, result in self.cities)

    def city(self, name: str) -> CampaignResult:
        """The campaign result of one city."""
        for city_name, result in self.cities:
            if city_name == name:
                return result
        raise ShardingError(f"unknown city {name!r}")


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
def plan_shards(
    cities: Sequence[CityConfig],
    shards_per_city: int = 1,
    seed: int = 0,
) -> List[ShardPlan]:
    """Partition a campaign into shards (city × contiguous round range).

    Rounds are split as evenly as possible; the first
    ``num_rounds % shards`` ranges hold one extra round.  A city never
    gets more shards than rounds.  Shard ids number the plan in (city,
    round range) order and are stable across worker counts and
    submission orders.
    """
    check_type("shards_per_city", shards_per_city, int)
    check_positive("shards_per_city", shards_per_city)
    if not cities:
        raise ShardingError("cities must not be empty")
    names = [city.name for city in cities]
    if len(set(names)) != len(names):
        raise ShardingError(f"duplicate city names in campaign: {names}")
    campaign_streams = RngStreams(seed)
    plans: List[ShardPlan] = []
    for city_index, city in enumerate(cities):
        city_seed = (
            city.seed
            if city.seed is not None
            else campaign_streams.child(
                city_index, name=f"city:{city.name}"
            ).seed
        )
        shards = min(shards_per_city, city.num_rounds)
        base, extra = divmod(city.num_rounds, shards)
        start = 0
        for shard_index in range(shards):
            size = base + (1 if shard_index < extra else 0)
            plans.append(
                ShardPlan(
                    shard_id=len(plans),
                    city_index=city_index,
                    city_name=city.name,
                    city_seed=city_seed,
                    round_start=start,
                    round_stop=start + size,
                )
            )
            start += size
    return plans


# ----------------------------------------------------------------------
# Shared-memory segments
# ----------------------------------------------------------------------
def _create_segment(nbytes: int) -> shared_memory.SharedMemory:
    """Create an anonymous-named segment for one shard's rounds."""
    name = f"repro-shard-{os.getpid()}-{secrets.token_hex(6)}"
    return shared_memory.SharedMemory(
        name=name, create=True, size=max(1, nbytes)
    )


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to a shard segment by name (read-side, no ownership).

    On Python < 3.13 every attachment re-registers the name with the
    ``resource_tracker``; that is harmless here because the tracker keys
    by name (registration is idempotent) and pool workers are forked
    from the creating parent, so they share its tracker.  Ownership
    stays with the parent: its ``unlink`` in the runner's ``finally`` is
    the single unregistration, leaving the tracker cache empty — no
    "leaked shared_memory objects" warning at shutdown, which the
    lifecycle tests assert on a subprocess's stderr.
    """
    return shared_memory.SharedMemory(name=name)


def _release_segment(
    segment: shared_memory.SharedMemory, unlink: bool
) -> None:
    """Close (and optionally unlink) a segment, tolerating double frees."""
    try:
        segment.close()
    except (BufferError, OSError):  # pragma: no cover - defensive
        pass
    if unlink:
        try:
            segment.unlink()
        except FileNotFoundError:
            pass


# ----------------------------------------------------------------------
# Checkpoint streaming
# ----------------------------------------------------------------------
class ShardCheckpointWriter:
    """Append per-round checkpoint records concurrently with compute.

    The shard worker enqueues ``(round_index, blob)`` pairs; a background
    thread seals each as one JSONL record and appends it through a
    :class:`~repro.utils.recordlog.RecordWriter` (which also runs the
    optional ``crash_hook``).  :meth:`close` drains the queue, fsyncs
    the tail, and re-raises any error the writer thread hit — so a
    failed append (or an injected crash) surfaces on the shard, not
    silently.
    """

    _SENTINEL = object()

    def __init__(
        self,
        path: "os.PathLike[str]",
        crash_hook: Optional[Any] = None,
    ) -> None:
        self._log = RecordWriter(path, crash_hook=crash_hook)
        self._queue: "queue.Queue[Any]" = queue.Queue()
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="shard-checkpoint", daemon=True
        )
        self._thread.start()

    @property
    def appended(self) -> int:
        """Records appended so far (final once :meth:`close` returned)."""
        return self._log.appended

    def append(self, round_index: int, blob: bytes) -> None:
        """Enqueue one round's result for durable append."""
        if self._error is not None:
            raise self._error
        self._queue.put((round_index, blob))

    def close(self) -> None:
        """Drain, fsync the tail, join the thread; re-raise its error."""
        self._queue.put(self._SENTINEL)
        self._thread.join()
        error = self._error
        try:
            self._log.close()
        except OSError as exc:  # pragma: no cover - device failure
            error = error or exc
        if error is not None:
            raise error

    def abort(self) -> None:
        """Best-effort shutdown that never raises (error paths)."""
        try:
            self.close()
        except Exception:  # noqa: BLE001 - the caller is already failing
            pass

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is self._SENTINEL:
                break
            if self._error is not None:
                continue  # drain without writing after a failure
            try:
                if self._log.append(encode_checkpoint_record(*item)):
                    start = perf_seconds()
                    self._log.sync()
                    obs.observe(
                        "campaign.shard.fsync.seconds",
                        perf_seconds() - start,
                    )
            except BaseException as exc:  # noqa: BLE001 - ferried to caller
                self._error = exc


#: The canonical JSON of a record after its payload's characters.
_RECORD_TAIL = b'","round":%d,"schema":' + canonical_json(
    SHARD_CHECKPOINT_SCHEMA
).encode("ascii") + b"}"


def encode_checkpoint_record(round_index: int, blob: bytes) -> bytes:
    """One shard checkpoint record as a sealed JSONL line.

    The ``checksum`` field covers the canonical JSON of the rest of the
    record, so torn or corrupted lines are detected on load and treated
    as end-of-log.  The line is ``seal({"schema": ..., "round": ...,
    "payload": base64(blob)}, "checksum")`` byte for byte, but it is
    built from the bytes ``base64.b64encode`` returns: the base64
    alphabet needs no JSON escaping and is ASCII, so the payload (about
    1.3 MB for a city round) is neither escaped nor decoded to ``str``
    and encoded back.
    """
    payload = base64.b64encode(blob)
    tail = _RECORD_TAIL % round_index
    digest = hashlib.sha256(b'{"payload":"')
    digest.update(payload)
    digest.update(tail)
    return b"".join(
        (
            b'{"checksum":"',
            digest.hexdigest().encode("ascii"),
            b'","payload":"',
            payload,
            tail,
            b"\n",
        )
    )


def load_shard_checkpoint(
    path: "os.PathLike[str]",
) -> Dict[int, bytes]:
    """Load the valid prefix of a shard checkpoint; cut the rest.

    Returns ``round_index -> pickled SimulationResult`` for every intact
    record.  The first unparseable or checksum-failing line — or a final
    line missing its newline (a torn tail from a crash mid-append) —
    ends the valid prefix; the file is cut back to it so resumed
    appends continue a clean log, and the cut bytes go to
    ``<path>.corrupt``.  A later record for an already-seen round wins
    (duplicate appends from a crash between write and fsync are
    harmless).
    """
    scan = read_log(path, _decode_checkpoint_line)
    if scan.bad_offset is not None:
        cut_log(path, scan.bad_offset)
        obs.counter("campaign.shard.checkpoint.torn")
    return dict(record for _, record in scan.records)


def _decode_checkpoint_line(line: bytes) -> Tuple[int, bytes]:
    """Decode one checkpoint line; raises if torn, corrupt or foreign."""
    record = unseal(line, "checksum")
    if record.get("schema") != SHARD_CHECKPOINT_SCHEMA:
        raise RecordError(f"not a {SHARD_CHECKPOINT_SCHEMA} record")
    try:
        return int(record["round"]), base64.b64decode(
            record["payload"], validate=True
        )
    except (KeyError, TypeError) as exc:
        raise RecordError(f"malformed checkpoint record: {exc}") from exc


def shard_checkpoint_path(
    checkpoint_dir: "os.PathLike[str]", plan: ShardPlan
) -> pathlib.Path:
    """Where one shard streams its checkpoint records.

    Keyed by city and round range — the partition — so a resumed
    campaign with the same plan finds its shards, and a repartitioned
    campaign starts fresh rather than mixing logs.
    """
    return pathlib.Path(checkpoint_dir) / (
        f"{plan.city_name}-rounds-{plan.round_start:05d}-"
        f"{plan.round_stop:05d}.ckpt.jsonl"
    )


# ----------------------------------------------------------------------
# Shard execution (process-pool entry point)
# ----------------------------------------------------------------------
def _run_shard(
    task: ShardTask,
    crash_hook: Optional[Any] = None,
) -> ShardOutcome:
    """Execute one shard: attach, validate, run, stream checkpoints.

    Column views alias the shared segment, so every view dies before
    the segment is closed (the ``BufferError`` contract of
    :func:`repro.model.columnar.unpack_rounds`).
    """
    segment = _attach_segment(task.segment)
    writer: Optional[ShardCheckpointWriter] = None
    try:
        with _cyclic_gc_paused():
            rounds = unpack_rounds(segment.buf, task.header)
            mechanism = task.mechanism.build()
            if task.checkpoint_path is not None:
                writer = ShardCheckpointWriter(
                    task.checkpoint_path, crash_hook=crash_hook
                )
            skip = frozenset(task.skip_rounds)
            computed: List[Tuple[int, bytes]] = []
            round_seconds: List[float] = []
            # Popped in round order, so each round's columns, and the
            # values decoding caches on them, die once the round has run.
            rounds.reverse()
            for round_index in task.round_indices:
                if round_index in skip:
                    rounds.pop()
                    continue
                round_start = perf_seconds()
                blob = _run_shard_round(mechanism, rounds.pop())
                if writer is not None:
                    writer.append(round_index, blob)
                computed.append((round_index, blob))
                round_seconds.append(perf_seconds() - round_start)
            del rounds  # release the column views before closing the segment
        checkpointed = 0
        if writer is not None:
            writer.close()
            checkpointed = writer.appended
            writer = None
        return ShardOutcome(
            shard_id=task.shard_id,
            rounds=tuple(computed),
            round_seconds=tuple(round_seconds),
            checkpointed=checkpointed,
        )
    except BaseException as exc:
        # The propagating traceback keeps this frame and the failed
        # round's frames alive; drop their column views now so the
        # segment can close cleanly.
        rounds = None  # noqa: F841
        traceback.clear_frames(exc.__traceback__)
        if writer is not None:
            writer.abort()
        raise
    finally:
        _release_segment(segment, unlink=False)


def _run_shard_round(mechanism: Any, columns: RoundColumns) -> bytes:
    """One round from its columns; returns the pickled result.

    :meth:`SimulationEngine.run_columns
    <repro.simulation.engine.SimulationEngine.run_columns>` is the round
    function sweep repetitions share, so the blob pickles the same
    :class:`SimulationResult` the serial campaign builds for the seed.
    """
    result = SimulationEngine.run_columns(mechanism, columns)
    return pickle.dumps(result, protocol=4)


@contextlib.contextmanager
def _cyclic_gc_paused() -> Iterator[None]:
    """Pause the cyclic collector; restore its prior state on exit.

    Re-enables it only if it was enabled on entry, so a caller that
    disabled the collector itself still finds it disabled.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# ----------------------------------------------------------------------
# The sharded campaign runner
# ----------------------------------------------------------------------
def run_sharded_campaign(
    mechanism: MechanismSpec,
    cities: Sequence[CityConfig],
    seed: int = 0,
    workers: int = 1,
    shards_per_city: int = 1,
    checkpoint_dir: Optional["os.PathLike[str]"] = None,
    heartbeat: Optional[HeartbeatConfig] = None,
    submission_order: Optional[Sequence[int]] = None,
    checkpoint_crash_hook: Optional[Any] = None,
) -> ShardedCampaignResult:
    """Run a multi-city campaign sharded over a worker pool.

    Parameters
    ----------
    mechanism:
        The mechanism every city runs, as a picklable
        :class:`~repro.experiments.config.MechanismSpec` (each worker
        builds its own instance).
    cities:
        The campaign: one :class:`CityConfig` per city/region.  A
        single-city campaign with ``shards_per_city > 1`` degenerates to
        round-range sharding.
    seed:
        Campaign master seed; see the module docstring for the city /
        round derivation.
    workers:
        :class:`~repro.utils.pool.WorkerPool` size.  ``workers=1``
        executes shards in-process, one at a time, through the identical
        codec path (the serial reference the byte-identity contract is
        stated against).
    shards_per_city:
        Contiguous round ranges per city (clamped to the city's rounds).
    checkpoint_dir:
        When given, every shard streams per-round records into this
        directory concurrently with compute and a rerun resumes
        mid-shard, recomputing only missing rounds — byte-identically.
    heartbeat:
        Optional live progress: the parent pulses per collected shard,
        then appends one worker-beat record per computed round (tagged
        with its shard), ordered by ``(shard, round)``.
    submission_order:
        Permutation of shard ids fixing pool submission order (tests);
        default plan order.  Outcomes do not depend on it.
    checkpoint_crash_hook:
        Test-only fault hook with the journal's shape, handed to every
        shard's checkpoint writer (e.g. a
        :class:`~repro.faults.crash.CrashController` corrupting an
        append and raising :class:`~repro.faults.crash.SimulatedCrash`
        mid-shard).  Requires ``workers=1`` — hooks cannot cross the
        pool boundary.
    """
    if workers < 1:
        raise ShardingError(f"workers must be >= 1, got {workers}")
    if checkpoint_crash_hook is not None:
        if workers != 1:
            raise ShardingError(
                "checkpoint_crash_hook requires workers=1 (hooks cannot "
                "cross the process-pool boundary)"
            )
        if checkpoint_dir is None:
            raise ShardingError(
                "checkpoint_crash_hook requires checkpoint_dir"
            )
    plans = plan_shards(cities, shards_per_city=shards_per_city, seed=seed)
    order = _validated_order(submission_order, len(plans))
    cities_by_index = list(cities)

    pulse = (
        Heartbeat(heartbeat, total=len(plans))
        if heartbeat is not None
        else None
    )

    segments: Dict[int, shared_memory.SharedMemory] = {}
    resumed: Dict[int, Dict[int, bytes]] = {}
    computed: Dict[int, Dict[int, SimulationResult]] = {}
    beats: List[Dict[str, Any]] = []
    # A generator, so the pool encodes a shard's segment only as it
    # draws the unit: after the previous shard's release with workers=1.
    units = (
        (
            _prepare_shard(
                plans[shard_id],
                cities_by_index,
                mechanism,
                segments,
                resumed,
                checkpoint_dir,
            ),
            checkpoint_crash_hook,
        )
        for shard_id in order
    )
    # The parent's decoded rounds are acyclic (see the module docstring):
    # with the collector paused from here, no pass walks them until the
    # campaign is assembled.  Pool workers forked here inherit the pause.
    with _cyclic_gc_paused():
        with obs.span(
            "campaign.sharded",
            cities=len(cities_by_index),
            shards=len(plans),
            workers=workers,
        ):
            try:
                with WorkerPool(workers) as pool:
                    for envelope in pool.run(_run_shard, units):
                        outcome = envelope.result
                        _collect_shard(envelope, plans, segments, pulse)
                        beats.extend(
                            {
                                "unit_index": round_index,
                                "shard": outcome.shard_id,
                                "elapsed_seconds": seconds,
                                "worker_pid": envelope.worker_pid,
                            }
                            for (round_index, _), seconds in zip(
                                outcome.rounds, outcome.round_seconds
                            )
                        )
                        # Decoded now, while the pool computes later
                        # shards; the blobs die with the envelope.
                        computed[outcome.shard_id] = _decode_rounds(
                            outcome.rounds
                        )
                        del envelope, outcome
            finally:
                for segment in segments.values():
                    _release_segment(segment, unlink=True)
                segments.clear()
                if heartbeat is not None and heartbeat.path is not None:
                    append_worker_beats(heartbeat.path, "round", beats)

        return _assemble(cities_by_index, plans, computed, resumed)


def _validated_order(
    submission_order: Optional[Sequence[int]], num_shards: int
) -> List[int]:
    if submission_order is None:
        return list(range(num_shards))
    order = [int(index) for index in submission_order]
    if sorted(order) != list(range(num_shards)):
        raise ShardingError(
            f"submission_order must be a permutation of "
            f"range({num_shards}), got {submission_order!r}"
        )
    return order


def _prepare_shard(
    plan: ShardPlan,
    cities: Sequence[CityConfig],
    mechanism: MechanismSpec,
    segments: Dict[int, shared_memory.SharedMemory],
    resumed: Dict[int, Dict[int, bytes]],
    checkpoint_dir: Optional["os.PathLike[str]"],
) -> ShardTask:
    """Encode one shard's rounds into a fresh segment; build its task."""
    city = cities[plan.city_index]
    city_streams = RngStreams(plan.city_seed)
    rounds = [
        city.workload.generate_columns(city_streams.child(round_index).seed)
        for round_index in plan.round_indices
    ]
    nbytes = packed_size(rounds)
    segment = _create_segment(nbytes)
    segments[plan.shard_id] = segment
    header = pack_rounds_into(rounds, segment.buf)
    obs.counter("campaign.shard.segment_bytes", nbytes)

    checkpoint_path: Optional[str] = None
    skip: Tuple[int, ...] = ()
    if checkpoint_dir is not None:
        target = shard_checkpoint_path(checkpoint_dir, plan)
        done = load_shard_checkpoint(target)
        done = {
            index: blob
            for index, blob in done.items()
            if plan.round_start <= index < plan.round_stop
        }
        resumed[plan.shard_id] = done
        skip = tuple(sorted(done))
        checkpoint_path = str(target)
        if done:
            obs.counter("campaign.shard.resumed_rounds", len(done))
    return ShardTask(
        shard_id=plan.shard_id,
        city_name=plan.city_name,
        segment=segment.name,
        header=header,
        round_indices=plan.round_indices,
        mechanism=mechanism,
        skip_rounds=skip,
        checkpoint_path=checkpoint_path,
    )


def _collect_shard(
    envelope: Envelope[ShardOutcome],
    plans: Sequence[ShardPlan],
    segments: Dict[int, shared_memory.SharedMemory],
    pulse: Optional[Heartbeat],
) -> None:
    """Account one finished shard and release its segment eagerly."""
    outcome = envelope.result
    segment = segments.pop(outcome.shard_id, None)
    if segment is not None:
        _release_segment(segment, unlink=True)
    obs.counter("campaign.shard.completed")
    obs.counter("campaign.shard.rounds", len(outcome.rounds))
    if outcome.checkpointed:
        obs.counter(
            "campaign.shard.checkpoint.appends", outcome.checkpointed
        )
    obs.observe(
        "campaign.shard.worker.seconds", envelope.elapsed_seconds
    )
    if pulse is not None:
        plan = plans[outcome.shard_id]
        # Stable unit identity: the shard id, never the collection
        # position — completion order is a wall-clock fact.
        pulse.beat(
            outcome.shard_id,
            shard=outcome.shard_id,
            city=plan.city_name,
            rounds=len(outcome.rounds),
        )


def _decode_rounds(
    blobs: Iterable[Tuple[int, bytes]],
) -> Dict[int, SimulationResult]:
    """Unpickle each round from its own blob."""
    return {round_index: pickle.loads(blob) for round_index, blob in blobs}


def _assemble(
    cities: Sequence[CityConfig],
    plans: Sequence[ShardPlan],
    computed: Dict[int, Dict[int, SimulationResult]],
    resumed: Dict[int, Dict[int, bytes]],
) -> ShardedCampaignResult:
    """Fold decoded shard rounds (and resumed rounds) into city results.

    ``computed`` maps each collected shard to its decoded rounds;
    ``resumed`` holds the checkpoint blobs of the rounds each shard
    skipped, decoded here, each from its own blob.
    """
    rounds_by_city: Dict[int, Dict[int, SimulationResult]] = {
        index: {} for index in range(len(cities))
    }
    for plan in plans:
        rounds = computed.get(plan.shard_id)
        if rounds is None:
            raise ShardingError(
                f"shard {plan.shard_id} produced no outcome"
            )
        merged = _decode_rounds(resumed.get(plan.shard_id, {}).items())
        merged.update(rounds)
        missing = set(plan.round_indices) - set(merged)
        if missing:
            raise CheckpointError(
                f"shard {plan.shard_id} ({plan.city_name} rounds "
                f"{plan.round_start}..{plan.round_stop}) is missing "
                f"rounds {sorted(missing)}"
            )
        rounds_by_city[plan.city_index].update(merged)

    city_results: List[Tuple[str, CampaignResult]] = []
    for city_index, city in enumerate(cities):
        rounds = rounds_by_city[city_index]
        city_results.append(
            (
                city.name,
                aggregate_rounds([rounds[k] for k in range(city.num_rounds)]),
            )
        )
    return ShardedCampaignResult(
        cities=tuple(city_results),
        total_welfare=sum(
            result.total_welfare for _, result in city_results
        ),
        total_payment=sum(
            result.total_payment for _, result in city_results
        ),
    )
