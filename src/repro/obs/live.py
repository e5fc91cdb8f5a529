"""Live campaign telemetry: heartbeats for long-running drivers.

A 50-round journaled campaign or a city-scale sweep is silent for
minutes at a time; the only progress signal is the shell cursor.  A
:class:`Heartbeat` gives such drivers a cheap pulse: the driver calls
:meth:`Heartbeat.beat` once per completed unit (round, repetition,
sweep point), and every ``every``-th completion emits one structured
record — progress, units/second, ETA, and a snapshot of the watched
telemetry counters (journal fsync latency, reassignments, retries) —
to a JSONL file and/or the CLI console.

Two invariants shape the design:

* **Heartbeats are observers, not participants.**  Emission reads the
  ambient metrics registry and the perf clock but never touches RNG
  streams, outcomes, or platform state, so a run with heartbeats is
  bit-identical (outcome-wise) to one without — the
  ``check_trace_transparency`` contract extends to live telemetry.
* **Worker beats are written by the parent, in unit order.**  Pool
  workers never touch the heartbeat file: each unit's wall time and pid
  come back in its :class:`~repro.utils.pool.Envelope`, and after
  collection the parent appends one worker-beat record per unit with
  :func:`append_worker_beats`, ordered by ``(shard, unit_index)`` —
  stable unit identity, never pid or arrival time — so the record
  order is reproducible across worker counts and schedules even though
  the latency *values* inside the records are wall-clock facts.
  Sharded campaigns reuse round indices per shard, so the shard
  component keeps two shards' records from interleaving.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import obs
from repro.errors import ObservabilityError
from repro.obs.clock import perf_seconds
from repro.obs.console import Console
from repro.utils.recordlog import RecordWriter

#: Format marker carried on every heartbeat record.
HEARTBEAT_SCHEMA = "repro-heartbeat/1"

#: Counters snapshotted into each heartbeat (when a tracer is active
#: and the counter is nonzero).  Chosen for "is it stuck or working?"
#: value: journal durability traffic, platform churn, sweep resilience.
WATCHED_COUNTERS = (
    "campaign.shard.rounds",
    "journal.appends",
    "journal.rotations",
    "online.stream.events",
    "platform.reassignments",
    "sweep.retries",
    "sweep.checkpoint.hits",
)

#: Histogram whose summary rides along (journal fsync latency).
FSYNC_HISTOGRAM = "journal.fsync.seconds"


class HeartbeatError(ObservabilityError):
    """A heartbeat was configured or driven incorrectly."""


@dataclasses.dataclass(frozen=True)
class HeartbeatConfig:
    """Where and how often a :class:`Heartbeat` pulses.

    Attributes
    ----------
    path:
        JSONL file appended to on each emission (``None`` disables the
        file channel).
    every:
        Emit on every ``every``-th completed unit (>= 1).  The final
        unit always emits, so a finished run is never missing its last
        pulse.
    label:
        What a "unit" is, for readers (``"round"``, ``"repetition"``,
        ``"point"``).
    console:
        Optional CLI console; emissions go through
        :meth:`~repro.obs.console.Console.note`, so ``--quiet`` and
        ``--json`` silence them like any other progress chatter.
    """

    path: Optional[pathlib.Path] = None
    every: int = 10
    label: str = "round"
    console: Optional[Console] = None


def _append_jsonl(
    path: "os.PathLike[str]", records: Sequence[Dict[str, Any]]
) -> None:
    """Append ``records`` through one record-log writer, which first
    cuts a killed run's torn last line (into ``<path>.corrupt``)."""
    try:
        with RecordWriter(path) as log:
            for record in records:
                log.append(
                    (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
                )
    except OSError as exc:
        raise HeartbeatError(
            f"cannot append heartbeat to {path}: {exc}"
        ) from exc


def _metrics_snapshot() -> Dict[str, Any]:
    """Watched counters + fsync latency from the ambient tracer.

    Empty when no tracer is active — the heartbeat still reports
    progress, just without telemetry vitals.
    """
    tracer = obs.current_tracer()
    if tracer is None:
        return {}
    snapshot: Dict[str, Any] = {}
    counters = tracer.metrics.counters
    for name in WATCHED_COUNTERS:
        value = counters.get(name, 0.0)
        if value:
            snapshot[name] = value
    histogram = tracer.metrics.histograms.get(FSYNC_HISTOGRAM)
    if histogram is not None and histogram.count:
        snapshot[FSYNC_HISTOGRAM] = {
            "count": histogram.count,
            "mean": histogram.mean,
            "max": histogram.max,
        }
    return snapshot


class Heartbeat:
    """Periodic progress pulse over a run of ``total`` units.

    Drivers call :meth:`beat` after each completed unit; the heartbeat
    decides whether that completion emits.  With ``total=None`` the
    ETA is omitted but rate reporting still works.
    """

    def __init__(
        self, config: HeartbeatConfig, total: Optional[int] = None
    ) -> None:
        if config.every < 1:
            raise HeartbeatError(
                f"heartbeat interval must be >= 1 unit, got {config.every}"
            )
        if total is not None and total < 0:
            raise HeartbeatError(f"total units must be >= 0, got {total}")
        self._config = config
        self._total = total
        self._completed = 0
        self._seq = 0
        self._perf_start = perf_seconds()

    @property
    def emitted(self) -> int:
        """How many records this heartbeat has emitted."""
        return self._seq

    def beat(
        self, unit_index: int, **extra: Any
    ) -> Optional[Dict[str, Any]]:
        """Mark one unit complete; emit if it is this pulse's turn.

        ``unit_index`` is the unit's stable identity (round index,
        repetition seed position); ``extra`` rides along verbatim
        (e.g. ``welfare=...``).  Returns the emitted record, or
        ``None`` when this completion stayed silent.
        """
        self._completed += 1
        due = self._completed % self._config.every == 0
        final = self._total is not None and self._completed == self._total
        if not due and not final:
            return None
        record = self._build(unit_index, extra)
        if self._config.path is not None:
            _append_jsonl(self._config.path, [record])
        if self._config.console is not None:
            self._config.console.note(self._render(record))
        obs.counter("heartbeat.emits")
        return record

    def _build(
        self, unit_index: int, extra: Dict[str, Any]
    ) -> Dict[str, Any]:
        elapsed = perf_seconds() - self._perf_start
        rate = self._completed / elapsed if elapsed > 0 else 0.0
        eta: Optional[float] = None
        if self._total is not None and rate > 0:
            eta = (self._total - self._completed) / rate
        record: Dict[str, Any] = {
            "schema": HEARTBEAT_SCHEMA,
            "label": self._config.label,
            "seq": self._seq,
            "unit_index": unit_index,
            "completed": self._completed,
            "total": self._total,
            "elapsed_seconds": elapsed,
            "units_per_second": rate,
            "eta_seconds": eta,
            "metrics": _metrics_snapshot(),
        }
        for key, value in extra.items():
            record[key] = value
        self._seq += 1
        return record

    def _render(self, record: Dict[str, Any]) -> str:
        label = self._config.label
        total = record["total"]
        progress = (
            f"{record['completed']}/{total}"
            if total is not None
            else f"{record['completed']}"
        )
        parts = [
            f"[heartbeat] {label} {progress}",
            f"{record['units_per_second']:.2f} {label}s/s",
        ]
        if record["eta_seconds"] is not None:
            parts.append(f"eta {record['eta_seconds']:.1f}s")
        metrics = record["metrics"]
        fsync = metrics.get(FSYNC_HISTOGRAM)
        if fsync:
            parts.append(f"fsync mean {fsync['mean'] * 1e3:.2f}ms")
        reassigned = metrics.get("platform.reassignments")
        if reassigned:
            parts.append(f"reassigned {reassigned:.0f}")
        events = metrics.get("online.stream.events")
        elapsed = record["elapsed_seconds"]
        if events and elapsed > 0:
            # Cumulative streaming-engine events over the run's wall
            # clock: the "is the engine still chewing?" vital for
            # city-scale campaigns.
            parts.append(f"stream {events / elapsed:.0f} ev/s")
        return " | ".join(parts)


# ----------------------------------------------------------------------
# Worker beats (process-pool runners)
# ----------------------------------------------------------------------
def append_worker_beats(
    path: "os.PathLike[str]",
    label: str,
    beats: Iterable[Dict[str, Any]],
) -> None:
    """Append one record per completed pool unit, in unit order.

    Each beat carries ``unit_index``, ``elapsed_seconds`` and
    ``worker_pid`` (from the unit's
    :class:`~repro.utils.pool.Envelope`) plus any extra keys.  Records
    are ordered by ``(shard, unit_index)`` — stable unit identity, never
    pid or completion time — so the sequence is identical across worker
    counts and schedules; beats without a ``shard`` key sort as shard 0.
    """
    records = [
        {"schema": HEARTBEAT_SCHEMA, "label": label, "seq": 0, **beat}
        for beat in sorted(
            beats, key=lambda b: (int(b.get("shard", 0)), int(b["unit_index"]))
        )
    ]
    if records:
        _append_jsonl(path, records)


def read_heartbeats(
    path: "os.PathLike[str]",
) -> Tuple[Dict[str, Any], ...]:
    """Every heartbeat record in ``path``, in file order.

    Missing file → empty; unparseable or foreign-schema lines are
    skipped (heartbeats are lossy by charter).
    """
    try:
        text = pathlib.Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        return ()
    records: List[Dict[str, Any]] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            parsed = json.loads(line)
        except json.JSONDecodeError:
            continue
        if (
            isinstance(parsed, dict)
            and parsed.get("schema") == HEARTBEAT_SCHEMA
        ):
            records.append(parsed)
    return tuple(records)
