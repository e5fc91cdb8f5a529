"""Telemetry for the auction stack: spans, metrics, export, summaries.

The package has two faces:

* **Instrumentation API** (what library code imports)::

      from repro import obs

      def hot_path(...):
          with obs.span("matching.solve", rows=n) as sp:
              ...
              sp.set_attribute("augmentations", count)
          obs.counter("greedy.candidate_evals", evaluated)

  With no tracer installed every helper is a near-zero-cost no-op, so
  instrumentation is always-on in the source without a perf budget
  conversation per call site.

* **Collection API** (what drivers, tests, and the CLI use)::

      tracer = Tracer(clock=ManualClock(tick=1.0), sink=JsonlSink(path))
      with obs.activate(tracer):
          run_whatever()
      print(render_hotspot_table(aggregate_hotspots(tracer.spans)))

See ``docs/ARCHITECTURE.md`` ("Observability") for the span taxonomy
and metric names.
"""

from repro.obs.clock import (
    Clock,
    ManualClock,
    MonotonicClock,
    WallClock,
    perf_seconds,
    set_perf_clock,
    set_wall_clock,
    wall_seconds,
)
from repro.obs.console import Console
from repro.obs.context import (
    activate,
    counter,
    current_tracer,
    gauge,
    observe,
    record_event,
    span,
    tracing_enabled,
)
from repro.obs.ledger import (
    LEDGER_FILENAME,
    LEDGER_SCHEMA,
    LedgerError,
    LedgerSession,
    LedgerView,
    RunLedger,
    RunRecord,
    config_digest,
    current_git_sha,
    make_run_id,
)
from repro.obs.live import (
    HEARTBEAT_SCHEMA,
    Heartbeat,
    HeartbeatConfig,
    HeartbeatError,
    read_heartbeats,
)
from repro.obs.metrics import (
    MODE_BOUNDED,
    MODE_EXACT,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.report import (
    HotspotStats,
    aggregate_hotspots,
    render_hotspot_table,
    render_span_tree,
    span_self_times,
    top_hotspots,
)
from repro.obs.sinks import (
    InMemorySink,
    JsonlSink,
    NullSink,
    TeeSink,
    TraceSink,
    read_jsonl,
)
from repro.obs.spans import Span, Tracer

__all__ = [
    "HEARTBEAT_SCHEMA",
    "LEDGER_FILENAME",
    "LEDGER_SCHEMA",
    "MODE_BOUNDED",
    "MODE_EXACT",
    "Clock",
    "Console",
    "Counter",
    "Gauge",
    "Heartbeat",
    "HeartbeatConfig",
    "HeartbeatError",
    "Histogram",
    "HotspotStats",
    "InMemorySink",
    "JsonlSink",
    "LedgerError",
    "LedgerSession",
    "LedgerView",
    "ManualClock",
    "MetricsRegistry",
    "MonotonicClock",
    "NullSink",
    "RunLedger",
    "RunRecord",
    "Span",
    "TeeSink",
    "TraceSink",
    "Tracer",
    "WallClock",
    "activate",
    "aggregate_hotspots",
    "config_digest",
    "counter",
    "current_git_sha",
    "current_tracer",
    "gauge",
    "make_run_id",
    "observe",
    "perf_seconds",
    "read_heartbeats",
    "read_jsonl",
    "record_event",
    "render_hotspot_table",
    "render_span_tree",
    "set_perf_clock",
    "set_wall_clock",
    "span",
    "span_self_times",
    "top_hotspots",
    "tracing_enabled",
    "wall_seconds",
]
