"""Nested timing spans and the tracer that produces them.

A :class:`Span` is one timed region of work — a Hungarian solve, a
platform slot, a sweep point — with a name from the taxonomy documented
in ``docs/ARCHITECTURE.md``, free-form attributes, and start/end
readings from the tracer's injectable clock.  Spans nest: entering a
span while another is open makes it a child, so a traced run yields a
tree (rendered by :func:`repro.obs.report.render_span_tree`).

The tracer itself is *ambient*: instrumented library code never holds a
tracer reference.  It calls the module-level helpers in
:mod:`repro.obs` (``span`` / ``counter`` / ``observe`` / ...), which
look up the active tracer in a :mod:`contextvars` context variable and
fall back to shared no-op objects when none is installed.  This keeps
``Mechanism.run`` a pure function of its inputs — tracing changes no
signatures and no behaviour, a guarantee enforced by
:func:`repro.analysis.sanitizer.check_trace_transparency`.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ObservabilityError
from repro.obs.clock import Clock, MonotonicClock
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import InMemorySink, TraceSink


@dataclasses.dataclass
class Span:
    """One timed region of a traced run.

    Attributes
    ----------
    name:
        Dotted taxonomy name (e.g. ``"platform.slot"``).
    span_id / parent_id:
        Per-tracer sequential identity; ``parent_id`` is ``None`` for
        roots.
    depth:
        Nesting depth at entry (roots are 0).
    start / end:
        Clock readings; ``end`` is ``None`` while the span is open.
    attributes:
        Free-form JSON-friendly annotations set by instrumented code.
    """

    name: str
    span_id: int
    parent_id: Optional[int]
    depth: int
    start: float
    end: Optional[float] = None
    attributes: Dict[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def finished(self) -> bool:
        """Whether the span has ended."""
        return self.end is not None

    @property
    def duration(self) -> float:
        """Elapsed seconds (raises while the span is still open)."""
        if self.end is None:
            raise ObservabilityError(
                f"span {self.name!r} (id {self.span_id}) is still open; "
                f"it has no duration yet"
            )
        return self.end - self.start

    def set_attribute(self, key: str, value: Any) -> None:
        """Attach one annotation (JSON-friendly values only)."""
        self.attributes[key] = value

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly representation (one JSONL trace line)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "start": self.start,
            "end": self.end,
            "duration": self.duration if self.finished else None,
            "attributes": dict(self.attributes),
        }


class _SpanHandle:
    """Context manager guarding one span's open/close lifecycle."""

    __slots__ = ("_tracer", "_name", "_attributes", "_span")

    def __init__(
        self, tracer: "Tracer", name: str, attributes: Dict[str, Any]
    ) -> None:
        self._tracer = tracer
        self._name = name
        self._attributes = attributes
        self._span: Optional[Span] = None

    def __enter__(self) -> Span:
        self._span = self._tracer._open(self._name, self._attributes)
        return self._span

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        assert self._span is not None
        if exc_type is not None:
            self._span.attributes.setdefault("error", exc_type.__name__)
        self._tracer._close(self._span)
        return False


class Tracer:
    """Produces nested spans against an injectable clock.

    Parameters
    ----------
    clock:
        Time source (default: :class:`~repro.obs.clock.MonotonicClock`;
        tests inject :class:`~repro.obs.clock.ManualClock`).
    sink:
        Where finished spans and exported events are delivered
        (default: a fresh :class:`~repro.obs.sinks.InMemorySink`).
    metrics:
        The metrics registry instrumented code increments (default: a
        fresh :class:`~repro.obs.metrics.MetricsRegistry`).

    Finished spans are also retained on the tracer itself
    (:attr:`spans`), so summaries never depend on the sink choice.
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        sink: Optional[TraceSink] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.clock: Clock = clock if clock is not None else MonotonicClock()
        self.sink: TraceSink = sink if sink is not None else InMemorySink()
        self.metrics: MetricsRegistry = (
            metrics if metrics is not None else MetricsRegistry()
        )
        self._stack: List[Span] = []
        self._finished: List[Span] = []
        self._next_id = 0

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------
    def span(self, name: str, **attributes: Any) -> _SpanHandle:
        """A context manager timing one region::

            with tracer.span("matching.solve", rows=n) as sp:
                ...
                sp.set_attribute("augmentations", count)
        """
        return _SpanHandle(self, name, attributes)

    def _open(self, name: str, attributes: Dict[str, Any]) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            name=name,
            span_id=self._next_id,
            parent_id=None if parent is None else parent.span_id,
            depth=len(self._stack),
            start=self.clock.now(),
            attributes=attributes,
        )
        self._next_id += 1
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise ObservabilityError(
                f"span {span.name!r} (id {span.span_id}) closed out of "
                f"order; spans must finish innermost-first"
            )
        self._stack.pop()
        span.end = self.clock.now()
        self._finished.append(span)
        # Every phase gets a latency histogram for free: quantiles over
        # e.g. per-slot decision latency come from "platform.slot.seconds".
        self.metrics.observe(span.name + ".seconds", span.end - span.start)
        self.sink.record_span(span)

    # ------------------------------------------------------------------
    # Event export
    # ------------------------------------------------------------------
    def record_event(self, event: Any) -> None:
        """Export one platform event: count it and hand it to the sink."""
        self.metrics.increment(f"platform.events.{type(event).__name__}")
        self.sink.record_event(event)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def spans(self) -> Tuple[Span, ...]:
        """Finished spans, in completion order."""
        return tuple(self._finished)

    @property
    def open_depth(self) -> int:
        """How many spans are currently open."""
        return len(self._stack)

    def roots(self) -> Tuple[Span, ...]:
        """Finished root spans, in completion order."""
        return tuple(span for span in self._finished if span.parent_id is None)

    def children_of(self, span: Span) -> Tuple[Span, ...]:
        """Finished direct children of ``span``, in completion order."""
        return tuple(
            candidate
            for candidate in self._finished
            if candidate.parent_id == span.span_id
        )
