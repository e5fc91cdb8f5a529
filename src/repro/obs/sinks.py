"""Trace sinks: where finished spans and exported events go.

A sink receives two record kinds from the :class:`~repro.obs.Tracer`:

* **spans** — finished :class:`~repro.obs.spans.Span` objects,
* **events** — :class:`~repro.auction.events.AuctionEvent` instances
  exported from a platform run (serialised via their ``to_dict``).

Three sinks ship:

* :class:`NullSink` — drops everything; the default wherever telemetry
  is wired but nobody asked for a trace.
* :class:`InMemorySink` — collects records in lists; what tests
  consume.
* :class:`JsonlSink` — appends one JSON object per record to a file;
  the export format of ``repro-crowd trace`` (reload with
  :func:`read_jsonl`).

:class:`TeeSink` fans records out to several sinks (e.g. in-memory for
the summary tree *and* JSONL for the artifact).
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from repro.errors import ObservabilityError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from repro.obs.spans import Span


class TraceSink:
    """Base sink: ignores everything (also serves as the null object)."""

    def record_span(self, span: "Span") -> None:
        """Receive one finished span."""

    def record_event(self, event: Any) -> None:
        """Receive one exported platform event."""

    def close(self) -> None:
        """Flush and release resources (idempotent)."""


#: Alias making call sites read as intent, not inheritance accident.
NullSink = TraceSink


class InMemorySink(TraceSink):
    """Collects spans and events in memory, in arrival order."""

    def __init__(self) -> None:
        self._spans: List["Span"] = []
        self._events: List[Any] = []

    @property
    def spans(self) -> Tuple["Span", ...]:
        """Finished spans, in completion order."""
        return tuple(self._spans)

    @property
    def events(self) -> Tuple[Any, ...]:
        """Exported events, in emission order."""
        return tuple(self._events)

    def record_span(self, span: "Span") -> None:
        self._spans.append(span)

    def record_event(self, event: Any) -> None:
        self._events.append(event)


class JsonlSink(TraceSink):
    """Writes each record as one JSON line to ``path``.

    Span lines carry ``{"record": "span", ...span.to_dict()}``; event
    lines carry ``{"record": "event", "event": event.to_dict()}``.  The
    file is created (parents included) on construction and truncated —
    one sink is one trace.
    """

    def __init__(self, path: "os.PathLike[str]") -> None:
        self._path = pathlib.Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self._path.open("w", encoding="utf-8")
        self._closed = False

    @property
    def path(self) -> pathlib.Path:
        """Where this sink writes."""
        return self._path

    def _write(self, payload: Dict[str, Any]) -> None:
        if self._closed:
            raise ObservabilityError(
                f"trace sink {self._path} is closed; cannot record"
            )
        self._handle.write(json.dumps(payload, sort_keys=True) + "\n")

    def record_span(self, span: "Span") -> None:
        record = {"record": "span"}
        record.update(span.to_dict())
        self._write(record)

    def record_event(self, event: Any) -> None:
        self._write({"record": "event", "event": event.to_dict()})

    def close(self) -> None:
        if not self._closed:
            self._handle.close()
            self._closed = True

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class TeeSink(TraceSink):
    """Fans every record out to several child sinks, in order.

    A failing child never starves its siblings: every fan-out drives
    *all* children, collecting whatever they raise, and re-raises one
    :class:`~repro.errors.ObservabilityError` naming each failure.  A
    tee over (in-memory, JSONL) therefore keeps the in-memory summary
    intact even when the JSONL artifact hits a full disk — and
    ``close()`` releases every closable child no matter which one
    raised first.
    """

    def __init__(self, *sinks: TraceSink) -> None:
        self._sinks = tuple(sinks)

    def _fan_out(self, method: str, *args: Any) -> None:
        failures: List[str] = []
        for sink in self._sinks:
            try:
                getattr(sink, method)(*args)
            except Exception as exc:
                failures.append(
                    f"{type(sink).__name__}.{method}: "
                    f"{type(exc).__name__}: {exc}"
                )
        if failures:
            raise ObservabilityError(
                f"{len(failures)} of {len(self._sinks)} tee'd sink(s) "
                f"failed (every child was still driven): "
                + "; ".join(failures)
            )

    def record_span(self, span: "Span") -> None:
        self._fan_out("record_span", span)

    def record_event(self, event: Any) -> None:
        self._fan_out("record_event", event)

    def close(self) -> None:
        self._fan_out("close")


def read_jsonl(path: "os.PathLike[str]") -> List[Dict[str, Any]]:
    """Load every record of a :class:`JsonlSink` trace file.

    Returns the parsed JSON objects in file order; blank lines are
    skipped.  Raises :class:`~repro.errors.ObservabilityError` on a line
    that is not valid JSON (a truncated or corrupted trace).
    """
    records: List[Dict[str, Any]] = []
    text = pathlib.Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ObservabilityError(
                f"{path}:{lineno}: trace line is not valid JSON: {exc}"
            ) from exc
    return records
