"""Trace summaries: the span tree and where a trace's time is spent.

A parent span's inclusive duration carries every child's, so a plain
per-phase total always ranks ``campaign.run`` first and answers "what
contains the time", not "what consumes it".  This module computes
**self time** — each span's duration minus its direct children's —
aggregates it per phase next to the inclusive total, and renders the
one phase table ``repro-crowd trace`` and ``profile`` print.  A phase
high in that table is a genuine optimisation target, not a container.
:func:`render_span_tree` prints the spans themselves.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence

from repro.obs.spans import Span
from repro.utils.tables import format_table


@dataclasses.dataclass(frozen=True)
class HotspotStats:
    """Aggregated self-time of every span sharing one name.

    ``total_seconds`` is the familiar inclusive total;
    ``self_seconds`` excludes time attributed to direct children.
    ``share`` is this phase's fraction of the whole trace's self time
    (all shares sum to 1 over a well-nested trace).
    """

    name: str
    count: int
    total_seconds: float
    self_seconds: float
    share: float

    @property
    def mean_self_seconds(self) -> float:
        """Mean self time per span (0.0 when empty)."""
        return self.self_seconds / self.count if self.count else 0.0


def span_self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """``span_id -> self seconds`` over the finished spans.

    Self time is the span's duration minus its direct children's
    durations, clamped at zero (clock skew between a parent's close
    and a child's can otherwise push a tiny negative).
    """
    finished = [span for span in spans if span.finished]
    child_totals: Dict[int, float] = {}
    for span in finished:
        if span.parent_id is not None:
            child_totals[span.parent_id] = (
                child_totals.get(span.parent_id, 0.0) + span.duration
            )
    return {
        span.span_id: max(
            span.duration - child_totals.get(span.span_id, 0.0), 0.0
        )
        for span in finished
    }


def aggregate_hotspots(spans: Iterable[Span]) -> List[HotspotStats]:
    """Per-phase self-time stats, sorted hottest-first.

    Ordering is ``(-self_seconds, name)`` — deterministic for the
    manual-clock traces the tests drive.
    """
    finished = [span for span in spans if span.finished]
    self_times = span_self_times(finished)
    per_name_self: Dict[str, float] = {}
    per_name_total: Dict[str, float] = {}
    per_name_count: Dict[str, int] = {}
    for span in finished:
        per_name_self[span.name] = (
            per_name_self.get(span.name, 0.0) + self_times[span.span_id]
        )
        per_name_total[span.name] = (
            per_name_total.get(span.name, 0.0) + span.duration
        )
        per_name_count[span.name] = per_name_count.get(span.name, 0) + 1
    trace_self = sum(per_name_self.values())
    stats = [
        HotspotStats(
            name=name,
            count=per_name_count[name],
            total_seconds=per_name_total[name],
            self_seconds=per_name_self[name],
            share=(
                per_name_self[name] / trace_self if trace_self > 0 else 0.0
            ),
        )
        for name in per_name_self
    ]
    stats.sort(key=lambda hotspot: (-hotspot.self_seconds, hotspot.name))
    return stats


def top_hotspots(
    spans: Iterable[Span], top: int
) -> List[HotspotStats]:
    """The ``top`` hottest phases by self time (all of them if fewer)."""
    if top < 1:
        raise ValueError(f"top must be >= 1, got {top}")
    return aggregate_hotspots(spans)[:top]


def render_hotspot_table(
    hotspots: Sequence[HotspotStats],
    title: Optional[str] = None,
) -> str:
    """The hotspot ranking as a table (self time, share, inclusive)."""
    rows = [
        [
            hotspot.name,
            hotspot.count,
            f"{hotspot.self_seconds * 1e3:.3f}",
            f"{hotspot.share:.1%}",
            f"{hotspot.mean_self_seconds * 1e3:.3f}",
            f"{hotspot.total_seconds * 1e3:.3f}",
        ]
        for hotspot in hotspots
    ]
    return format_table(
        ["phase", "spans", "self ms", "share", "mean self ms", "incl ms"],
        rows,
        title=title if title is not None else "Hotspots (self time)",
    )


def render_span_tree(
    spans: Sequence[Span], max_spans: Optional[int] = None
) -> str:
    """An indented tree of a trace's spans with durations and attributes.

    Children print under their parent in start order.  ``max_spans``
    truncates large traces (a trailing line reports how many were
    elided).
    """
    finished = [span for span in spans if span.finished]
    by_parent: Dict[Optional[int], List[Span]] = {}
    for span in finished:
        by_parent.setdefault(span.parent_id, []).append(span)
    for children in by_parent.values():
        children.sort(key=lambda span: (span.start, span.span_id))

    lines: List[str] = []
    elided = 0

    def walk(parent_id: Optional[int], depth: int) -> None:
        nonlocal elided
        for span in by_parent.get(parent_id, []):
            if max_spans is not None and len(lines) >= max_spans:
                elided += 1 + _count_descendants(span)
                continue
            attrs = ", ".join(
                f"{key}={value}" for key, value in span.attributes.items()
            )
            suffix = f"  [{attrs}]" if attrs else ""
            lines.append(
                f"{'  ' * depth}{span.name}  "
                f"{span.duration * 1e3:.3f} ms{suffix}"
            )
            walk(span.span_id, depth + 1)

    def _count_descendants(span: Span) -> int:
        total = 0
        for child in by_parent.get(span.span_id, []):
            total += 1 + _count_descendants(child)
        return total

    walk(None, 0)
    if elided:
        lines.append(f"... ({elided} more span(s) elided)")
    return "\n".join(lines) if lines else "(no spans recorded)"
