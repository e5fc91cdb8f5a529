"""Trace summaries: self-time attribution, the top-N ranking, the span tree."""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs import (
    ManualClock,
    Tracer,
    aggregate_hotspots,
    render_hotspot_table,
    render_span_tree,
    span_self_times,
    top_hotspots,
)


def _nested_trace():
    """outer(6s) { child_a(2s), child_b(1s) }, leaf(3s) — manual clock.

    Built with explicit advances so every duration is exact:
    outer self = 6 - (2 + 1) = 3, leaves keep their full duration.
    """
    clock = ManualClock()
    tracer = Tracer(clock=clock)
    with obs.activate(tracer):
        with obs.span("outer"):
            clock.advance(1.0)
            with obs.span("child_a"):
                clock.advance(2.0)
            with obs.span("child_b"):
                clock.advance(1.0)
            clock.advance(2.0)
        with obs.span("leaf"):
            clock.advance(3.0)
    return tracer


class TestSelfTimes:
    def test_parent_excludes_direct_children(self):
        tracer = _nested_trace()
        self_times = span_self_times(tracer.spans)
        by_name = {
            span.name: self_times[span.span_id] for span in tracer.spans
        }
        assert by_name["outer"] == pytest.approx(3.0)
        assert by_name["child_a"] == pytest.approx(2.0)
        assert by_name["child_b"] == pytest.approx(1.0)
        assert by_name["leaf"] == pytest.approx(3.0)

    def test_self_time_never_negative(self):
        # A child reported longer than its parent (possible with mixed
        # clock reads) clamps to zero instead of going negative.
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        with obs.activate(tracer):
            with tracer.span("parent") as parent:
                with tracer.span("child"):
                    clock.advance(5.0)
        self_times = span_self_times(tracer.spans)
        assert self_times[parent.span_id] == 0.0

    def test_unfinished_spans_are_ignored(self):
        tracer = Tracer(clock=ManualClock())
        with obs.activate(tracer):
            with obs.span("done"):
                pass
        assert len(span_self_times(tracer.spans)) == len(tracer.spans)


class TestAggregation:
    def test_shares_sum_to_one(self):
        stats = aggregate_hotspots(_nested_trace().spans)
        assert sum(h.share for h in stats) == pytest.approx(1.0)

    def test_sorted_hottest_first_with_name_tiebreak(self):
        stats = aggregate_hotspots(_nested_trace().spans)
        # outer/leaf tie at 3.0s self; names break the tie.
        assert [h.name for h in stats] == [
            "leaf",
            "outer",
            "child_a",
            "child_b",
        ]

    def test_inclusive_total_kept_alongside_self(self):
        stats = {
            h.name: h for h in aggregate_hotspots(_nested_trace().spans)
        }
        assert stats["outer"].total_seconds == pytest.approx(6.0)
        assert stats["outer"].self_seconds == pytest.approx(3.0)

    def test_mean_self_divides_by_span_count(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        with obs.activate(tracer):
            for _ in range(2):
                with obs.span("repeat"):
                    clock.advance(2.0)
        stats = aggregate_hotspots(tracer.spans)[0]
        assert stats.count == 2
        assert stats.mean_self_seconds == pytest.approx(2.0)

    def test_empty_trace_aggregates_empty(self):
        assert aggregate_hotspots([]) == []


class TestTopN:
    def test_top_truncates(self):
        hotspots = top_hotspots(_nested_trace().spans, top=2)
        assert [h.name for h in hotspots] == ["leaf", "outer"]

    def test_top_larger_than_trace_returns_all(self):
        assert len(top_hotspots(_nested_trace().spans, top=99)) == 4

    def test_top_must_be_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            top_hotspots([], top=0)


class TestRendering:
    def test_table_has_self_and_share_columns(self):
        table = render_hotspot_table(
            top_hotspots(_nested_trace().spans, top=4)
        )
        assert "self ms" in table
        assert "share" in table
        assert "incl ms" in table
        assert "leaf" in table

    def test_title_override(self):
        table = render_hotspot_table([], title="Hotspots (top 3)")
        assert "Hotspots (top 3)" in table


def _solve_trace():
    """Deterministic trace: two 'solve' spans (1s, 3s) under one root."""
    tracer = Tracer(clock=ManualClock(tick=1.0))
    # Readings: root.start=0, s1.start=1, s1.end=2, s2.start=3,
    # (advance 2) s2.end=6, root.end=7.
    with tracer.span("round"):
        with tracer.span("solve", rows=2):
            pass
        with tracer.span("solve", rows=5) as span:
            tracer.clock.advance(2.0)
            span.set_attribute("pivots", 4)
    return tracer


class TestSpanTree:
    def test_span_tree_indents_children_and_shows_attributes(self):
        tree = render_span_tree(_solve_trace().spans)
        lines = tree.splitlines()
        assert lines[0].startswith("round")
        assert lines[1].startswith("  solve")
        assert "rows=5" in tree and "pivots=4" in tree

    def test_span_tree_truncates_and_reports_elisions(self):
        tree = render_span_tree(_solve_trace().spans, max_spans=1)
        assert tree.splitlines()[0].startswith("round")
        assert "2 more span(s) elided" in tree

    def test_empty_trace_renders_placeholder(self):
        assert render_span_tree([]) == "(no spans recorded)"
