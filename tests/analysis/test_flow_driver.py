"""The flow driver end-to-end: real tree, cache, noqa, baseline, REP000."""

from __future__ import annotations

import textwrap

from repro.analysis.flow import run_flow, write_baseline
from repro.analysis.flow.driver import build_graph


def write_tree(root, files):
    for name, source in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")


BAD_REDUCTION = """
    def total(values):
        acc = 0.0
        for value in set(values):
            acc += value
        return acc
    """

POOL_LAMBDA = """
    from repro.utils.pool import WorkerPool

    def fan_out(items):
        with WorkerPool(2) as pool:
            return [
                envelope.result
                for envelope in pool.run(lambda x: x + 1, [(i,) for i in items])
            ]
    """


class TestRealTree:
    def test_repo_is_flow_clean(self):
        """The acceptance gate: REP010–REP015 clean over src."""
        report = run_flow(baseline_path="lint-flow-baseline.json")
        assert report.violations == ()
        assert report.unused_baseline == ()
        assert report.modules > 50
        assert report.functions > 300

    def test_worker_entrypoints_discovered(self):
        from repro.analysis.flow.engine import FlowEngine

        graph, _ = build_graph("src")
        engine = FlowEngine(graph)
        entrypoints = set(engine.worker_entrypoints())
        # Every WorkerPool user's worker, seen through ``pool.run``.
        assert "repro.experiments.runner:run_repetition" in entrypoints
        assert "repro.auction.multi_round:_run_round" in entrypoints
        assert "repro.experiments.sharding:_run_shard" in entrypoints
        # The registry's memoised name check sits behind the fan-out.
        reachable = engine.worker_reachable()
        assert "repro.mechanisms.registry:create_mechanism" in reachable


class TestFixtureTree:
    def test_finding_reported_with_relative_context(self, tmp_path):
        write_tree(tmp_path, {"pkg/__init__.py": "", "pkg/m.py": BAD_REDUCTION})
        report = run_flow(root=tmp_path)
        assert [v.code for v in report.violations] == ["REP013"]
        assert report.violations[0].symbol == "pkg.m:total"

    def test_lambda_handed_to_worker_pool_flagged(self, tmp_path):
        write_tree(tmp_path, {"pkg/__init__.py": "", "pkg/m.py": POOL_LAMBDA})
        report = run_flow(root=tmp_path)
        assert [v.code for v in report.violations] == ["REP010"]
        assert report.violations[0].symbol == "pkg.m:fan_out"

    def test_noqa_comment_suppresses(self, tmp_path):
        source = BAD_REDUCTION.replace(
            "for value in set(values):",
            "for value in set(values):  # repro: noqa-REP013 -- fixture",
        )
        write_tree(tmp_path, {"pkg/m.py": source})
        report = run_flow(root=tmp_path)
        assert report.violations == ()

    def test_syntax_error_becomes_rep000(self, tmp_path):
        write_tree(tmp_path, {"pkg/m.py": "def broken(:\n"})
        report = run_flow(root=tmp_path)
        assert [v.code for v in report.violations] == ["REP000"]

    def test_baseline_absorbs_and_reports_unused(self, tmp_path):
        write_tree(tmp_path, {"pkg/m.py": BAD_REDUCTION})
        first = run_flow(root=tmp_path)
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, first.violations)
        second = run_flow(root=tmp_path, baseline_path=baseline)
        assert second.violations == ()
        assert len(second.suppressed) == 1
        # Fix the finding: the baseline entry goes stale and is flagged.
        write_tree(
            tmp_path,
            {"pkg/m.py": BAD_REDUCTION.replace("set(values)", "sorted(values)")},
        )
        third = run_flow(root=tmp_path, baseline_path=baseline)
        assert third.violations == ()
        assert len(third.unused_baseline) == 1


class TestSummaryCache:
    def test_second_build_hits_cache(self, tmp_path):
        write_tree(
            tmp_path / "tree", {"pkg/a.py": BAD_REDUCTION, "pkg/b.py": "X = 1\n"}
        )
        cache = tmp_path / "cache"
        _, hits_cold = build_graph(tmp_path / "tree", cache_dir=cache)
        assert hits_cold == 0
        graph, hits_warm = build_graph(tmp_path / "tree", cache_dir=cache)
        assert hits_warm == 2
        assert set(graph.modules) == {"pkg.a", "pkg.b"}

    def test_edit_invalidates_only_that_module(self, tmp_path):
        write_tree(
            tmp_path / "tree", {"pkg/a.py": BAD_REDUCTION, "pkg/b.py": "X = 1\n"}
        )
        cache = tmp_path / "cache"
        build_graph(tmp_path / "tree", cache_dir=cache)
        write_tree(tmp_path / "tree", {"pkg/b.py": "X = 2\n"})
        _, hits = build_graph(tmp_path / "tree", cache_dir=cache)
        assert hits == 1

    def test_cached_results_match_uncached(self, tmp_path):
        write_tree(tmp_path / "tree", {"pkg/a.py": BAD_REDUCTION})
        cache = tmp_path / "cache"
        cold = run_flow(root=tmp_path / "tree", cache_dir=cache)
        warm = run_flow(root=tmp_path / "tree", cache_dir=cache)
        plain = run_flow(root=tmp_path / "tree")
        assert cold.violations == warm.violations == plain.violations
