"""Orchestration: build the graph, run the rules, apply suppressions.

:func:`run_flow` is the single entry point behind both
``repro-crowd lint --flow`` and ``python -m repro.analysis --flow``.
It builds the module graph (through a content-hash summary cache when
``cache_dir`` is given — CI restores the directory between runs, so an
unchanged module costs one hash instead of one AST walk), runs
REP010–REP015, honours per-line ``# repro: noqa-REP01x -- why``
comments exactly like the single-file engine, and finally splits the
findings against the committed baseline file.
"""

from __future__ import annotations

import dataclasses
import pathlib
import pickle
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.flow.baseline import (
    BaselineEntry,
    apply_baseline,
    load_baseline,
)
from repro.analysis.flow.engine import FlowEngine
from repro.analysis.flow.modules import ModuleGraph, build_module_graph
from repro.analysis.flow.rules import run_flow_rules
from repro.analysis.flow.summaries import (
    ModuleSummary,
    content_hash,
    summarize_module,
)
from repro.analysis.linter import display_path
from repro.analysis.rules.base import LintViolation, SourceFile

#: Bumped whenever the summary format changes, invalidating caches.
CACHE_VERSION = "flow-cache/3"  # /3: WorkerPool.run submit sites

#: Default scan root: the package sources (tests exercise the analyzer,
#: they are not its subject — fixture code would drown the signal).
DEFAULT_FLOW_ROOT = "src"


@dataclasses.dataclass(frozen=True)
class FlowReport:
    """Everything one flow pass produced."""

    violations: Tuple[LintViolation, ...]
    suppressed: Tuple[LintViolation, ...]
    unused_baseline: Tuple[BaselineEntry, ...]
    modules: int
    functions: int
    cache_hits: int

    @property
    def clean(self) -> bool:
        """Whether CI should pass: no finding outside the baseline."""
        return not self.violations


class _SummaryCache:
    """Content-hash keyed pickle cache of module summaries."""

    def __init__(self, directory: pathlib.Path) -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0

    def _key_path(self, source: str) -> pathlib.Path:
        digest = content_hash(CACHE_VERSION + "\n" + source)
        return self.directory / f"{digest}.pkl"

    def load(
        self, path: pathlib.Path, module: str, source: str
    ) -> ModuleSummary:
        cached = self._key_path(source)
        if cached.exists():
            try:
                summary = pickle.loads(cached.read_bytes())
                if (
                    isinstance(summary, ModuleSummary)
                    and summary.module == module
                ):
                    self.hits += 1
                    return summary
            except Exception:
                pass  # corrupt cache entry: fall through and rebuild
        summary = summarize_module(module, display_path(path), source)
        cached.write_bytes(pickle.dumps(summary, protocol=2))
        return summary


def _syntax_violations(graph: ModuleGraph) -> List[LintViolation]:
    return [
        LintViolation(
            path=failure.path,
            line=failure.line,
            col=0,
            code="REP000",
            rule="syntax-error",
            message=f"file does not parse: {failure.message}",
        )
        for failure in graph.failures
    ]


def _drop_noqa(
    violations: Sequence[LintViolation],
) -> List[LintViolation]:
    """Honour per-line ``# repro: noqa-...`` comments in flagged files."""
    kept: List[LintViolation] = []
    parsed: Dict[str, Optional[SourceFile]] = {}
    for violation in violations:
        if violation.path not in parsed:
            source_file: Optional[SourceFile] = None
            try:
                text = pathlib.Path(violation.path).read_text(
                    encoding="utf-8"
                )
                source_file = SourceFile.parse(text, path=violation.path)
            except (OSError, SyntaxError):
                source_file = None
            parsed[violation.path] = source_file
        source_file = parsed[violation.path]
        if source_file is not None and (
            source_file.is_suppressed(violation.line, violation.rule)
            or source_file.is_suppressed(
                violation.line, violation.code.lower()
            )
        ):
            continue
        kept.append(violation)
    return kept


def build_graph(
    root: pathlib.Path,
    cache_dir: Optional[pathlib.Path] = None,
) -> Tuple[ModuleGraph, int]:
    """Build (or cache-restore) the module graph under ``root``."""
    cache = _SummaryCache(cache_dir) if cache_dir is not None else None
    graph = build_module_graph(
        pathlib.Path(root),
        loader=cache.load if cache is not None else None,
    )
    return graph, (cache.hits if cache is not None else 0)


def run_flow(
    root: Optional[pathlib.Path] = None,
    baseline_path: Optional[pathlib.Path] = None,
    cache_dir: Optional[pathlib.Path] = None,
) -> FlowReport:
    """One full interprocedural pass; the ``lint --flow`` backend.

    Raises :class:`~repro.analysis.flow.baseline.BaselineError` for a
    baseline file that exists but cannot be trusted — a missing file is
    simply an empty baseline.
    """
    graph, cache_hits = build_graph(
        pathlib.Path(root or DEFAULT_FLOW_ROOT), cache_dir=cache_dir
    )
    engine = FlowEngine(graph)
    found = _syntax_violations(graph) + run_flow_rules(engine)
    found = _drop_noqa(sorted(found))

    entries: List[BaselineEntry] = []
    if baseline_path is not None and pathlib.Path(baseline_path).exists():
        entries = load_baseline(pathlib.Path(baseline_path))
    fresh, suppressed, unused = apply_baseline(found, entries)

    return FlowReport(
        violations=tuple(fresh),
        suppressed=tuple(suppressed),
        unused_baseline=tuple(unused),
        modules=len(graph.modules),
        functions=len(engine.functions),
        cache_hits=cache_hits,
    )
