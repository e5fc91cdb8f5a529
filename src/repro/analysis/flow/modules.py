"""Module-graph construction: discover, name, and summarise a package.

Walks a source root (``src`` by default), maps every ``*.py`` file to
its dotted module name, and builds one :class:`ModuleSummary` per file,
optionally through a content-hash cache (see :mod:`.driver`).  The
result — a :class:`ModuleGraph` — is the engine's whole world: symbol
lookup, import-edge resolution, and class hierarchy all read from it.
"""

from __future__ import annotations

import dataclasses
import pathlib
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.flow.summaries import ModuleSummary, summarize_module
from repro.analysis.linter import display_path, iter_python_files


@dataclasses.dataclass(frozen=True)
class SyntaxFailure:
    """A file the graph could not parse (reported as REP000)."""

    path: str
    line: int
    message: str


def module_name_for(path: pathlib.Path, root: pathlib.Path) -> Optional[str]:
    """Dotted module name of ``path`` relative to source ``root``.

    ``src/repro/matching/graph.py`` → ``repro.matching.graph``;
    package ``__init__.py`` files name the package itself.  Returns
    ``None`` for files outside ``root``.
    """
    try:
        relative = path.resolve().relative_to(root.resolve())
    except ValueError:
        return None
    parts = list(relative.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts) if parts else None


class ModuleGraph:
    """All module summaries of one source tree, keyed by dotted name."""

    def __init__(
        self,
        modules: Dict[str, ModuleSummary],
        failures: Tuple[SyntaxFailure, ...] = (),
    ) -> None:
        self.modules = modules
        self.failures = failures

    def __contains__(self, module: str) -> bool:
        return module in self.modules

    def get(self, module: str) -> Optional[ModuleSummary]:
        return self.modules.get(module)

    def split_symbol(self, dotted: str) -> Optional[Tuple[str, str]]:
        """Split ``repro.pkg.mod.symbol`` into ``(module, symbol)``.

        Uses longest-prefix module matching, so ``repro.obs`` (a package
        whose ``__init__`` re-exports symbols) resolves as a module with
        ``span`` as the symbol, not as a missing ``repro.obs.span``
        module.  Returns ``None`` when no prefix is a known module.
        """
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            module = ".".join(parts[:cut])
            if module in self.modules:
                symbol = ".".join(parts[cut:])
                return module, symbol
        return None


def build_module_graph(
    root: pathlib.Path,
    loader: Optional[
        Callable[[pathlib.Path, str, str], ModuleSummary]
    ] = None,
) -> ModuleGraph:
    """Summarise every module under ``root`` (a source directory).

    ``loader`` lets the driver interpose its content-hash cache: it
    receives ``(path, module, source)`` and returns the summary —
    defaulting to a plain :func:`summarize_module` call.
    """
    root = pathlib.Path(root)
    modules: Dict[str, ModuleSummary] = {}
    failures: List[SyntaxFailure] = []
    for path in iter_python_files([root]):
        module = module_name_for(path, root)
        if module is None:
            continue
        source = path.read_text(encoding="utf-8")
        shown = display_path(path)
        try:
            if loader is not None:
                summary = loader(path, module, source)
            else:
                summary = summarize_module(module, shown, source)
        except SyntaxError as error:
            failures.append(
                SyntaxFailure(
                    path=shown,
                    line=error.lineno or 1,
                    message=error.msg or "syntax error",
                )
            )
            continue
        modules[module] = summary
    return ModuleGraph(modules, failures=tuple(failures))
