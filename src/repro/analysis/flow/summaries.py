"""Per-function dataflow summaries extracted from one module's AST.

The flow engine never re-walks raw ASTs across modules.  Each module is
parsed once into a :class:`ModuleSummary` of plain, picklable
dataclasses — the unit the CI cache stores — and every interprocedural
rule (REP010–REP015) operates on summaries alone.  A summary records,
per function:

* call sites, with enough shape (bare name / dotted / method-on-local)
  for the engine to resolve them against the module graph;
* writes to module-level state (``global`` rebinds and mutator-method
  calls or subscript stores on module-level mutables);
* ambient RNG constructions, ``time``/environment reads, telemetry
  calls nested in loops, and ``for``-loops that iterate a set while
  accumulating floats or filling a dict — the raw material of the six
  concurrency/determinism rules.

Local variable types are tracked just far enough to resolve method
calls: ``x = ClassName(...)`` assignments, parameter annotations, and
the element types of annotated ``Sequence``/``Tuple`` parameters when
iterated.
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import re
from typing import Dict, List, Optional, Tuple

from repro.analysis.rules.base import dotted_name

#: Methods that mutate their receiver in place.
MUTATOR_METHODS = frozenset(
    {
        "add",
        "append",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "update",
    }
)

#: Container constructors whose module-level bindings count as mutable.
_MUTABLE_CONSTRUCTORS = frozenset(
    {"list", "dict", "set", "defaultdict", "deque", "Counter", "OrderedDict"}
)

#: Fully-qualified callables that create or reseed an ambient RNG.
AMBIENT_RNG_CALLS = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.RandomState",
        "numpy.random.seed",
        "random.Random",
        "random.seed",
    }
)

#: Fully-qualified callables that read wall-clock time.
TIME_READ_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    }
)

#: Environment reads (calls and subscripts on ``os.environ``).
ENV_READ_CALLS = frozenset({"os.getenv", "os.environ.get"})

#: Constructors whose instances are live shared-memory handles.  A
#: handle pickled across a worker boundary ships a second owner; the
#: discipline is to pass ``segment.name`` and re-attach worker-side.
SHARED_MEMORY_CTORS = frozenset(
    {
        "multiprocessing.shared_memory.SharedMemory",
        "multiprocessing.shared_memory.ShareableList",
    }
)

#: The fan-out primitive: ``pool.run(worker, units)`` on one of these
#: is a worker-boundary crossing exactly like ``executor.submit``.
WORKER_POOL_CLASSES = frozenset({"repro.utils.pool.WorkerPool"})

#: Telemetry emitters of :mod:`repro.obs` (``repro.obs.<name>``).
TELEMETRY_EMITTERS = frozenset({"span", "counter", "observe", "gauge"})

#: Extracts the first element type of ``Sequence[X]`` / ``Tuple[X, ...]``.
_ELEMENT_RE = re.compile(
    r"^(?:typing\.)?(?:Sequence|Tuple|List|Iterable|Iterator|Set|FrozenSet)"
    r"\[\s*([A-Za-z_][A-Za-z0-9_.]*)"
)


@dataclasses.dataclass(frozen=True)
class CallSite:
    """One call expression, pre-resolution.

    ``kind`` is ``"name"`` (bare ``f(...)``), ``"dotted"``
    (``mod.attr(...)`` — ``name`` holds the full dotted path),
    ``"method"`` (``var.m(...)`` — ``name`` is the local variable,
    ``attr`` the method), or ``"ctor_method"``
    (``ClassName(...).m(...)`` — ``name`` is the class name).
    """

    line: int
    col: int
    kind: str
    name: str
    attr: str = ""


@dataclasses.dataclass(frozen=True)
class GlobalWrite:
    """A write to module-level state: ``kind`` is ``rebind`` | ``mutate``."""

    line: int
    col: int
    name: str
    kind: str


@dataclasses.dataclass(frozen=True)
class FlaggedSite:
    """A located fact with a short description (rng/time/telemetry/...)."""

    line: int
    col: int
    what: str


@dataclasses.dataclass(frozen=True)
class SubmitSite:
    """One ``executor.submit(f, ...)`` / ``pool.run(f, units)`` crossing.

    ``callable_kind`` is ``"name"`` (resolvable bare name),
    ``"lambda"``, ``"nested"`` (function defined inside the submitting
    function), or ``"opaque"`` (anything else).  ``bad_args`` lists
    positional arguments that are lambdas or locally-defined functions
    — values that cannot cross a process boundary.  ``handle_args``
    lists arguments that are live shared-memory handles (locals
    constructed via ``SharedMemory(...)``/``ShareableList(...)``):
    pickling the handle ships a second owner to the worker instead of
    attaching by name, so close/unlink accounting double-frees — pass
    ``segment.name`` and re-attach worker-side (which reads as an
    attribute access and stays clean).
    """

    line: int
    col: int
    callable_kind: str
    callable_name: str
    bad_args: Tuple[str, ...] = ()
    handle_args: Tuple[str, ...] = ()


@dataclasses.dataclass(frozen=True)
class FunctionSummary:
    """Everything the flow rules need to know about one function."""

    qualname: str
    line: int
    params: Tuple[Tuple[str, str], ...]  # (name, annotation or "")
    calls: Tuple[CallSite, ...]
    local_types: Tuple[Tuple[str, str], ...]  # var -> ClassName / @elem:var
    global_writes: Tuple[GlobalWrite, ...]
    rng_creations: Tuple[FlaggedSite, ...]
    time_reads: Tuple[FlaggedSite, ...]
    telemetry_in_loop: Tuple[FlaggedSite, ...]
    set_reductions: Tuple[FlaggedSite, ...]
    submits: Tuple[SubmitSite, ...]
    #: Names bound locally (assignment/loop/with targets) — a mutation of
    #: one of these is not a mutation of a same-named module global.
    assigned_locals: Tuple[str, ...] = ()

    def param_annotation(self, name: str) -> str:
        for param, annotation in self.params:
            if param == name:
                return annotation
        return ""

    def local_type(self, name: str) -> str:
        for var, type_name in self.local_types:
            if var == name:
                return type_name
        return ""


@dataclasses.dataclass(frozen=True)
class ClassSummary:
    """A class definition: resolved later against the module graph."""

    name: str
    line: int
    bases: Tuple[str, ...]  # raw dotted names as written
    methods: Tuple[str, ...]


@dataclasses.dataclass(frozen=True)
class ModuleSummary:
    """One module's picklable flow summary (the cache unit)."""

    module: str
    path: str
    content_hash: str
    imports: Tuple[Tuple[str, str], ...]  # local alias -> dotted target
    functions: Tuple[FunctionSummary, ...]
    classes: Tuple[ClassSummary, ...]
    mutable_globals: Tuple[Tuple[str, int], ...]  # name -> lineno

    def import_map(self) -> Dict[str, str]:
        return dict(self.imports)

    def function_map(self) -> Dict[str, FunctionSummary]:
        return {fn.qualname: fn for fn in self.functions}

    def class_map(self) -> Dict[str, ClassSummary]:
        return {cls.name: cls for cls in self.classes}


def content_hash(source: str) -> str:
    """Stable cache key of one module's source text."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def element_type(annotation: str) -> str:
    """``Sequence[MechanismSpec]`` → ``MechanismSpec``; ``""`` if opaque."""
    match = _ELEMENT_RE.match(annotation)
    return match.group(1) if match else ""


def _is_mutable_binding(value: ast.AST) -> bool:
    if isinstance(value, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(value, ast.ListComp) or isinstance(value, ast.SetComp):
        return True
    if isinstance(value, ast.DictComp):
        return True
    if isinstance(value, ast.Call):
        name = dotted_name(value.func)
        if name is not None:
            return name.split(".")[-1] in _MUTABLE_CONSTRUCTORS
    return False


def _is_set_expression(node: ast.AST, set_locals: Dict[str, bool]) -> bool:
    """Whether iterating ``node`` visits elements in set (hash) order."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name in {"set", "frozenset"}:
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in {
            "difference",
            "intersection",
            "symmetric_difference",
            "union",
        }:
            receiver = node.func.value
            if isinstance(receiver, ast.Name):
                return set_locals.get(receiver.id, False)
            return _is_set_expression(receiver, set_locals)
    if isinstance(node, ast.Name):
        return set_locals.get(node.id, False)
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expression(node.left, set_locals) or _is_set_expression(
            node.right, set_locals
        )
    return False


def _reduction_in_body(body: List[ast.stmt]) -> Optional[str]:
    """A float-accumulation / dict-fill statement inside a loop body."""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.AugAssign) and isinstance(
                node.op, (ast.Add, ast.Sub, ast.Mult)
            ):
                target = dotted_name(node.target)
                return f"accumulates into {target or 'a value'!s}"
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        base = dotted_name(target.value)
                        return f"fills mapping {base or 'subscript'!s}"
    return None


class _FunctionVisitor(ast.NodeVisitor):
    """Walks one function body, building its :class:`FunctionSummary`."""

    def __init__(
        self,
        qualname: str,
        node: ast.AST,
        import_map: Dict[str, str],
    ) -> None:
        self.qualname = qualname
        self.node = node
        self.imports = import_map
        self.calls: List[CallSite] = []
        self.local_types: Dict[str, str] = {}
        self.global_names: set = set()
        self.global_writes: List[GlobalWrite] = []
        self.rng_creations: List[FlaggedSite] = []
        self.time_reads: List[FlaggedSite] = []
        self.telemetry_in_loop: List[FlaggedSite] = []
        self.set_reductions: List[FlaggedSite] = []
        self.submits: List[SubmitSite] = []
        self.nested_defs: set = set()
        self.assigned_locals: set = set()
        self._loop_depth = 0
        self._set_locals: Dict[str, bool] = {}
        self.params: List[Tuple[str, str]] = []
        args = getattr(node, "args", None)
        if args is not None:
            every = list(args.posonlyargs) + list(args.args) + list(
                args.kwonlyargs
            )
            for arg in every:
                annotation = ""
                if arg.annotation is not None:
                    annotation = ast.unparse(arg.annotation)
                self.params.append((arg.arg, annotation))

    # -- helpers -------------------------------------------------------

    def _resolve_dotted(self, name: str) -> str:
        """Expand the leading alias of ``name`` through the import map."""
        head, _, rest = name.partition(".")
        target = self.imports.get(head)
        if target is None:
            return name
        return f"{target}.{rest}" if rest else target

    def _callable_kind(self, func: ast.AST) -> Tuple[str, str]:
        if isinstance(func, ast.Lambda):
            return "lambda", "<lambda>"
        if isinstance(func, ast.Name):
            if func.id in self.nested_defs:
                return "nested", func.id
            return "name", func.id
        dotted = dotted_name(func)
        if dotted is not None:
            return "dotted", dotted
        return "opaque", ast.unparse(func)[:40]

    def _record_call(self, node: ast.Call) -> None:
        func = node.func
        line, col = node.lineno, node.col_offset
        if isinstance(func, ast.Name):
            if func.id not in self.nested_defs:
                self.calls.append(CallSite(line, col, "name", func.id))
            resolved = self._resolve_dotted(func.id)
        elif isinstance(func, ast.Attribute):
            dotted = dotted_name(func)
            if dotted is not None:
                head, _, rest = dotted.partition(".")
                if head in {p for p, _ in self.params} or (
                    head in self.local_types
                ):
                    if "." not in rest and rest:
                        self.calls.append(
                            CallSite(line, col, "method", head, rest)
                        )
                elif head == "self" and rest and "." not in rest:
                    self.calls.append(CallSite(line, col, "method", "self", rest))
                else:
                    self.calls.append(CallSite(line, col, "dotted", dotted))
                resolved = self._resolve_dotted(dotted)
            else:
                resolved = ""
                if isinstance(func.value, ast.Call):
                    inner = dotted_name(func.value.func)
                    if inner is not None:
                        self.calls.append(
                            CallSite(line, col, "ctor_method", inner, func.attr)
                        )
        else:
            resolved = ""

        if resolved in AMBIENT_RNG_CALLS:
            self.rng_creations.append(FlaggedSite(line, col, resolved))
        if resolved in TIME_READ_CALLS:
            self.time_reads.append(FlaggedSite(line, col, resolved))
        if resolved in ENV_READ_CALLS:
            self.time_reads.append(FlaggedSite(line, col, resolved))
        if self._loop_depth > 0:
            parts = resolved.rsplit(".", 1)
            if (
                len(parts) == 2
                and parts[0] == "repro.obs"
                and parts[1] in TELEMETRY_EMITTERS
            ):
                self.telemetry_in_loop.append(
                    FlaggedSite(line, col, resolved)
                )

        if isinstance(func, ast.Attribute) and (
            func.attr == "submit"
            or (func.attr == "run" and self._is_worker_pool(func.value))
        ):
            self._record_submit(node)

    def _is_worker_pool(self, receiver: ast.AST) -> bool:
        """Whether ``receiver`` is a local or parameter typed WorkerPool."""
        if not isinstance(receiver, ast.Name):
            return False
        type_name = self.local_types.get(receiver.id, "") or dict(
            self.params
        ).get(receiver.id, "")
        return self._resolve_dotted(type_name) in WORKER_POOL_CLASSES

    def _record_submit(self, node: ast.Call) -> None:
        if not node.args:
            return
        kind, name = self._callable_kind(node.args[0])
        bad: List[str] = []
        handles: List[str] = []
        payload = list(node.args[1:]) + [kw.value for kw in node.keywords]
        for arg in payload:
            if isinstance(arg, ast.Lambda):
                bad.append("<lambda>")
            elif isinstance(arg, ast.Name):
                if arg.id in self.nested_defs:
                    bad.append(arg.id)
                elif self._is_shared_memory_local(arg.id):
                    # Passing `segment` ships the live handle; passing
                    # `segment.name` is an Attribute node and stays
                    # clean — exactly the by-name attach discipline.
                    handles.append(arg.id)
        self.submits.append(
            SubmitSite(
                node.lineno,
                node.col_offset,
                callable_kind=kind,
                callable_name=name,
                bad_args=tuple(bad),
                handle_args=tuple(handles),
            )
        )

    def _is_shared_memory_local(self, name: str) -> bool:
        ctor = self.local_types.get(name, "")
        if not ctor or ctor.startswith("@elem:"):
            return False
        return self._resolve_dotted(ctor) in SHARED_MEMORY_CTORS

    # -- statements ----------------------------------------------------

    def visit_Global(self, node: ast.Global) -> None:
        self.global_names.update(node.names)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if node is not self.node:
            self.nested_defs.add(node.name)
            return  # nested defs are summarised separately
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Lambda(self, node: ast.Lambda) -> None:
        return  # bodies of lambdas are opaque to the summary

    def visit_With(self, node: ast.With) -> None:
        # ``with ClassName(...) as var`` types ``var`` like an assignment
        # (how a WorkerPool is bound before its ``run`` calls).
        for item in node.items:
            target = item.optional_vars
            if isinstance(target, ast.Name) and isinstance(
                item.context_expr, ast.Call
            ):
                callee = dotted_name(item.context_expr.func)
                if (
                    callee is not None
                    and callee.rsplit(".", 1)[-1][:1].isupper()
                ):
                    self.local_types.setdefault(target.id, callee)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Name):
                if target.id not in self.global_names:
                    self.assigned_locals.add(target.id)
                if target.id in self.global_names:
                    self.global_writes.append(
                        GlobalWrite(
                            node.lineno, node.col_offset, target.id, "rebind"
                        )
                    )
                if isinstance(node.value, ast.Call):
                    callee = dotted_name(node.value.func)
                    # A constructor call, possibly module-qualified
                    # (``SharedMemory(...)``, ``shm.SharedMemory(...)``):
                    # the *class* segment is what must be capitalised.
                    if (
                        callee is not None
                        and callee.rsplit(".", 1)[-1][:1].isupper()
                    ):
                        self.local_types[target.id] = callee
                self._set_locals[target.id] = _is_set_expression(
                    node.value, self._set_locals
                )
            elif isinstance(target, ast.Subscript):
                root = target.value
                if (
                    isinstance(root, ast.Name)
                    and root.id in self.global_names
                ):
                    self.global_writes.append(
                        GlobalWrite(
                            node.lineno, node.col_offset, root.id, "mutate"
                        )
                    )
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name) and node.annotation is not None:
            annotation = ast.unparse(node.annotation)
            self.local_types.setdefault(node.target.id, annotation)
            if annotation.startswith(("Set[", "FrozenSet[", "set[")):
                self._set_locals[node.target.id] = True
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        self._record_call(node)
        if isinstance(node.func, ast.Attribute):
            receiver = node.func.value
            if (
                isinstance(receiver, ast.Name)
                and node.func.attr in MUTATOR_METHODS
            ):
                self.global_writes.append(
                    GlobalWrite(
                        node.lineno, node.col_offset, receiver.id, "mutate"
                    )
                )
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        dotted = dotted_name(node.value)
        if dotted == "os.environ":
            self.time_reads.append(
                FlaggedSite(node.lineno, node.col_offset, "os.environ[...]")
            )
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if isinstance(node.target, ast.Name):
            self.assigned_locals.add(node.target.id)
            if isinstance(node.iter, ast.Name):
                self.local_types.setdefault(
                    node.target.id, f"@elem:{node.iter.id}"
                )
        if _is_set_expression(node.iter, self._set_locals):
            reduction = _reduction_in_body(node.body)
            if reduction is not None:
                self.set_reductions.append(
                    FlaggedSite(
                        node.lineno,
                        node.col_offset,
                        f"set iteration {reduction}",
                    )
                )
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    def visit_While(self, node: ast.While) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    def visit_comprehension(self, node: ast.comprehension) -> None:
        if isinstance(node.target, ast.Name) and isinstance(
            node.iter, ast.Name
        ):
            self.local_types.setdefault(
                node.target.id, f"@elem:{node.iter.id}"
            )
        self.generic_visit(node)

    def _visit_comp_expr(self, node: ast.AST) -> None:
        # Generators bind the element variables the body uses, so they
        # must be visited first — AST field order is body-first.
        for generator in node.generators:  # type: ignore[attr-defined]
            self.visit(generator)
        for field in ("key", "value", "elt"):
            child = getattr(node, field, None)
            if child is not None:
                self.visit(child)

    visit_ListComp = _visit_comp_expr  # type: ignore[assignment]
    visit_SetComp = _visit_comp_expr  # type: ignore[assignment]
    visit_DictComp = _visit_comp_expr  # type: ignore[assignment]
    visit_GeneratorExp = _visit_comp_expr  # type: ignore[assignment]

    def summary(self) -> FunctionSummary:
        self.visit(self.node)
        return FunctionSummary(
            qualname=self.qualname,
            line=self.node.lineno,
            params=tuple(self.params),
            calls=tuple(self.calls),
            local_types=tuple(sorted(self.local_types.items())),
            global_writes=tuple(self.global_writes),
            rng_creations=tuple(self.rng_creations),
            time_reads=tuple(self.time_reads),
            telemetry_in_loop=tuple(self.telemetry_in_loop),
            set_reductions=tuple(self.set_reductions),
            submits=tuple(self.submits),
            assigned_locals=tuple(sorted(self.assigned_locals)),
        )


def _module_imports(tree: ast.Module) -> Dict[str, str]:
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue  # relative imports unused in this tree
            for alias in node.names:
                local = alias.asname or alias.name
                imports[local] = f"{node.module}.{alias.name}"
    return imports


def summarize_module(
    module: str, path: str, source: str
) -> ModuleSummary:
    """Parse ``source`` and build its :class:`ModuleSummary`.

    Raises :class:`SyntaxError` for unparsable input (the driver turns
    that into a REP000 finding, mirroring the single-file engine).
    """
    tree = ast.parse(source)
    imports = _module_imports(tree)

    functions: List[FunctionSummary] = []
    classes: List[ClassSummary] = []
    mutable_globals: List[Tuple[str, int]] = []

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.append(
                _FunctionVisitor(node.name, node, imports).summary()
            )
        elif isinstance(node, ast.ClassDef):
            methods: List[str] = []
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.append(item.name)
                    functions.append(
                        _FunctionVisitor(
                            f"{node.name}.{item.name}", item, imports
                        ).summary()
                    )
            bases = tuple(
                name
                for name in (dotted_name(base) for base in node.bases)
                if name is not None
            )
            classes.append(
                ClassSummary(
                    name=node.name,
                    line=node.lineno,
                    bases=bases,
                    methods=tuple(methods),
                )
            )
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and _is_mutable_binding(
                    node.value
                ):
                    mutable_globals.append((target.id, node.lineno))
        elif isinstance(node, ast.AnnAssign):
            if (
                isinstance(node.target, ast.Name)
                and node.value is not None
                and _is_mutable_binding(node.value)
            ):
                mutable_globals.append((node.target.id, node.lineno))

    return ModuleSummary(
        module=module,
        path=path,
        content_hash=content_hash(source),
        imports=tuple(sorted(imports.items())),
        functions=tuple(functions),
        classes=tuple(classes),
        mutable_globals=tuple(mutable_globals),
    )
