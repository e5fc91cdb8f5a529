"""The matching package exposes no API that the program does not use.

Every public method and property of the classes :mod:`repro.matching`
exports (the two assignment engines, the graph and the matching
result), and every name it exports, must be referenced somewhere in
``src/repro`` outside the module that defines it.  A method that only
its own module and the tests call still has to be kept correct, cross-
checked and documented; this suite fails as soon as one appears, so
such code is deleted (or moved to ``tests/``) instead of growing back.

References are found in the syntax tree: a method by an attribute
access other than through ``self`` (``solver.solve``), an export by a
bare or imported name.  An
unrelated attribute of the same name (``array.shape``) also counts, so
the suite catches names that nothing else spells, which is what dead
engine API looks like.  Audited oracles that the tests run against the
engines, and that nothing in the program calls, are allowed by name in
:data:`ORACLES`, and members that tests read as oracles or probes in
:data:`MEMBER_ORACLES`, each with its reason.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, List, Set, Tuple

import pytest

import repro
import repro.matching

SRC = Path(repro.__file__).resolve().parent

#: Exported names that no program module references, kept as oracles.
ORACLES: Dict[str, str] = {
    # hungarian.py: the textbook O(n^3) Hungarian algorithm; the dense
    # solver must reproduce its matching, ties included.
    "solve_assignment_min": "reference solver",
    # bruteforce.py: exhaustive search that checks max_weight_matching
    # on small instances.
    "brute_force_max_weight_matching": "exhaustive reference",
    # validate.py: the structural check the tests run on every matching
    # a solver returns.
    "check_matching": "matching validity check",
}

#: Public class members that no program module references, kept because
#: a test needs them; each reason names that test.
MEMBER_ORACLES: Dict[str, str] = {
    # The dense weight matrix the cold references solve
    # (tests/matching/engines.py::cold_assignment).
    "TaskAssignmentGraph.weights": "cold-reference input",
    # Single edge weights against the paper's w = ν − b_i
    # (tests/matching/test_graph.py).
    "TaskAssignmentGraph.weight": "edge-weight oracle",
    # The positive-edge count of the same hand-built graph
    # (tests/matching/test_graph.py).
    "TaskAssignmentGraph.num_edges": "edge-count oracle",
    # Which solver a graph chose, and the density it chose it by
    # (tests/matching/test_graph_backends.py).
    "TaskAssignmentGraph.engine": "engine-selection probe",
    "TaskAssignmentGraph.edge_density": "engine-selection probe",
}

#: The classes :mod:`repro.matching` exports.
CLASSES = [
    getattr(repro.matching, name)
    for name in repro.matching.__all__
    if isinstance(getattr(repro.matching, name), type)
]


def _references() -> Dict[Path, Tuple[Set[str], Set[str]]]:
    """Each ``src/repro`` module's ``(attributes, names)`` referenced."""
    found: Dict[Path, Tuple[Set[str], Set[str]]] = {}
    for path in sorted(SRC.rglob("*.py")):
        attributes: Set[str] = set()
        names: Set[str] = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                # ``self.name`` is a class using itself, not a caller.
                if not (
                    isinstance(node.value, ast.Name) and node.value.id == "self"
                ):
                    attributes.add(node.attr)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        found[path.resolve()] = (attributes, names)
    return found


REFERENCES = _references()


def _used_outside(name: str, kind: int, *modules: str) -> bool:
    """Whether a module other than ``modules`` references ``name``.

    ``kind`` picks the reference set: ``ATTRIBUTE`` or ``NAME``.
    """
    skip = {Path(sys.modules[module].__file__).resolve() for module in modules}
    return any(
        name in refs[kind]
        for path, refs in REFERENCES.items()
        if path not in skip
    )


ATTRIBUTE, NAME = 0, 1


def _public_members(cls: type) -> List[str]:
    """The public methods and properties ``cls`` defines itself."""
    return [
        name
        for name, member in vars(cls).items()
        if not name.startswith("_")
        and (
            callable(member)
            or isinstance(member, (property, classmethod, staticmethod))
        )
    ]


@pytest.mark.parametrize("engine", CLASSES, ids=lambda cls: cls.__name__)
def test_engine_methods_have_program_callers(engine):
    unused = [
        name
        for name in _public_members(engine)
        if f"{engine.__name__}.{name}" not in MEMBER_ORACLES
        and not _used_outside(name, ATTRIBUTE, engine.__module__)
    ]
    assert not unused, (
        f"{engine.__name__} members with no caller in src/repro outside "
        f"{engine.__module__}: {unused}; delete them, move them to "
        f"tests/, or list the test that needs them in MEMBER_ORACLES"
    )


def test_exports_have_program_callers():
    unused = [
        name
        for name in repro.matching.__all__
        if name not in ORACLES
        and not _used_outside(
            name,
            NAME,
            getattr(repro.matching, name).__module__,
            repro.matching.__name__,
        )
    ]
    assert not unused, (
        f"repro.matching exports with no caller in src/repro: {unused}; "
        f"delete them, move them to tests/, or list an audited oracle in "
        f"ORACLES"
    )


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_oracle_allowance_is_still_needed(name):
    """An allowed name must still be exported and still have no caller."""
    assert name in repro.matching.__all__
    assert not _used_outside(
        name,
        NAME,
        getattr(repro.matching, name).__module__,
        repro.matching.__name__,
    )


@pytest.mark.parametrize("qualified", sorted(MEMBER_ORACLES))
def test_member_allowance_is_still_needed(qualified):
    """An allowed member must still exist and still have no caller."""
    class_name, name = qualified.split(".")
    cls = getattr(repro.matching, class_name)
    assert name in _public_members(cls)
    assert not _used_outside(name, ATTRIBUTE, cls.__module__)
