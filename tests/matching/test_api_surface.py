"""The matching and durability packages expose no API the program does not use.

Every public method and property of the classes :mod:`repro.matching`
exports (the two assignment engines, the graph and the matching
result) and :mod:`repro.durability` exports (the journal, its records,
the journaling platform, ...), and every name either package exports,
must be referenced somewhere in ``src/repro`` outside the module that
defines it.  A method that only its own module and the tests call still
has to be kept correct, cross-checked and documented; this suite fails
as soon as one appears, so such code is deleted (or moved to
``tests/``) instead of growing back.  For the journaling platform that
means no mutator beside ``apply`` can return.

References are found in the syntax tree: a method by an attribute
access other than through ``self`` (``solver.solve``), an export by a
bare or imported name.  An
unrelated attribute of the same name (``array.shape``) also counts, so
the suite catches names that nothing else spells, which is what dead
engine API looks like.  Audited oracles that the tests run against the
engines, and that nothing in the program calls, are allowed by name in
:data:`ORACLES`, and members that tests read as oracles or probes in
:data:`MEMBER_ORACLES`, each with its reason; the durability package's
allowances are :data:`DURABILITY_ORACLES` and
:data:`DURABILITY_MEMBER_ORACLES`.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Dict, List, Set, Tuple

import pytest

import repro
import repro.durability
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

#: :mod:`repro.durability` exports that no program module references,
#: kept because a test (or the example) needs them; each reason names it.
DURABILITY_ORACLES: Dict[str, str] = {
    # The chain's first ``prev`` (tests/durability/test_journal.py,
    # tests/durability/test_replay.py::_reseal).
    "GENESIS_HASH": "chain-origin oracle",
    # The header's format version (tests/durability/test_journal.py,
    # tests/auction/test_event_serialisation.py).
    "JOURNAL_VERSION": "format-version oracle",
    # One line's decode, against what scan_journal reads
    # (tests/durability/test_journal.py).
    "decode_line": "line-decode oracle",
    # The segment files tests cut and reseal
    # (tests/durability/test_journal.py, test_replay.py).
    "segment_paths": "segment-file probe",
    # Replay of records held in memory, not read from a directory
    # (tests/durability/test_replay.py::TestEventLogIsNotCopied).
    "replay_records": "in-memory replay",
    # Finishing a crashed round (tests/durability/test_crash_property.py,
    # examples/crash_recovery.py); the program only starts rounds.
    "resume_round": "crash-resume entry point",
}

#: Public members of :mod:`repro.durability` classes that no program
#: module outside their own references, kept because a test needs them.
DURABILITY_MEMBER_ORACLES: Dict[str, str] = {
    # The canonical line a record was sealed as
    # (tests/durability/test_journal.py, test_replay.py::_reseal,
    # tests/utils/test_recordlog.py).
    "JournalRecord.to_line": "line-encode oracle",
    # The wrapped platform's event log and state
    # (tests/durability/test_journaled_platform.py, test_replay.py).
    "JournaledPlatform.inner": "inner-platform probe",
}


def _classes(package) -> List[type]:
    """The classes ``package`` exports."""
    return [
        getattr(package, name)
        for name in package.__all__
        if isinstance(getattr(package, name), type)
    ]


#: The classes :mod:`repro.matching` exports.
CLASSES = _classes(repro.matching)
#: The classes :mod:`repro.durability` exports.
DURABILITY_CLASSES = _classes(repro.durability)


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


def _home(package, name: str) -> str:
    """The module defining ``package``'s export ``name``; for a constant,
    the package module that assigns it."""
    value = getattr(package, name)
    module = getattr(value, "__module__", None)
    if module is not None:
        return module
    assignment = re.compile(rf"^{name}\b[^=\n]*=", re.MULTILINE)
    (home,) = [
        module_name
        for module_name, module in sorted(sys.modules.items())
        if module_name.startswith(f"{package.__name__}.")
        and assignment.search(Path(module.__file__).read_text())
    ]
    return home


def _unused_members(cls: type, allowed: Dict[str, str]) -> List[str]:
    return [
        name
        for name in _public_members(cls)
        if f"{cls.__name__}.{name}" not in allowed
        and not _used_outside(name, ATTRIBUTE, cls.__module__)
    ]


def _unused_exports(package, allowed: Dict[str, str]) -> List[str]:
    return [
        name
        for name in package.__all__
        if name not in allowed
        and not _used_outside(
            name, NAME, _home(package, name), package.__name__
        )
    ]


@pytest.mark.parametrize("engine", CLASSES, ids=lambda cls: cls.__name__)
def test_engine_methods_have_program_callers(engine):
    unused = _unused_members(engine, MEMBER_ORACLES)
    assert not unused, (
        f"{engine.__name__} members with no caller in src/repro outside "
        f"{engine.__module__}: {unused}; delete them, move them to "
        f"tests/, or list the test that needs them in MEMBER_ORACLES"
    )


def test_exports_have_program_callers():
    unused = _unused_exports(repro.matching, ORACLES)
    assert not unused, (
        f"repro.matching exports with no caller in src/repro: {unused}; "
        f"delete them, move them to tests/, or list an audited oracle in "
        f"ORACLES"
    )


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_oracle_allowance_is_still_needed(name):
    """An allowed name must still be exported and still have no caller."""
    assert name in repro.matching.__all__
    assert name in _unused_exports(repro.matching, {})


@pytest.mark.parametrize("qualified", sorted(MEMBER_ORACLES))
def test_member_allowance_is_still_needed(qualified):
    """An allowed member must still exist and still have no caller."""
    class_name, name = qualified.split(".")
    cls = getattr(repro.matching, class_name)
    assert name in _unused_members(cls, {})


@pytest.mark.parametrize(
    "cls", DURABILITY_CLASSES, ids=lambda cls: cls.__name__
)
def test_durability_members_have_program_callers(cls):
    unused = _unused_members(cls, DURABILITY_MEMBER_ORACLES)
    assert not unused, (
        f"{cls.__name__} members with no caller in src/repro outside "
        f"{cls.__module__}: {unused}; delete them, move them to tests/, "
        f"or list the test that needs them in DURABILITY_MEMBER_ORACLES"
    )


def test_durability_exports_have_program_callers():
    unused = _unused_exports(repro.durability, DURABILITY_ORACLES)
    assert not unused, (
        f"repro.durability exports with no caller in src/repro: "
        f"{unused}; delete them, or list the test that needs them in "
        f"DURABILITY_ORACLES"
    )


@pytest.mark.parametrize("name", sorted(DURABILITY_ORACLES))
def test_durability_allowance_is_still_needed(name):
    assert name in repro.durability.__all__
    assert name in _unused_exports(repro.durability, {})


@pytest.mark.parametrize("qualified", sorted(DURABILITY_MEMBER_ORACLES))
def test_durability_member_allowance_is_still_needed(qualified):
    class_name, name = qualified.split(".")
    cls = getattr(repro.durability, class_name)
    assert name in _unused_members(cls, {})
