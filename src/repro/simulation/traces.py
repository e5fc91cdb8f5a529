"""Scenario persistence: JSON traces for record and replay.

A trace is a single JSON document with a header (format version,
metadata), the private profiles, and the task schedule.  Replaying a
trace reconstructs the exact :class:`~repro.simulation.Scenario`, so a
sweep result can always be re-derived from its recorded inputs.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Union

from repro.errors import SimulationError
from repro.model.smartphone import SmartphoneProfile
from repro.model.task import SensingTask, TaskSchedule
from repro.simulation.scenario import Scenario

#: Bumped whenever the trace layout changes incompatibly.
TRACE_FORMAT_VERSION = 1

PathLike = Union[str, "os.PathLike[str]"]


def scenario_to_dict(scenario: Scenario) -> Dict[str, Any]:
    """The JSON-ready representation of ``scenario``."""
    return {
        "format_version": TRACE_FORMAT_VERSION,
        "metadata": scenario.metadata,
        "num_slots": scenario.num_slots,
        "profiles": [p.to_dict() for p in scenario.profiles],
        "tasks": [t.to_dict() for t in scenario.schedule],
    }


def scenario_from_dict(payload: Dict[str, Any]) -> Scenario:
    """Rebuild a scenario from :func:`scenario_to_dict` output.

    Raises
    ------
    SimulationError
        On a missing or unsupported format version, or structurally
        invalid content.
    ValidationError
        On a value of the wrong JSON type or out of range — e.g. a
        string or fractional slot, a bool id, a string cost — since
        values are validated as read, never coerced.
    """
    version = payload.get("format_version")
    if version != TRACE_FORMAT_VERSION:
        raise SimulationError(
            f"unsupported trace format version {version!r}; this build "
            f"reads version {TRACE_FORMAT_VERSION}"
        )
    try:
        num_slots = payload["num_slots"]
        profiles = [
            SmartphoneProfile.from_dict(entry)
            for entry in payload["profiles"]
        ]
        tasks = [SensingTask.from_dict(entry) for entry in payload["tasks"]]
        metadata = payload.get("metadata") or {}
    except (KeyError, TypeError) as exc:
        raise SimulationError(f"malformed trace payload: {exc}") from exc
    if not isinstance(metadata, dict):
        raise SimulationError(
            f"trace metadata must be a JSON object, got "
            f"{type(metadata).__name__}"
        )
    schedule = TaskSchedule(num_slots=num_slots, tasks=tasks)
    return Scenario(profiles=profiles, schedule=schedule, metadata=metadata)


def save_scenario(scenario: Scenario, path: PathLike) -> None:
    """Write ``scenario`` to ``path`` as JSON."""
    payload = scenario_to_dict(scenario)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_scenario(path: PathLike) -> Scenario:
    """Read a scenario previously written by :func:`save_scenario`."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except json.JSONDecodeError as exc:
        raise SimulationError(f"trace {path!s} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise SimulationError(
            f"trace {path!s} must contain a JSON object, got "
            f"{type(payload).__name__}"
        )
    return scenario_from_dict(payload)
