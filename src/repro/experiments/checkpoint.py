"""Atomic, checksummed sweep checkpoints for killed-and-resumed runs.

Long sweeps should survive a killed process: each completed sweep point
is written as one schema-versioned JSON file whose payload is guarded by
a SHA-256 checksum, written atomically (temp file + ``os.replace``) so a
crash mid-write never leaves a truncated checkpoint behind.  On resume,
:meth:`CheckpointStore.load_point` reconstructs the exact
:class:`~repro.experiments.runner.SweepPoint` — floats round-trip
bit-exactly through JSON's shortest-repr encoding, so a resumed sweep
aggregates byte-identically to an uninterrupted one (asserted by the
tests).

A corrupt or alien checkpoint is treated as *missing* by default (the
point is recomputed) and **quarantined**: the offending file is renamed
to ``*.corrupt`` (and counted on the ``checkpoint.quarantined``
counter) so the sweep never wedges behind the same unreadable point
twice and the evidence survives for inspection.  ``strict=True`` raises
:class:`~repro.errors.CheckpointError` instead, leaving the file in
place.  The checksum is the repository-wide one from
:mod:`repro.utils.recordlog`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import re
import tempfile
from typing import Any, Dict, Mapping, Optional

from repro import obs
from repro.errors import CheckpointError
from repro.experiments.runner import MechanismMetrics, SweepPoint
from repro.metrics.summary import Summary
from repro.utils.recordlog import canonical_json, checksum_text

#: Bump when the checkpoint payload layout changes incompatibly.
SCHEMA_VERSION = 1


def summary_to_dict(summary: Summary) -> Dict[str, Any]:
    """JSON-friendly encoding of a :class:`~repro.metrics.Summary`."""
    return dataclasses.asdict(summary)


def summary_from_dict(payload: Mapping[str, Any]) -> Summary:
    """Inverse of :func:`summary_to_dict`."""
    try:
        return Summary(**dict(payload))
    except TypeError as exc:
        raise CheckpointError(f"malformed summary payload: {exc}") from exc


def point_to_dict(point: SweepPoint) -> Dict[str, Any]:
    """JSON-friendly encoding of a completed sweep point."""
    return {
        "param": point.param,
        "value": point.value,
        "status": point.status,
        "completed_repetitions": point.completed_repetitions,
        "failed_repetitions": point.failed_repetitions,
        "metrics": [
            {
                "label": metric.label,
                "welfare": summary_to_dict(metric.welfare),
                "overpayment_ratio": (
                    None
                    if metric.overpayment_ratio is None
                    else summary_to_dict(metric.overpayment_ratio)
                ),
                "total_payment": summary_to_dict(metric.total_payment),
                "tasks_served": summary_to_dict(metric.tasks_served),
            }
            for metric in point.metrics
        ],
    }


def point_from_dict(payload: Mapping[str, Any]) -> SweepPoint:
    """Inverse of :func:`point_to_dict` (raises on malformed payloads)."""
    try:
        metrics = tuple(
            MechanismMetrics(
                label=entry["label"],
                welfare=summary_from_dict(entry["welfare"]),
                overpayment_ratio=(
                    None
                    if entry["overpayment_ratio"] is None
                    else summary_from_dict(entry["overpayment_ratio"])
                ),
                total_payment=summary_from_dict(entry["total_payment"]),
                tasks_served=summary_from_dict(entry["tasks_served"]),
            )
            for entry in payload["metrics"]
        )
        return SweepPoint(
            param=payload["param"],
            value=payload["value"],
            metrics=metrics,
            status=payload["status"],
            completed_repetitions=payload["completed_repetitions"],
            failed_repetitions=payload["failed_repetitions"],
        )
    except (KeyError, TypeError) as exc:
        raise CheckpointError(
            f"malformed sweep-point payload: {exc}"
        ) from exc


def _slug(value: Any) -> str:
    """A filesystem-safe rendering of a swept value."""
    text = repr(value)
    return re.sub(r"[^A-Za-z0-9_.+-]", "_", text)


class CheckpointStore:
    """A directory of per-sweep-point checkpoint files.

    ``directory`` is the root; one subdirectory per sweep name is
    created on first save.
    """

    def __init__(self, directory: os.PathLike) -> None:
        self._root = pathlib.Path(directory)

    @property
    def root(self) -> pathlib.Path:
        """The store's root directory."""
        return self._root

    def path_for(
        self, sweep_name: str, param: str, value: Any
    ) -> pathlib.Path:
        """Where the checkpoint of one sweep point lives."""
        return (
            self._root
            / sweep_name
            / f"{_slug(param)}={_slug(value)}.json"
        )

    def save_point(self, sweep_name: str, point: SweepPoint) -> pathlib.Path:
        """Atomically persist one completed sweep point.

        The payload is written to a temporary file in the target
        directory and moved into place with ``os.replace``, so a
        concurrent reader (or a crash) never observes a partial file.
        """
        payload = point_to_dict(point)
        document = canonical_json(
            {
                "schema": SCHEMA_VERSION,
                "checksum": checksum_text(canonical_json(payload)),
                "payload": payload,
            }
        )
        path = self.path_for(sweep_name, point.param, point.value)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "w") as stream:
                stream.write(document)
                stream.flush()
                os.fsync(stream.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise
        return path

    def load_point(
        self,
        sweep_name: str,
        param: str,
        value: Any,
        strict: bool = False,
    ) -> Optional[SweepPoint]:
        """The stored sweep point, or ``None`` when absent.

        A missing file returns ``None``.  A file that is unreadable,
        carries an unknown schema version, fails its checksum, or
        records a different ``(param, value)`` than requested also
        returns ``None`` (the caller recomputes the point) — after
        being **quarantined**: renamed to ``*.corrupt`` and counted on
        ``checkpoint.quarantined``, so the recomputed point can be
        saved cleanly and the corrupt evidence survives.  With
        ``strict=True`` the error raises instead and the file stays
        put.
        """
        path = self.path_for(sweep_name, param, value)
        if not path.exists():
            return None
        text = path.read_text()
        try:
            return self._decode(text, param, value)
        except CheckpointError:
            if strict:
                raise
            self._quarantine(path)
            return None

    def _quarantine(self, path: pathlib.Path) -> None:
        """Move a corrupt checkpoint aside so it never wedges a resume."""
        target = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, target)
        except OSError:  # pragma: no cover - rename raced or read-only
            return
        obs.counter("checkpoint.quarantined")

    def _decode(self, text: str, param: str, value: Any) -> SweepPoint:
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"checkpoint is not valid JSON: {exc}"
            ) from exc
        if not isinstance(document, dict):
            raise CheckpointError("checkpoint is not a JSON object")
        schema = document.get("schema")
        if schema != SCHEMA_VERSION:
            raise CheckpointError(
                f"unknown checkpoint schema {schema!r}; this build "
                f"writes schema {SCHEMA_VERSION}"
            )
        payload = document.get("payload")
        if not isinstance(payload, dict):
            raise CheckpointError("checkpoint payload missing")
        expected = document.get("checksum")
        actual = checksum_text(canonical_json(payload))
        if expected != actual:
            raise CheckpointError(
                f"checkpoint checksum mismatch: recorded {expected!r}, "
                f"recomputed {actual!r} (file corrupt?)"
            )
        point = point_from_dict(payload)
        if point.param != param or point.value != value:
            raise CheckpointError(
                f"checkpoint records point ({point.param!r}, "
                f"{point.value!r}) but ({param!r}, {value!r}) was "
                f"requested"
            )
        return point

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CheckpointStore({str(self._root)!r})"
