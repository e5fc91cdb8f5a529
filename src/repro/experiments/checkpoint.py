"""Sweep checkpoints for killed-and-resumed runs: one record log per sweep.

Long sweeps should survive a killed process: each completed sweep point
is appended as one sealed line (:data:`SWEEP_CHECKPOINT_SCHEMA`, guarded
by a SHA-256 ``checksum`` field) to the sweep's record log
``<root>/<sweep>.ckpt.jsonl``, written and fsynced through
:class:`~repro.utils.recordlog.RecordWriter`.  On resume,
:meth:`CheckpointStore.load_point` reconstructs the exact
:class:`~repro.experiments.runner.SweepPoint` — floats round-trip
bit-exactly through JSON's shortest-repr encoding, so a resumed sweep
aggregates byte-identically to an uninterrupted one (asserted by the
tests).

A torn or corrupt line ends the log's valid prefix.  By default the log
is cut back to that prefix (the points after it are recomputed) and the
cut bytes are appended to ``<log>.corrupt`` first, so the evidence
survives; each cut is counted on ``checkpoint.quarantined``.
``strict=True`` raises :class:`~repro.errors.CheckpointError` instead,
leaving the file alone.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import re
from typing import Any, Dict, Mapping, Optional

from repro import obs
from repro.errors import CheckpointError
from repro.experiments.runner import MechanismMetrics, SweepPoint
from repro.metrics.summary import Summary
from repro.utils.recordlog import (
    RecordError,
    RecordWriter,
    cut_log,
    read_log,
    seal,
    unseal,
)

#: The ``schema`` of every sweep-log record.
SWEEP_CHECKPOINT_SCHEMA = "repro-sweep-checkpoint/2"


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


def _decode_point_line(line: bytes) -> SweepPoint:
    """One sweep-log line's point; raises if torn, corrupt or foreign."""
    record = unseal(line, "checksum")
    schema = record.get("schema")
    if schema != SWEEP_CHECKPOINT_SCHEMA:
        raise RecordError(
            f"unknown checkpoint schema {schema!r}; this build writes "
            f"{SWEEP_CHECKPOINT_SCHEMA!r}"
        )
    return point_from_dict(record.get("point"))


class CheckpointStore:
    """A directory of sweep checkpoint logs, one per sweep name."""

    def __init__(self, directory: os.PathLike) -> None:
        self._root = pathlib.Path(directory)

    @property
    def root(self) -> pathlib.Path:
        """The store's root directory."""
        return self._root

    def path_for(self, sweep_name: str) -> pathlib.Path:
        """Where the checkpoint log of one sweep lives."""
        slug = re.sub(r"[^A-Za-z0-9_.+-]", "_", sweep_name)
        return self._root / f"{slug}.ckpt.jsonl"

    def save_point(self, sweep_name: str, point: SweepPoint) -> pathlib.Path:
        """Durably append one completed sweep point to the sweep's log."""
        line, _ = seal(
            {
                "schema": SWEEP_CHECKPOINT_SCHEMA,
                "point": point_to_dict(point),
            },
            "checksum",
        )
        path = self.path_for(sweep_name)
        with RecordWriter(path) as log:
            log.append(line)
        return path

    def load_point(
        self,
        sweep_name: str,
        param: str,
        value: Any,
        strict: bool = False,
    ) -> Optional[SweepPoint]:
        """The last stored ``(param, value)`` point, or ``None``.

        A bad line — torn, failing its checksum, of a foreign schema or
        holding a malformed point — ends the log's valid prefix: the log
        is cut back to it (the cut bytes go to ``<log>.corrupt``,
        counted on ``checkpoint.quarantined``) and only the prefix is
        searched.  With ``strict=True`` the bad line raises instead and
        the file stays as it is.
        """
        path = self.path_for(sweep_name)
        scan = read_log(path, _decode_point_line)
        if scan.bad_offset is not None:
            if strict:
                raise CheckpointError(
                    f"{path} at byte {scan.bad_offset}: {scan.error}"
                ) from scan.error
            cut_log(path, scan.bad_offset)
            obs.counter("checkpoint.quarantined")
        for _, point in reversed(scan.records):
            if point.param == param and point.value == value:
                return point
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CheckpointStore({str(self._root)!r})"
