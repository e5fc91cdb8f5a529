"""The run ledger: a durable per-machine history of instrumented runs.

The committed ``BENCH_*.json`` baselines record the *gated* perf story
— one file per PR, curated.  The ledger records the *local* story:
every ``campaign`` / ``figures`` / ``trace`` / bench invocation appends
one structured :class:`RunRecord` (run id, git SHA, config digest,
wall time, key counters, trace/journal refs) to an append-only
``RUNS.jsonl`` file, so "has this command been getting slower on my
machine?" is a query over a file instead of an archaeology session.

Design points:

* **Append-only JSONL, fsync'd per append** through a
  :class:`~repro.utils.recordlog.RecordWriter`: a crashed process costs
  at most its own line, which the next append cuts first.
  :meth:`RunLedger.read` skips a torn tail and any corrupt or foreign
  line, counting them on ``ledger.skipped_lines`` — the ledger is an
  observability aid, never a gate that can wedge.
* **Identity is content-derived.**  ``run_id`` hashes the command,
  label, start stamp, and config digest, so two processes appending
  concurrently cannot collide silently, and a test driving the wall
  clock gets reproducible ids.
* **Clock discipline.**  Timestamps come from
  :func:`repro.obs.clock.wall_seconds` / ``perf_seconds`` — never from
  ``time`` directly — so the whole module freezes onto manual clocks
  under test (the same REP015 discipline the workers follow).
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import subprocess
from typing import Any, Dict, Mapping, Optional, Tuple

from repro import obs
from repro.errors import ObservabilityError
from repro.obs.clock import perf_seconds, wall_seconds
from repro.utils.recordlog import RecordWriter, checksum_text, read_log

#: Format marker carried on every ledger record.
LEDGER_SCHEMA = "repro-run-ledger/1"

#: Conventional ledger file name.
LEDGER_FILENAME = "RUNS.jsonl"


class LedgerError(ObservabilityError):
    """The run ledger was misused (unwritable path, bad record, ...)."""


def config_digest(config: Mapping[str, Any]) -> str:
    """A short stable digest of a JSON-friendly configuration mapping.

    Key order never matters (canonical separators + sorted keys), so
    two runs with the same effective configuration share a digest even
    if their argument dictionaries were built in different orders.
    """
    try:
        canonical = json.dumps(
            dict(config), sort_keys=True, separators=(",", ":"),
            default=str,
        )
    except TypeError as exc:  # pragma: no cover - default=str catches most
        raise LedgerError(f"configuration is not serialisable: {exc}") from exc
    return checksum_text(canonical)[:12]


def current_git_sha(cwd: Optional["os.PathLike[str]"] = None) -> Optional[str]:
    """The current git HEAD SHA, or ``None`` outside a repository.

    Best-effort by design: the ledger must keep working in exported
    tarballs, containers without git, and detached worktrees.
    """
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.fspath(cwd) if cwd is not None else None,
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = completed.stdout.strip()
    if completed.returncode != 0 or len(sha) != 40:
        return None
    return sha


@dataclasses.dataclass(frozen=True)
class RunRecord:
    """One ledger line: what ran, when, how long, and what it produced.

    Attributes
    ----------
    run_id:
        Content-derived short identifier (see :func:`make_run_id`).
    command:
        The invocation family (``"campaign"``, ``"figures"``,
        ``"trace"``, ``"bench"``, ...).
    label:
        Free-form sub-label (figure name, mechanism, bench label, ...).
    started_at:
        Wall-clock epoch seconds at start.
    wall_seconds:
        Elapsed wall time of the run.
    git_sha:
        HEAD at run time, or ``None`` when unknown.
    config_digest:
        Digest of the effective configuration (:func:`config_digest`).
    counters:
        Key counters of the run (welfare totals, rounds, span counts —
        whatever the caller considers this command's vitals).
    artifacts:
        Name → path/reference of produced artifacts (journal
        directory, trace file, heartbeat file, ...).
    """

    run_id: str
    command: str
    label: str
    started_at: float
    wall_seconds: float
    git_sha: Optional[str]
    config_digest: str
    counters: Dict[str, float] = dataclasses.field(default_factory=dict)
    artifacts: Dict[str, str] = dataclasses.field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form (one ledger line)."""
        payload = dataclasses.asdict(self)
        payload["schema"] = LEDGER_SCHEMA
        payload["counters"] = {
            name: self.counters[name] for name in sorted(self.counters)
        }
        payload["artifacts"] = {
            name: self.artifacts[name] for name in sorted(self.artifacts)
        }
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunRecord":
        """Inverse of :meth:`to_dict` (schema-checked)."""
        if data.get("schema") != LEDGER_SCHEMA:
            raise LedgerError(
                f"not a {LEDGER_SCHEMA} record "
                f"(schema={data.get('schema')!r})"
            )
        try:
            return cls(
                run_id=str(data["run_id"]),
                command=str(data["command"]),
                label=str(data["label"]),
                started_at=float(data["started_at"]),
                wall_seconds=float(data["wall_seconds"]),
                git_sha=(
                    str(data["git_sha"])
                    if data.get("git_sha") is not None
                    else None
                ),
                config_digest=str(data["config_digest"]),
                counters={
                    str(k): float(v)
                    for k, v in dict(data.get("counters", {})).items()
                },
                artifacts={
                    str(k): str(v)
                    for k, v in dict(data.get("artifacts", {})).items()
                },
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise LedgerError(
                f"malformed ledger record: {dict(data)!r}"
            ) from exc


def make_run_id(
    command: str, label: str, started_at: float, digest: str
) -> str:
    """The content-derived run identifier (12 hex chars)."""
    material = f"{command}|{label}|{started_at!r}|{digest}"
    return checksum_text(material)[:12]


@dataclasses.dataclass(frozen=True)
class LedgerView:
    """The readable content of a ledger file.

    ``skipped_lines`` counts lines that were blank, corrupt, or of an
    unknown schema — reported, never fatal.
    """

    records: Tuple[RunRecord, ...]
    skipped_lines: int = 0

    def for_command(self, command: str) -> Tuple[RunRecord, ...]:
        """Records of one command family, in append order."""
        return tuple(r for r in self.records if r.command == command)


class RunLedger:
    """Append/read interface over one ``RUNS.jsonl`` file."""

    def __init__(self, path: "os.PathLike[str]") -> None:
        self._path = pathlib.Path(path)

    @property
    def path(self) -> pathlib.Path:
        """Where this ledger lives."""
        return self._path

    def append(self, record: RunRecord) -> None:
        """Durably append one record (creates parents on first write)."""
        line = json.dumps(record.to_dict(), sort_keys=True) + "\n"
        try:
            with RecordWriter(self._path) as log:
                log.append(line.encode("utf-8"))
        except OSError as exc:
            raise LedgerError(
                f"cannot append to run ledger {self._path}: {exc}"
            ) from exc
        obs.counter("ledger.appends")

    def read(self) -> LedgerView:
        """Every readable record, in file order; a missing file is empty."""
        try:
            scan = read_log(self._path, _decode_ledger_line)
        except OSError as exc:
            raise LedgerError(
                f"cannot read run ledger {self._path}: {exc}"
            ) from exc
        records = [record for _, record in scan.records if record is not None]
        skipped = len(scan.records) - len(records)
        if scan.bad_offset is not None:
            skipped += 1  # the torn tail
        if skipped:
            obs.counter("ledger.skipped_lines", skipped)
        return LedgerView(records=tuple(records), skipped_lines=skipped)


def _decode_ledger_line(line: bytes) -> Optional[RunRecord]:
    """One ledger line's record; ``None`` for corrupt or foreign lines."""
    try:
        return RunRecord.from_dict(json.loads(line))
    except (ValueError, AttributeError, LedgerError):
        return None


class LedgerSession:
    """Times one command and appends its :class:`RunRecord` on close.

    The CLI wraps each ledgered command in one session::

        session = LedgerSession.start("campaign", label=mechanism,
                                      config=config_dict,
                                      ledger=RunLedger(path))
        ...
        session.add_counters(rounds=50, welfare=total)
        session.add_artifact("journal_dir", str(journal_dir))
        record = session.finish()

    With ``ledger=None`` the session is a no-op recorder, so call sites
    need no conditionals.  ``git_sha`` defaults to the repository HEAD
    discovered from the working directory (best-effort).
    """

    def __init__(
        self,
        ledger: Optional[RunLedger],
        command: str,
        label: str,
        digest: str,
        git_sha: Optional[str],
        started_at: float,
        perf_start: float,
    ) -> None:
        self._ledger = ledger
        self._command = command
        self._label = label
        self._digest = digest
        self._git_sha = git_sha
        self._started_at = started_at
        self._perf_start = perf_start
        self._counters: Dict[str, float] = {}
        self._artifacts: Dict[str, str] = {}
        self._finished = False

    @classmethod
    def start(
        cls,
        command: str,
        label: str,
        config: Mapping[str, Any],
        ledger: Optional[RunLedger],
        git_sha: Optional[str] = None,
    ) -> "LedgerSession":
        """Open a session stamped *now* (wall + perf clocks)."""
        return cls(
            ledger=ledger,
            command=command,
            label=label,
            digest=config_digest(config),
            git_sha=git_sha if git_sha is not None else current_git_sha(),
            started_at=wall_seconds(),
            perf_start=perf_seconds(),
        )

    @property
    def enabled(self) -> bool:
        """Whether this session will actually append anywhere."""
        return self._ledger is not None

    def add_counters(self, **counters: float) -> None:
        """Merge key counters into the pending record."""
        for name, value in counters.items():
            self._counters[name] = float(value)

    def add_artifact(self, name: str, reference: str) -> None:
        """Attach one produced-artifact reference."""
        self._artifacts[name] = str(reference)

    def finish(self) -> Optional[RunRecord]:
        """Build the record and append it (once); no-op when disabled."""
        if self._finished:
            raise LedgerError("ledger session already finished")
        self._finished = True
        record = RunRecord(
            run_id=make_run_id(
                self._command, self._label, self._started_at, self._digest
            ),
            command=self._command,
            label=self._label,
            started_at=self._started_at,
            wall_seconds=perf_seconds() - self._perf_start,
            git_sha=self._git_sha,
            config_digest=self._digest,
            counters=dict(self._counters),
            artifacts=dict(self._artifacts),
        )
        if self._ledger is not None:
            self._ledger.append(record)
        return record if self._ledger is not None else None
