"""Benchmark regression gating against a committed baseline.

The perf-smoke CI job runs ``benchmarks/test_perf_scaling.py`` with
``--benchmark-json`` and then compares the fresh timings against the
baseline committed in the repository (``BENCH_0004.json``): a gated
benchmark whose mean time exceeds ``baseline * (1 + tolerance)`` fails
the build.  The same module records baselines, so the workflow is::

    # record (developer machine, after a perf-sensitive change):
    python -m pytest benchmarks/test_perf_scaling.py \
        --benchmark-json bench.json
    python -m repro.obs.regression record bench.json \
        --out BENCH_0004.json --note "warm-started matching"

    # check (CI):
    python -m repro.obs.regression check bench.json \
        --baseline BENCH_0004.json --tolerance 0.20 \
        --only "test_offline_vcg_scaling[80]"

Both the baseline file and the comparison keep *seconds*, not ratios,
so the numbers in the committed file double as the measured performance
record for the PR that produced them.
"""

from __future__ import annotations

import argparse
import dataclasses
import fnmatch
import json
import math
import pathlib
from typing import AbstractSet, Dict, List, Mapping, Optional, Sequence

from repro.errors import ReproError
from repro.obs.console import Console

#: Format marker for the baseline file.
BASELINE_SCHEMA = "repro-bench/1"


class RegressionError(ReproError):
    """A malformed benchmark file or a failed regression check."""


class MissingBenchmarkError(RegressionError):
    """The baseline gates a benchmark the fresh run did not produce.

    Distinct from a generic :class:`RegressionError` so CI tooling can
    tell "the suite renamed/lost a benchmark" (fix the baseline) apart
    from "the timing file is malformed" (fix the run); ``benchmark``
    carries the offending name.
    """

    def __init__(self, benchmark: str, message: str) -> None:
        super().__init__(message)
        self.benchmark = benchmark


@dataclasses.dataclass(frozen=True)
class BenchStats:
    """One benchmark's timing statistics, in seconds.

    A NaN, infinite or zero mean would make every comparison against it
    vacuous (NaN never exceeds the budget) or crash the ratio, so such
    values are refused at construction with a :class:`RegressionError`,
    which both file readers report with the offending entry.
    """

    mean_seconds: float
    min_seconds: float
    rounds: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mean_seconds) and self.mean_seconds > 0):
            raise RegressionError(
                f"mean_seconds must be finite and > 0, "
                f"got {self.mean_seconds!r}"
            )
        if not (math.isfinite(self.min_seconds) and self.min_seconds >= 0):
            raise RegressionError(
                f"min_seconds must be finite and >= 0, "
                f"got {self.min_seconds!r}"
            )

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form for JSON serialisation."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "BenchStats":
        """Inverse of :meth:`to_dict`."""
        try:
            return cls(
                mean_seconds=float(data["mean_seconds"]),  # type: ignore[arg-type]
                min_seconds=float(data["min_seconds"]),  # type: ignore[arg-type]
                rounds=int(data["rounds"]),  # type: ignore[arg-type]
            )
        except (KeyError, TypeError, ValueError, RegressionError) as exc:
            raise RegressionError(
                f"malformed benchmark stats entry {dict(data)!r}: {exc}"
            ) from exc


@dataclasses.dataclass(frozen=True)
class Comparison:
    """A gated benchmark's fresh timing against its baseline."""

    name: str
    baseline_seconds: float
    current_seconds: float
    tolerance: float

    @property
    def ratio(self) -> float:
        """current / baseline mean time (> 1 means slower)."""
        return self.current_seconds / self.baseline_seconds

    @property
    def regressed(self) -> bool:
        """Whether the slowdown exceeds the tolerance."""
        return self.current_seconds > self.baseline_seconds * (
            1.0 + self.tolerance
        )

    def describe(self) -> str:
        """One human-readable report line."""
        verdict = "REGRESSED" if self.regressed else "ok"
        return (
            f"{self.name}: {self.current_seconds * 1e3:.1f} ms vs "
            f"baseline {self.baseline_seconds * 1e3:.1f} ms "
            f"({self.ratio:.2f}x, tolerance {self.tolerance:.0%}) "
            f"[{verdict}]"
        )


def load_pytest_benchmark(path: pathlib.Path) -> Dict[str, BenchStats]:
    """Parse a ``pytest-benchmark --benchmark-json`` output file.

    Returns a mapping from the benchmark's test name (including the
    parametrisation suffix, e.g. ``test_offline_vcg_scaling[80]``) to
    its :class:`BenchStats`.
    """
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise RegressionError(
            f"cannot read benchmark results from {path}: {exc}"
        ) from exc
    benchmarks = data.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        raise RegressionError(
            f"{path} has no 'benchmarks' entries; was pytest run with "
            f"--benchmark-json?"
        )
    stats: Dict[str, BenchStats] = {}
    for entry in benchmarks:
        name = entry.get("name")
        timing = entry.get("stats") or {}
        if not name:
            raise RegressionError(f"{path}: benchmark entry without a name")
        try:
            stats[str(name)] = BenchStats(
                mean_seconds=float(timing["mean"]),
                min_seconds=float(timing["min"]),
                rounds=int(timing.get("rounds", 0)),
            )
        except (KeyError, TypeError, ValueError, RegressionError) as exc:
            raise RegressionError(
                f"{path}: malformed benchmark entry {name!r}: {exc}"
            ) from exc
    return stats


def load_baseline(path: pathlib.Path) -> Dict[str, BenchStats]:
    """Load a committed baseline file written by :func:`write_baseline`."""
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise RegressionError(
            f"cannot read baseline from {path}: {exc}"
        ) from exc
    if data.get("schema") != BASELINE_SCHEMA:
        raise RegressionError(
            f"{path} is not a {BASELINE_SCHEMA} baseline file "
            f"(schema={data.get('schema')!r})"
        )
    return {
        name: BenchStats.from_dict(entry)
        for name, entry in data.get("benchmarks", {}).items()
    }


def write_baseline(
    path: pathlib.Path,
    stats: Mapping[str, BenchStats],
    note: str = "",
    before: Optional[Mapping[str, float]] = None,
) -> None:
    """Write a baseline file.

    ``before`` optionally records the pre-change mean seconds per
    benchmark, preserving the measured speed-up alongside the gate.
    """
    payload: Dict[str, object] = {
        "schema": BASELINE_SCHEMA,
        "note": note,
        "benchmarks": {
            name: stats[name].to_dict() for name in sorted(stats)
        },
    }
    if before:
        payload["before_mean_seconds"] = {
            name: before[name] for name in sorted(before)
        }
    path.write_text(json.dumps(payload, indent=2) + "\n")


def select_benchmarks(
    baseline_names: "AbstractSet[str]",
    only: Optional[Sequence[str]] = None,
) -> List[str]:
    """Expand ``--only`` patterns against the baseline's benchmarks.

    Each pattern is an :mod:`fnmatch`-style glob (``test_vcg*``).  An
    *exact* baseline name always selects itself, even when it contains
    glob metacharacters — parametrised benchmark names like
    ``test_offline_vcg_scaling[80]`` would otherwise be read as a
    character class and never match literally, so pre-glob invocations
    keep working unchanged.  A pattern matching *nothing* raises — a
    silently empty selection would make the gate vacuously green.
    Selection order is sorted per pattern, first-pattern-wins on
    duplicates.
    """
    if only is None:
        return sorted(baseline_names)
    selected: List[str] = []
    seen = set()
    for pattern in only:
        if pattern in baseline_names:
            matches = [pattern]
        else:
            matches = sorted(
                name
                for name in baseline_names
                if fnmatch.fnmatchcase(name, pattern)
            )
        if not matches:
            raise RegressionError(
                f"--only pattern {pattern!r} matches no baseline "
                f"benchmark; known: {sorted(baseline_names)}"
            )
        for name in matches:
            if name not in seen:
                seen.add(name)
                selected.append(name)
    return selected


def compare(
    baseline: Mapping[str, BenchStats],
    current: Mapping[str, BenchStats],
    tolerance: float,
    only: Optional[Sequence[str]] = None,
) -> List[Comparison]:
    """Compare fresh timings against the baseline.

    ``only`` restricts the gate to the benchmarks matching the given
    glob patterns (see :func:`select_benchmarks`); by default every
    baseline benchmark is gated.  A gated benchmark missing from
    ``current`` raises :class:`MissingBenchmarkError` — a
    silently-skipped gate would read as a pass.
    """
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise RegressionError(
            f"tolerance must be finite and >= 0, got {tolerance}"
        )
    names = select_benchmarks(set(baseline), only)
    comparisons = []
    for name in names:
        if name not in current:
            raise MissingBenchmarkError(
                benchmark=name,
                message=(
                    f"benchmark {name!r} is gated by the baseline but "
                    f"missing from the fresh results; did the benchmark "
                    f"suite change names? (fresh: {sorted(current)})"
                ),
            )
        comparisons.append(
            Comparison(
                name=name,
                baseline_seconds=baseline[name].mean_seconds,
                current_seconds=current[name].mean_seconds,
                tolerance=tolerance,
            )
        )
    return comparisons


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Command-line entry point (``python -m repro.obs.regression``)."""
    parser = argparse.ArgumentParser(
        prog="repro.obs.regression",
        description="record / check benchmark baselines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser(
        "record", help="write a baseline from pytest-benchmark JSON"
    )
    record.add_argument("results", type=pathlib.Path)
    record.add_argument("--out", type=pathlib.Path, required=True)
    record.add_argument("--note", default="")

    check = sub.add_parser(
        "check", help="gate fresh results against a committed baseline"
    )
    check.add_argument("results", type=pathlib.Path)
    check.add_argument("--baseline", type=pathlib.Path, required=True)
    check.add_argument("--tolerance", type=float, default=0.20)
    check.add_argument(
        "--only", action="append", default=None, metavar="PATTERN",
        help="gate only benchmarks matching this glob (repeatable)",
    )

    args = parser.parse_args(argv)
    console = Console()
    try:
        if args.command == "record":
            stats = load_pytest_benchmark(args.results)
            write_baseline(args.out, stats, note=args.note)
            console.out(
                f"baseline with {len(stats)} benchmarks -> {args.out}"
            )
            return 0
        comparisons = compare(
            load_baseline(args.baseline),
            load_pytest_benchmark(args.results),
            tolerance=args.tolerance,
            only=args.only,
        )
        for comparison in comparisons:
            console.out(comparison.describe())
        if any(c.regressed for c in comparisons):
            console.error("benchmark regression gate: FAILED")
            return 1
        console.out("benchmark regression gate: passed")
        return 0
    except RegressionError as exc:
        console.error(f"error: {exc}")
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via CLI smoke
    raise SystemExit(main())
