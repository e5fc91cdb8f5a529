"""End-to-end and per-layer benchmark of the ``repro`` package.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-figures --seed 1 --seconds 20 --trace 0

Each run spawns fresh job processes (``job.py``) one after another, never
two at once, until the next job would end past ``--seconds`` (at least one
job).  Every job times one whole workload execution; the run reports the
median over its jobs.  ``setup_s`` is the median over ``SETUPS`` set-ups:
the jobs' own plus set-up-only probes.  Only the first job is checked in
full; later jobs must reproduce its result and files byte for byte.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced jobs (traced jobs run with one worker and wrap each
layer's public entry points, see ``layers.py``) and prints the per-layer
metrics.  A host line precedes the result; the last line of standard output
is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
PYCACHE = ROOT / ".perfbench_build" / "pycache"

#: Set-ups per run whose median is ``setup_s``.
SETUPS = 5
#: A run (set-up, jobs and checks) must end well inside this many seconds.
RUN_DEADLINE_S = 170.0
#: Largest share of traced wall time left outside every layer.
MAX_UNATTRIBUTED_SHARE = 0.05

#: Per-layer metric -> (source table, key, unit).  ``self_s``/``calls``
#: come from the tracer's timed layers, ``counts`` from its counters and
#: ``job`` from the job report itself.
LAYER_METRICS: Dict[str, Tuple[str, str, str]] = {
    "simulation.generate.calls": ("calls", "simulation.generate", "count"),
    "simulation.generate.s": ("self_s", "simulation.generate", "s"),
    "simulation.engine.s": ("self_s", "simulation.engine", "s"),
    "simulation.bids": ("job", "bids", "count"),
    "model.pack.s": ("self_s", "model.pack", "s"),
    "model.unpack.s": ("self_s", "model.unpack", "s"),
    "model.decode.s": ("self_s", "model.decode", "s"),
    "model.segment_bytes": ("counts", "model.segment_bytes", "bytes"),
    "matching.graph.calls": ("calls", "matching.graph", "count"),
    "matching.graph.s": ("self_s", "matching.graph", "s"),
    "matching.solve.calls": ("calls", "matching.solve", "count"),
    "matching.solve.s": ("self_s", "matching.solve", "s"),
    "matching.repair.calls": ("calls", "matching.repair", "count"),
    "matching.repair.s": ("self_s", "matching.repair", "s"),
    "mechanisms.offline.calls": ("calls", "mechanisms.offline", "count"),
    "mechanisms.offline.self_s": ("self_s", "mechanisms.offline", "s"),
    "mechanisms.online.calls": ("calls", "mechanisms.online", "count"),
    "mechanisms.online.s": ("self_s", "mechanisms.online", "s"),
    "mechanisms.winners": ("counts", "mechanisms.winners", "count"),
    "metrics.package.calls": ("calls", "metrics.package", "count"),
    "metrics.package.s": ("self_s", "metrics.package", "s"),
    "experiments.sweep.s": ("self_s", "experiments.sweep", "s"),
    "experiments.point.calls": ("calls", "experiments.point", "count"),
    "experiments.point.s": ("self_s", "experiments.point", "s"),
    "experiments.sharded.s": ("self_s", "experiments.sharded", "s"),
    "experiments.pickle.s": ("self_s", "experiments.pickle", "s"),
    "experiments.unpickle.s": ("self_s", "experiments.unpickle", "s"),
    "experiments.blob_bytes": ("counts", "experiments.blob_bytes", "bytes"),
    "experiments.checkpoint.s": ("self_s", "experiments.checkpoint", "s"),
    "experiments.checkpoint_bytes": ("job", "checkpoint_bytes", "bytes"),
    "auction.campaign.s": ("self_s", "auction.campaign", "s"),
    "auction.platform.calls": ("calls", "auction.platform", "count"),
    "auction.platform.s": ("self_s", "auction.platform", "s"),
    "faults.recovery.calls": ("calls", "faults.recovery", "count"),
    "faults.recovery.s": ("self_s", "faults.recovery", "s"),
    "durability.platform.s": ("self_s", "durability.platform", "s"),
    "durability.append.calls": ("calls", "durability.append", "count"),
    "durability.append.self_s": ("self_s", "durability.append", "s"),
    "durability.fsync.calls": ("calls", "durability.fsync", "count"),
    "durability.fsync.s": ("self_s", "durability.fsync", "s"),
    "durability.bytes": ("job", "journal_bytes", "bytes"),
}


def host_info() -> Dict[str, Any]:
    """The host a number was measured on."""
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "loadavg": list(os.getloadavg()),
    }


def child_env() -> Dict[str, str]:
    """Job environment: bytecode cached under the checkout, like an install."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    return env


def _compile_sources(env: Dict[str, str], deadline: float) -> None:
    """Byte-compile ``src`` once, outside any timed region."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
        env=env,
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=max(1.0, deadline - time.monotonic()),
    )


def run_job(
    workload: str,
    seed: int,
    trace: bool,
    workers: int,
    mode: str,
    env: Dict[str, str],
    deadline: float,
) -> Dict[str, Any]:
    """Spawn one job process and return its report.

    ``mode`` is ``full`` (run and check), ``digest`` (run and hash the
    output) or ``setup`` (stop at the first timed call).
    """
    WORK.mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(dir=WORK))
    try:
        spawned = time.monotonic()
        command = [
            sys.executable,
            str(HERE / "job.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--trace", "1" if trace else "0",
            "--workers", str(workers),
            "--spawned", repr(spawned),
            "--workdir", str(workdir),
        ] + (["--setup-only"] if mode == "setup" else ["--check", mode])
        # Its own process group, so a timeout can stop the job's pool workers too.
        with subprocess.Popen(
            command,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        ) as process:
            try:
                stdout, _ = process.communicate(
                    timeout=max(1.0, deadline - time.monotonic())
                )
            except subprocess.TimeoutExpired:
                os.killpg(process.pid, signal.SIGKILL)
                process.communicate()
                raise
        if process.returncode != 0:
            raise subprocess.CalledProcessError(process.returncode, command)
        report = json.loads(stdout.strip().splitlines()[-1])
        report["elapsed_s"] = time.monotonic() - spawned
        report["checkpoint_bytes"] = _tree_bytes(workdir / "checkpoints") + (
            _tree_bytes(workdir / "shards")
        )
        report["journal_bytes"] = _tree_bytes(workdir / "journal")
        return report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _tree_bytes(directory: pathlib.Path) -> int:
    if not directory.exists():
        return 0
    return sum(path.stat().st_size for path in directory.rglob("*") if path.is_file())


def repeat_of(first: Dict[str, Any], report: Dict[str, Any]) -> None:
    """Judge a repeat job by its digests: same seed must mean same output.

    Only the first job of a run is checked in full; a repeat whose result
    and written files hash alike inherits its verdict, anything else fails
    every unit.
    """
    same = (
        report["digest"] == first["digest"]
        and report["artifacts"] == first["artifacts"]
    )
    report["bids"] = first["bids"]
    report["units"] = first["units"]
    report["units_ok"] = first["units_ok"] if same else 0


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end(
    jobs: List[Dict[str, Any]], setups: List[float]
) -> Dict[str, Dict[str, Any]]:
    """Medians over the jobs of a run; ``ok_frac`` pools their units."""
    def median(key: str) -> float:
        return statistics.median(job[key] for job in jobs)

    units = sum(job["units"] for job in jobs)
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "wall_s": _metric(median("wall_s"), "s"),
        "cpu_s": _metric(median("cpu_s"), "s"),
        "peak_rss_mb": _metric(median("peak_rss_mb"), "MB"),
        "bids_per_s": _metric(
            statistics.median(job["bids"] / job["wall_s"] for job in jobs), "1/s"
        ),
        "ok_frac": _metric(
            sum(job["units_ok"] for job in jobs) / units if units else 0.0,
            "ratio",
        ),
    }


def per_layer(
    traced: List[Dict[str, Any]], plain: List[Dict[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    """Medians over the traced jobs, reconciled against untraced wall time."""
    def value(job: Dict[str, Any], source: str, key: str) -> float:
        if source == "job":
            return job[key]
        return job["layers"][source].get(key, 0)

    metrics = {
        name: _metric(
            statistics.median(value(job, source, key) for job in traced), unit
        )
        for name, (source, key, unit) in LAYER_METRICS.items()
    }
    offline_winners = statistics.median(
        job["layers"]["counts"].get("mechanisms.offline.winners", 0)
        for job in traced
    )
    repairs = metrics["matching.repair.calls"]["value"]
    metrics["matching.repairs_per_winner"] = _metric(
        repairs / offline_winners if offline_winners else 0.0, "ratio"
    )
    traced_wall = statistics.median(job["wall_s"] for job in traced)
    plain_wall = statistics.median(job["wall_s"] for job in plain)
    metrics["trace.wall_s"] = _metric(traced_wall, "s")
    metrics["trace.unattributed_s"] = _metric(
        statistics.median(
            job["wall_s"] - job["layers"]["attributed_s"] for job in traced
        ),
        "s",
    )
    metrics["trace.overhead_frac"] = _metric(traced_wall / plain_wall - 1.0, "ratio")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro sources under {ROOT / 'src'}; run from a "
            f"full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from "
            f"{sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    env = child_env()
    host = host_info()
    _compile_sources(env, deadline)

    # Traced jobs run in one process (wrappers do not reach pool workers);
    # a traced run's untraced jobs match them, so overhead compares alike.
    workers = 1 if args.trace else WORKLOADS[args.workload].workers

    def job(trace: bool, mode: str = "digest") -> Dict[str, Any]:
        return run_job(
            args.workload, args.seed, trace, workers, mode, env, deadline
        )

    first = job(False, "full")
    plain: List[Dict[str, Any]] = [first]
    traced: List[Dict[str, Any]] = []
    # Seconds spent running jobs, not checking them.
    measured = first["elapsed_s"] - first["check_s"]
    while True:
        if args.trace:
            traced.append(job(True))
            measured += traced[-1]["elapsed_s"]
        # The latest job's length predicts the next one's.
        step = (1 + args.trace) * (measured / len(plain + traced))
        if measured + step > args.seconds:
            break
        plain.append(job(False))
        measured += plain[-1]["elapsed_s"]
    probes = 0 if args.trace else SETUPS - len(plain)
    setups = [report["setup_s"] for report in plain] + [
        job(False, "setup")["setup_s"] for _ in range(probes)
    ]

    jobs = plain + traced
    for report in jobs[1:]:
        repeat_of(first, report)
    attempted = sum(report["units"] for report in jobs)
    failed = attempted - sum(report["units_ok"] for report in jobs)
    correct = failed == 0
    if args.trace:
        metrics = per_layer(traced, plain)
        unattributed = metrics["trace.unattributed_s"]["value"]
        share = unattributed / metrics["trace.wall_s"]["value"]
        correct = correct and abs(share) <= MAX_UNATTRIBUTED_SHARE
    else:
        metrics = end_to_end(plain, setups)

    host["loadavg_after"] = list(os.getloadavg())
    host["job_wall_s"] = [report["wall_s"] for report in plain]
    host["setup_s"] = setups
    host["digest_checked"] = first["digest_checked"]
    workload = WORKLOADS[args.workload]
    host["command"] = workload.command.replace("SEED", str(args.seed))
    host["layers"] = list(workload.layers)
    print(json.dumps({"host": host}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
