"""One timed job of one workload, in a fresh process.

Usage (normally spawned by ``run.py``)::

    python3 perfbench/job.py --workload NAME --seed N --trace 0|1 --workers W \
        --spawned MONOTONIC --workdir DIR [--check full|digest | --setup-only]

Imports and input construction happen before the timed region; checks run
after it.  Prints one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
HERE = pathlib.Path(__file__).resolve().parent


def _cpu_seconds(usage: resource.struct_rusage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--workdir", type=pathlib.Path, required=True)
    parser.add_argument(
        "--check",
        choices=("full", "digest"),
        default="full",
        help="full output checks, or only the digests a repeat is compared by",
    )
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="stop at the first timed call and report only the set-up time",
    )
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    # Import every layer up front: module import is set-up, not job time.
    import repro.analysis.sanitizer  # noqa: F401
    import repro.auction.multi_round  # noqa: F401
    import repro.durability  # noqa: F401
    import repro.experiments.figures  # noqa: F401
    import repro.experiments.runner  # noqa: F401
    import repro.experiments.sharding  # noqa: F401
    import repro.faults.recovery  # noqa: F401
    import layers
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workers = args.workers
    tracer = None
    if args.trace:
        tracer = layers.LayerTracer()
        layers.install(tracer)

    before = resource.getrusage(resource.RUSAGE_SELF)
    first_call = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_s": first_call - args.spawned}))
        return 0
    start = time.perf_counter()
    result = workload.run(args.seed, args.workdir, workers)
    wall_s = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    if tracer is not None:
        tracer.uninstall()

    cpu_s = _cpu_seconds(after) - _cpu_seconds(before) + _cpu_seconds(children)
    peak_rss_mb = max(after.ru_maxrss, children.ru_maxrss) / 1024.0

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "workers": workers,
        "setup_s": first_call - args.spawned,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "digest": workloads.digest(result),
        "artifacts": workloads.tree_digest(args.workdir),
    }
    if args.check == "full":
        check_start = time.perf_counter()
        checked = workload.check(result, args.seed, args.workdir)
        references = json.loads((HERE / "references.json").read_text())
        expected = references.get(workload.reference, {}).get(str(args.seed))
        digest_ok = expected is None or expected == report["digest"]
        report.update(
            bids=checked.bids,
            units=len(checked.units),
            units_ok=sum(1 for ok in checked.units if ok and digest_ok),
            digest_checked=expected is not None,
            check_s=time.perf_counter() - check_start,
        )
    if tracer is not None:
        report["layers"] = {
            "self_s": tracer.self_s,
            "calls": tracer.calls,
            "counts": tracer.counts,
            "attributed_s": tracer.attributed_s(),
        }
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
