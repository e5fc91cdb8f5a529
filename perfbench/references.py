"""Regenerate ``references.json``: result digests the benchmark checks against.

    python3 perfbench/references.py --seeds 0 1 2 3 4 5 6 7 8 9 10 2014

Runs one fully checked job per digest group (workloads that must produce
identical results share a group) and seed, and records the sha256 of the
pickled result.  Only outputs that passed every invariant check are
recorded.  Seeds left out of the table (a held-out seed) are checked by the
invariants alone.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()

    env = run.child_env()
    deadline = time.monotonic() + 3600.0
    groups = {}
    for workload in WORKLOADS.values():
        groups.setdefault(workload.reference, workload)
    table = {}
    for group, workload in sorted(groups.items()):
        table[group] = {}
        for seed in args.seeds:
            report = run.run_job(
                workload.name, seed, False, workload.workers, "full", env, deadline
            )
            if report["units_ok"] != report["units"]:
                print(f"{group} seed {seed}: checks failed", file=sys.stderr)
                return 1
            table[group][str(seed)] = report["digest"]
            print(f"{group} seed {seed}: {report['digest']}", flush=True)
    (HERE / "references.json").write_text(
        json.dumps(table, indent=1, sort_keys=True) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
