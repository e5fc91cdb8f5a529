"""Steadiness evidence: interleaved batches of runs, and the bounds they imply.

Record a batch (every workload once per set, round-robin, so host drift hits
all workloads alike; set ``k`` uses seed ``first_seed + k``)::

    python3 perfbench/steadiness.py record --label a --sets 10 \
        --out perfbench/evidence/batch-a.json

Summarise one or more batches taken at different times::

    python3 perfbench/steadiness.py summarize perfbench/evidence/batch-*.json

For every workload and end-to-end metric the summary gives each batch's
median, quartiles and spread (quartile distance over median), the shift of
each batch's median from the first batch's, and the bound both imply.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
#: Bounds never go below this share (measurement grain) nor above the cap.
BOUND_FLOOR = 0.01
BOUND_CAP = 0.25


def _benchmark() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def record(args: argparse.Namespace) -> int:
    spec = _benchmark()
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    batch: Dict[str, Any] = {
        "label": args.label,
        "run_seconds": spec["run_seconds"],
        "runs": [],
    }
    for index in range(args.sets):
        seed = args.first_seed + index
        for name in names:
            command = spec["command"] + [
                "--workload", name,
                "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]),
                "--trace", "0",
            ]
            started = time.time()
            completed = subprocess.run(
                command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True
            )
            lines = completed.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            host = json.loads(lines[-2])["host"] if len(lines) > 1 else None
            batch["runs"].append(
                {
                    "set": index,
                    "workload": name,
                    "seed": seed,
                    "started": started,
                    "elapsed_s": time.time() - started,
                    "host": host,
                    "result": result,
                }
            )
            out.write_text(json.dumps(batch, indent=1, sort_keys=True) + "\n")
            print(
                f"set {index} {name} seed {seed}: "
                + " ".join(
                    f"{key}={metric['value']:.4g}"
                    for key, metric in result["metrics"].items()
                ),
                flush=True,
            )
    return 0


def spread(values: List[float]) -> float:
    """Quartile distance over median, as the acceptance rule computes it."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def summarize(args: argparse.Namespace) -> int:
    spec = _benchmark()
    batches = [json.loads(pathlib.Path(path).read_text()) for path in args.batches]
    summary: Dict[str, Any] = {
        "batches": [batch["label"] for batch in batches],
        "workloads": {},
    }
    for workload in spec["workloads"]:
        name = workload["name"]
        per_metric: Dict[str, Any] = {}
        for metric in spec["end_to_end"]:
            key = metric["name"]
            rows = []
            for batch in batches:
                values = [
                    run["result"]["metrics"][key]["value"]
                    for run in batch["runs"]
                    if run["workload"] == name
                ]
                if len(values) < 2:
                    continue
                q1, median, q3 = statistics.quantiles(values, n=4)
                rows.append(
                    {
                        "batch": batch["label"],
                        "n": len(values),
                        "median": median,
                        "q1": q1,
                        "q3": q3,
                        "spread": spread(values),
                    }
                )
            if not rows:
                continue
            base = rows[0]["median"]
            worse = -1.0 if metric["better"] == "higher" else 1.0
            for row in rows:
                row["shift"] = worse * (row["median"] - base) / base if base else 0.0
            max_spread = max(row["spread"] for row in rows)
            max_shift = max(abs(row["shift"]) for row in rows)
            implied = min(BOUND_CAP, max(BOUND_FLOOR, 3 * max_spread, 2 * max_shift))
            per_metric[key] = {
                "rows": rows,
                "max_spread": max_spread,
                "max_shift": max_shift,
                "implied_bound": implied,
                "bound": metric["bound"],
            }
        summary["workloads"][name] = per_metric
    text = json.dumps(summary, indent=1, sort_keys=True)
    if args.out:
        pathlib.Path(args.out).write_text(text + "\n")
    for name, per_metric in summary["workloads"].items():
        for key, row in per_metric.items():
            medians = " ".join(f"{r['median']:.4g}" for r in row["rows"])
            print(
                f"{name:18s} {key:12s} medians {medians:28s} "
                f"spread {row['max_spread']:.3f} shift {row['max_shift']:.3f} "
                f"implied {row['implied_bound']:.3f} bound {row['bound']}"
            )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run one interleaved batch")
    rec.add_argument("--label", required=True)
    rec.add_argument("--sets", type=int, default=10)
    rec.add_argument("--first-seed", type=int, default=1)
    rec.add_argument("--workloads", nargs="*", default=None)
    rec.add_argument("--out", required=True)
    rec.set_defaults(func=record)
    summ = sub.add_parser("summarize", help="medians, spreads and bounds")
    summ.add_argument("batches", nargs="+")
    summ.add_argument("--out", default=None)
    summ.set_defaults(func=summarize)
    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
