#!/usr/bin/env python3
"""Append one point to the BENCH trajectory from the result files of runs.

    python3 perfbench/trajectory.py LABEL

Reads every result file that ``run.py`` wrote under
``.perfbench_run/results/``, groups them by workload, and appends to
``perfbench/BENCH_trajectory.json`` one point: the label, the environment,
and per workload the seeds, request totals and, for every metric, the
median and quartiles across seeds. Clear the results directory before the
runs that make up a point.
"""

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE.parent / ".perfbench_run" / "results"
TRAJECTORY = HERE / "BENCH_trajectory.json"


def summarize(results):
    values = {}
    for result in results:
        for name, metric in result["metrics"].items():
            values.setdefault(name, (metric["unit"], []))[1].append(metric["value"])
    summary = {}
    for name, (unit, vals) in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        summary[name] = {"unit": unit, "median": statistics.median(vals), "q1": q1, "q3": q3,
                         "runs": len(vals)}
    return summary


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    results = [json.loads(p.read_text()) for p in sorted(RESULTS.glob("*.json"))]
    if not results:
        print(f"trajectory: no result files under {RESULTS}", file=sys.stderr)
        return 1
    workloads = {}
    for result in results:
        workloads.setdefault(result["workload"], []).append(result)
    point = {
        "label": argv[0],
        "environment": {k: v for k, v in results[0]["environment"].items() if k != "seed"},
        "workloads": {
            name: {
                "seeds": sorted({r["environment"]["seed"] for r in runs}),
                "correct": all(r["correct"] for r in runs),
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "metrics": summarize(runs),
            }
            for name, runs in sorted(workloads.items())
        },
    }
    trajectory = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    trajectory.append(point)
    TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n")
    print(f"appended point {len(trajectory)} ({argv[0]!r}) to {TRAJECTORY}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
