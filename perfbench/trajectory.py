#!/usr/bin/env python3
"""Run the benchmark over ten seeds and append one point to the trajectory.

    python3 perfbench/trajectory.py --label NAME

For every workload this runs the untraced benchmark once per seed (1-10)
for `run_seconds` from BENCHMARK.json, and the layer-traced pass once, and
appends to perfbench/trajectory.json the machine, the commit, the seeds,
and per metric its ten values, median, quartiles and spread (quartile
distance over median): every end-to-end metric, and the figures run.py
only prints (`step_cost_growth`, `trace_overhead`, the `wall_s` tail and
the raw seconds), plus the per-layer metrics of the traced run.  Run it
from the root of a checkout.  A change that claims a gain quotes the
points of its parent and of itself.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import END_TO_END, WORKLOADS, cannot_run, run_workload  # noqa: E402

SEEDS = list(range(1, 11))


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version()}


def commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    args = ap.parse_args()

    why = cannot_run()
    if why:
        raise SystemExit(why)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    point = {"label": args.label, "commit": commit(),
             "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
             "machine": machine(), "run_seconds": seconds,
             "seeds": SEEDS, "workloads": {}}
    ok = True
    for w in WORKLOADS:
        runs = [run_workload(w, s, seconds, False) for s in SEEDS]
        traced, _ = run_workload(w, SEEDS[0], seconds, True)
        results = [r for r, _ in runs]
        ok = ok and all(r["correct"] for r in results) and traced["correct"]
        metrics = {n: summary([r["metrics"][n]["value"] for r in results])
                   for n in END_TO_END if all(n in r["metrics"] for r in results)}
        printed = {n: summary([p[n] for _, p in runs])
                   for n in runs[0][1] if all(n in p for _, p in runs)}
        point["workloads"][w] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": metrics,
            "printed": printed,
            "per_layer": {n: m["value"] for n, m in traced["metrics"].items()},
        }
    for w, d in point["workloads"].items():
        for n, m in (d["end_to_end"] | d["printed"]).items():
            print(f"{w:12} {n:18} median {m['median']:12.6g}  "
                  f"spread {m['spread']:.4f}")
    path = HERE / "trajectory.json"
    points = json.loads(path.read_text()) if path.exists() else []
    points.append(point)
    path.write_text(json.dumps(points, indent=1) + "\n")
    print(f"appended point {args.label!r} to {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
