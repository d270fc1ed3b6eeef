#!/usr/bin/env python3
"""The stationflow benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from `src/`.
NAME is one of scale-eager, rewrite-mix, verify, replay, or `all` for each
in turn.  Every repetition runs in a fresh process (see worker.py), one at a
time, so prover caches start cold and peak RSS is per workload.

--trace 0 repeats the workload for about S seconds and reports the medians
of the end-to-end metrics.  --trace 1 runs it once untraced and twice under
the layer tracer (layers.py), checks that all three reach the same steps
and terminal digests and that the two traced passes count exactly the same,
and reports the per-layer metrics.

Human-readable lines go first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The exit
code is 1 when any check failed and 2 when the benchmark cannot run here.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scale-eager", "rewrite-mix", "verify", "replay")
MIN_REPS = 3
SETUP_ONLY = 8  # extra set-up samples per run, from processes that stop there
DEADLINE_S = 170  # a run, whatever its --seconds, ends before this

END_TO_END = {"setup_s": "s", "wall_s": "s", "us_per_step": "us",
              "steps": "count", "peak_rss_mb": "MB"}
# printed for the workloads they apply to; not among the JSON metrics
# because they do not apply to every workload
PRINTED_ONLY = {"step_cost_growth": "scale-eager", "trace_overhead": "replay"}


class WorkerFailed(Exception):
    pass


class Runner:
    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S

    def spawn(self, mode: str) -> dict:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
               self.workload, "--seed", str(self.seed), "--mode", mode]
        timeout = max(self.deadline - time.monotonic(), 1.0)
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise WorkerFailed(f"{mode} repetition exceeded the deadline")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise WorkerFailed(f"{mode} repetition exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-2000:]}")
        return json.loads(lines[-1])


class Tally:
    """Checks attempted and the messages of those that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def add_rep(self, rep: dict) -> None:
        self.attempted += rep["checks"]
        self.failures.extend(rep["failures"])

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def tail(values: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples above it, or the
    maximum when there are too few samples for one."""
    n = len(values)
    if n < 11:
        return "max", max(values)
    i = n - 11  # exactly ten samples lie above this one
    return f"p{100 * (i + 1) // n}", sorted(values)[i]


def composed_wall(reps: list[dict]) -> float:
    """Sum over the segments of each segment's median across repetitions.

    Repetitions of one seed run the same segments in the same order, so a
    burst of machine noise spoils one segment of one repetition and the
    median drops it; the median of whole-repetition sums keeps a share of
    every burst."""
    if len({len(r["segments"]) for r in reps}) != 1:
        return statistics.median(r["wall_s"] for r in reps)
    return sum(statistics.median(seg) for seg in zip(*(r["segments"] for r in reps)))


def measure(runner: Runner, seconds: float, tally: Tally):
    """Repeat the workload for about `seconds`; the end-to-end metrics and
    the printed-only figures."""
    start = time.monotonic()
    setups = [runner.spawn("setup") for _ in range(SETUP_ONLY)]
    reps: list[dict] = []
    while True:
        t0 = time.monotonic()
        rep = runner.spawn("plain")
        took = time.monotonic() - t0
        tally.add_rep(rep)
        if reps:
            tally.check((rep["steps"], rep["digests"])
                        == (reps[0]["steps"], reps[0]["digests"]),
                        f"repetition {len(reps)} differs from the first in "
                        f"steps or terminal digests")
        reps.append(rep)
        if len(reps) >= MIN_REPS and time.monotonic() - start + took > seconds:
            break
        if time.monotonic() + took > runner.deadline:
            break
    walls = [r["wall_s"] for r in reps]
    wall = composed_wall(reps)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in setups + reps),
        "wall_s": wall,
        "us_per_step": wall * 1e6 / reps[0]["steps"],
        "steps": reps[0]["steps"],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    printed = {k: statistics.median(r["extra"][k] for r in reps)
               for k in PRINTED_ONLY if k in reps[0]["extra"]}
    printed["setup_raw_s"] = statistics.median(r["setup_raw_s"]
                                               for r in setups + reps)
    printed["wall_raw_s"] = statistics.median(r["wall_raw_s"] for r in reps)
    printed["wall_s_tail"] = tail(walls)[1]
    printed["repetitions"] = len(walls)
    return metrics, printed, tail(walls)[0]


def _is_count(name: str) -> bool:
    return not (name.endswith("_s") or name in ("engine.redex_use",
                                                 "engine.load_share",
                                                 "tlo.candidate_use"))


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith("bench.") or not _is_count(name):
        return "ratio"
    return {"parser.source_bytes": "bytes",
            "tlo.peak_op_nodes": "nodes"}.get(name, "count")


def traced(runner: Runner, tally: Tally) -> dict:
    """One untraced and two traced passes; per-layer metrics."""
    plain = runner.spawn("plain")
    passes = [runner.spawn("traced"), runner.spawn("traced")]
    tally.add_rep(plain)
    for k, p in enumerate(passes):
        tally.add_rep(p)
        tally.check((p["steps"], p["digests"])
                    == (plain["steps"], plain["digests"]),
                    f"traced pass {k} differs from the untraced pass in "
                    f"steps or terminal digests")
    a, b = (p["layers"] for p in passes)
    differ = [n for n in a if _is_count(n) and a[n] != b[n]]
    tally.check(not differ, f"counts differ between traced passes: {differ}")
    metrics = {n: (a[n] + b[n]) / 2 if n.endswith("_s") else a[n] for n in a}
    metrics["bench.layer_trace_overhead"] = (
        (passes[0]["wall_s"] + passes[1]["wall_s"]) / 2 / plain["wall_s"])
    for k in PRINTED_ONLY:
        metrics[f"bench.{k}"] = plain["extra"].get(k, 0.0)
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """Measure one workload and print its lines; return its JSON result and,
    with `trace` off, the printed-only figures."""
    runner = Runner(workload, seed)
    tally = Tally()
    printed: dict[str, float] = {}
    try:
        if trace:
            metrics = traced(runner, tally)
            for name, value in metrics.items():
                print(f"{workload}  {name:36} {value:14.6g} {layer_unit(name)}")
            units = {n: layer_unit(n) for n in metrics}
        else:
            metrics, printed, tail_name = measure(runner, seconds, tally)
            for name, value in metrics.items():
                print(f"{workload}  {name:18} {value:14.6g} {END_TO_END[name]}")
            print(f"{workload}  {'wall_s tail':18} {printed['wall_s_tail']:14.6g} s "
                  f"({tail_name} of {printed['repetitions']} repetitions)")
            for name in ("setup_raw_s", "wall_raw_s"):
                print(f"{workload}  {name:18} {printed[name]:14.6g} s "
                      f"(raw seconds, not normalized)")
            for name, where in PRINTED_ONLY.items():
                value = f"{printed[name]:14.6g} ratio" if name in printed \
                    else f"{'n/a':>14} (only on {where})"
                print(f"{workload}  {name:18} {value}")
            units = END_TO_END
    except WorkerFailed as ex:
        tally.check(False, str(ex))
        metrics, units = {}, {}
    rate = len(tally.failures) / max(tally.attempted, 1)
    print(f"{workload}  {'fail_rate':18} {rate:14.6g} ratio "
          f"({len(tally.failures)} of {tally.attempted} checks)")
    for msg in tally.failures[:20]:
        print(f"{workload}  FAILED: {msg}")
    result = {"correct": not tally.failures, "attempted": max(tally.attempted, 1),
              "failed": len(tally.failures),
              "metrics": {n: {"value": v, "unit": units[n]}
                          for n, v in metrics.items()}}
    return result, printed


def cannot_run() -> str | None:
    """Why the benchmark cannot run in this checkout, or None.  Also imports
    the package once, which compiles it, so no repetition pays for that."""
    if not (ROOT / "src" / "stationflow" / "__init__.py").is_file():
        return f"no stationflow sources under {ROOT / 'src'}"
    try:
        Runner(WORKLOADS[0], 0).spawn("setup")
    except WorkerFailed as ex:
        return f"cannot import stationflow: {ex}"
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    why = cannot_run()
    if why:
        print(why, file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace))[0]
               for w in names}
    if args.workload == "all":
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}/{n}": m for w, r in results.items()
                             for n, m in r["metrics"].items()}}
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
