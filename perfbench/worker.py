"""One repetition of one workload, in its own process.

    python3 perfbench/worker.py --workload NAME --seed N --mode plain|traced|setup

Prints one JSON object on its last line of standard output, with times in
reference seconds and in raw seconds (see refclock.py).  `plain` is the
untraced run the end-to-end metrics come from; `traced` installs the layer
tracer first and adds its metrics; `setup` stops after the set-up and
reports only its time.  The package is imported from `src/` of the checkout
that holds this file, never from elsewhere.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

from refclock import RefClock

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("plain", "traced", "setup"), required=True)
    args = ap.parse_args()

    clock = RefClock()
    tracer = probe = None
    try:
        with clock.measure() as setup_span:
            sys.path.insert(0, str(ROOT / "src"))
            import stationflow
            if (Path(stationflow.__file__).resolve().parent
                    != ROOT / "src" / "stationflow"):
                print(f"stationflow imported from {stationflow.__file__}, "
                      f"not from {ROOT / 'src'}", file=sys.stderr)
                return 2
            import workloads
            setup, run = workloads.WORKLOADS[args.workload]
            if args.mode == "traced":
                import layers
                tracer = layers.Tracer()
                tracer.install()
            probe = workloads.Probe()
            probe.install()
            prepared = setup(args.seed)
        if args.mode != "setup":
            rep = run(prepared, probe, clock)
    finally:
        if probe is not None:
            probe.restore()
        if tracer is not None:
            tracer.restore()
    out = {"setup_s": setup_span.ref_s, "setup_raw_s": setup_span.raw_s}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0
    out |= {
        "wall_s": clock.ref_s,
        "wall_raw_s": clock.raw_s,
        "segments": clock.segments,
        "steps": rep.steps,
        "digests": rep.digests,
        "checks": rep.checks,
        "failures": rep.failures,
        "extra": rep.extra,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
