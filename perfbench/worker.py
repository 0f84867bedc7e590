"""One repetition of one workload, in a fresh interpreter.

Started by ``run.py`` from the root of a checkout, with ``src`` on the
import path.  Prints one JSON object on its last stdout line.

  --mode setup   set up only and report the set-up time
  --mode timed   set up, then run the timed section with tracing off
  --mode traced  the same with every traced function wrapped; also reports
                 per-function calls, self times and counts, and writes the
                 spans to --trace-out
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time


def digest(value):
    if not isinstance(value, str):
        value = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(value.encode()).hexdigest()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"),
                        required=True)
    # the parent's perf_counter() just before it started this interpreter;
    # on Linux it reads the system-wide monotonic clock
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    import stargroup

    src = os.path.join(os.getcwd(), "src")
    if os.path.commonpath([os.path.realpath(stargroup.__file__),
                           os.path.realpath(src)]) != os.path.realpath(src):
        sys.exit(f"stargroup imported from {stargroup.__file__}, "
                 f"not from {src}")
    import workloads

    setup, run = workloads.WORKLOADS[args.workload]
    state = setup(args.seed)
    result = {"setup_s": time.perf_counter() - args.t0}
    if args.mode == "setup":
        print(json.dumps(result))
        return

    tracer = None
    if args.mode == "traced":
        from tracer import ROOT, Tracer
        tracer = Tracer()
        tracer.install(stargroup)
        root = tracer.enter(tracer.name_id(ROOT))
    started = time.perf_counter()
    outcome = run(state)
    wall = time.perf_counter() - started
    if tracer is not None:
        tracer.leave(root)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result.update(
        wall_s=wall,
        items=outcome.items,
        failed=outcome.failed,
        latencies=outcome.latencies,
        peak_rss_mb=peak_kb / 1024,
        digests={part: digest(value)
                 for part, value in outcome.summaries.items()},
    )
    if tracer is not None:
        result["trace"] = tracer.report(outcome.items)
        tracer.dump(args.trace_out, {"workload": args.workload,
                                     "seed": args.seed,
                                     "python": sys.version.split()[0]})
    print(json.dumps(result))


if __name__ == "__main__":
    main()
