"""Benchmark for stargroup.

    python3 perfbench/run.py --workload {verify,presheaves} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout.  Every repetition runs in a fresh
interpreter (``worker.py``), because the package's ``lru_cache``s are keyed
on whole tables and would turn in-process repeats into cache hits.

--trace 0 runs timed repetitions until S seconds have passed and reports the
end-to-end metrics, each the median over the repetitions (the item latency
percentile is taken within each repetition first), and the median set-up
time over extra set-up-only interpreters and the timed ones.

--trace 1 runs traced, untraced and traced repetitions, then more of the
same until S seconds have passed, and reports the per-layer metrics: calls
and self time of each traced function, self time per module, work counts,
cache hit ratios, and the tracing overhead as traced minus untraced wall
time.  It checks that the self times add up to the traced wall time and
that every count repeats exactly across the traced repetitions.  Spans go
to perfbench/out/.

Every repetition's outputs are digested and compared with the digests in
expected.json, which record.py wrote at the baseline commit.  The last
stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}; the line before it records the Python version and the
processor count.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import time

from tracer import per_layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("verify", "presheaves")
SETUP_ONLY_RUNS = 5
TRACE_CYCLE = ("traced", "timed", "traced")
# a repetition that would end after this many seconds is not started
DEADLINE_S = 150
REPETITION_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def spawn(workload, seed, mode, trace_out=None):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"),
               PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env,
                          capture_output=True, text=True,
                          timeout=REPETITION_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{mode} repetition of {workload} failed:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def item_tail(latencies):
    """Nearest-rank 95th percentile of one repetition's item latencies when
    at least 10 items lie beyond it, else their median (verify has one item
    a repetition, the whole command)."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = math.ceil(0.95 * n)
    return ordered[rank - 1 if n - rank >= 10 else math.ceil(n / 2) - 1]


def gate(workload, reps):
    """True when every repetition's output digests equal the recorded ones."""
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)[workload]
    return all(rep["digests"] == expected for rep in reps)


def run_repetitions(workload, seed, seconds, cycle):
    """Repetitions in the modes of ``cycle``, repeated until ``seconds`` have
    passed and the cycle has run once; no repetition starts that would
    likely end after DEADLINE_S."""
    started = time.perf_counter()
    reps, longest = [], 0.0
    for k in itertools.count():
        elapsed = time.perf_counter() - started
        if k >= len(cycle) and (elapsed >= seconds
                                or elapsed + longest > DEADLINE_S):
            return reps
        mode = cycle[k % len(cycle)]
        out = None
        if mode == "traced":
            os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
            out = os.path.join(HERE, "out", f"trace-{workload}-{k}.json")
        t = time.perf_counter()
        rep = spawn(workload, seed, mode, out)
        longest = max(longest, time.perf_counter() - t)
        rep["mode"] = mode
        reps.append(rep)


def end_to_end(workload, seed, seconds):
    setups = [spawn(workload, seed, "setup")["setup_s"]
              for _ in range(SETUP_ONLY_RUNS)]
    reps = run_repetitions(workload, seed, seconds, ("timed",))
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
        "items_per_s": (statistics.median(r["items"] / r["wall_s"]
                                          for r in reps), "1/s"),
        "item_p95_ms": (1000 * statistics.median(item_tail(r["latencies"])
                                                  for r in reps), "ms"),
        "setup_s": (statistics.median(setups + [r["setup_s"] for r in reps]),
                    "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps),
                        "MB"),
    }
    return reps, metrics


def per_layer(workload, seed, seconds):
    reps = run_repetitions(workload, seed, seconds, TRACE_CYCLE)
    traced = [r["trace"] for r in reps if r["mode"] == "traced"]
    untraced = [r["wall_s"] for r in reps if r["mode"] == "timed"]
    counts = traced[0]["counts"]
    for t in traced:
        if abs(t["self_total"] - t["wall_s"]) > 1e-6 + 1e-9 * t["spans"]:
            raise BenchError(f"self times add up to {t['self_total']} s, "
                             f"traced wall time is {t['wall_s']} s")
        if t["counts"] != counts:
            changed = sorted(k for k in counts if t["counts"][k] != counts[k])
            raise BenchError(f"counts differ between traced runs: {changed}")
    traced_wall = statistics.median(t["wall_s"] for t in traced)
    metrics = {}
    for name, unit in per_layer_metrics().items():
        if name in counts:
            metrics[name] = (counts[name], unit)
        elif name in traced[0]["self_s"]:
            metrics[name] = (statistics.median(t["self_s"][name]
                                               for t in traced), unit)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - statistics.median(untraced),
                                   "s")
    return reps, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "stargroup", "__init__.py")):
        print("run from the root of a stargroup checkout: src/stargroup "
              "is missing", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    try:
        measure = per_layer if args.trace else end_to_end
        reps, metrics = measure(args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    mismatch = {m["name"] for m in declared} ^ set(metrics)
    if mismatch:
        print(f"metrics not matching BENCHMARK.json: {sorted(mismatch)}",
              file=sys.stderr)
        return 1

    print(json.dumps({"python": sys.version.split()[0],
                      "nproc": len(os.sched_getaffinity(0)),
                      "repetitions": len(reps)}))
    print(json.dumps({
        "correct": gate(args.workload, reps),
        "attempted": sum(r["items"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
