"""Record the output digests that the benchmark's output gate compares with.

Run from the root of a checkout of the baseline commit (the one whose
outputs count as correct):

    python3 perfbench/record.py

Writes perfbench/expected.json, the digest of each workload's outputs at
seed 0.  The outputs digested do not depend on the seed.
"""

from __future__ import annotations

import json
import os

from run import HERE, WORKLOADS, spawn


def main():
    expected = {}
    for workload in WORKLOADS:
        rep = spawn(workload, 0, "timed")
        if rep["failed"]:
            raise SystemExit(f"{workload}: {rep['failed']} items failed")
        expected[workload] = rep["digests"]
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
