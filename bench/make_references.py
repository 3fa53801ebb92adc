#!/usr/bin/env python3
"""Write references.json: the outputs each workload must reproduce.

    python3 bench/make_references.py

It stores, for each of the REFERENCE_SEEDS seeds, the battery verdicts
and the maximum-principle tallies, and once the scenario summary fields
and CSV rows.  It runs with one BLAS thread, as the benchmark runs the
seeded workloads, and takes about an hour on a 2-core machine.  It prints
every red verdict it records: the benchmark treats a recorded verdict as
the program's known output at that seed.  Regenerate the file only in a
change whose purpose is to change these outputs, and say so there.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

from run import THREAD_VARS  # noqa: E402

os.environ.update({var: "1" for var in THREAD_VARS})

import workloads  # noqa: E402


def reference_for(workload, seed: int, out_dir: str) -> dict:
    inputs = workload.prepare(ROOT, seed, out_dir)
    summary = workload.collect(inputs, workload.run_pass(inputs))
    outcome = workload.check(summary, None)
    for problem in outcome.problems:
        print(f"{workload.name} seed {seed}: recorded as known: {problem}")
    return workload.reference_of(summary)


def main() -> int:
    refs = {}
    with tempfile.TemporaryDirectory(prefix=".out-", dir=BENCH_DIR) as out_dir:
        for cls in (workloads.Battery, workloads.MaxPrinciple):
            refs[cls.name] = {
                str(seed): reference_for(cls(), seed, out_dir)
                for seed in range(workloads.REFERENCE_SEEDS)
            }
        refs["scenarios"] = reference_for(workloads.Scenarios(), 0, out_dir)
    with open(workloads.REFERENCES_PATH, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
