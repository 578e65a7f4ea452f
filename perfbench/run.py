#!/usr/bin/env python3
"""Benchmark of the bigbayes sampler suite on one workload.

    python3 perfbench/run.py --workload logistic-1e3 --seed 1 --seconds 50 --trace 0

Run from the repository root. Runs eight worker processes one after
another, each for an eighth of ``--seconds``. Each worker generates the
workload's data from the seed, times the library set-up, and runs every
sampler in chunks (one public driver call each), interleaved with chunks
of the benchmark's reference kernel. This process then checks every
chunk's draws and prints a provenance line and then, as the last line,
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced chunks and reports the per-layer metrics. The load is
a closed loop: one process and one thread at a time, each sampler's steps
back to back.
"""

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bigbayes" / "__init__.py").is_file():
        print(f"bigbayes sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from bench import run_workload
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    checks, metrics, provenance = run_workload(WORKLOADS[args.workload], args.seed,
                                               args.seconds, bool(args.trace))
    for error in provenance["errors"]:
        print(error, file=sys.stderr)
    failed = provenance["failed_checks"]
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"correct": not failed, "attempted": len(checks),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # numpy reads these when it loads OpenBLAS, so they are set before any import
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
