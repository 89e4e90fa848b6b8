#!/usr/bin/env python3
"""Seconds and peak memory of the Cesaro walk on H(R)/H(Z).

Times `nilmanifold.cesaro_equidistribution` on the benchmark's law (atoms
e1, e2, e3 with weights 2/5, 3/10, 3/10, pushed forward by the matrix with
last row (sqrt 2, sqrt 3, 0)) on an 8^3 cell grid, at three shapes:

  (replicas, steps) = (100, 8000)    the benchmark's quotient-small-batch
                      (10, 20000)    few replicas, many steps
                      (1000, 2000)   many replicas, few steps

with checkpoints at steps/16, steps/4 and steps.  Each shape runs in a
fresh process: one warm-up call, then REPEATS timed calls, of which the
file keeps the median.  The process's peak resident memory and a SHA-256
of the report (so two source trees can be seen to agree) are kept too.
Results go into BENCH_nilmanifold.json in the working directory under a
label:

    python scripts/bench_nilmanifold.py --src /path/to/old/src --label parent
    python scripts/bench_nilmanifold.py --label change

With both "parent" and "change" present, the file also holds the
per-shape ratio parent/change of the medians.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

SHAPES = [(100, 8000), (10, 20_000), (1000, 2000)]
CELLS = 8
SEED = 3
REPEATS = 5
OUT = "BENCH_nilmanifold.json"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def run_shape(replicas: int, steps: int) -> dict:
    """Time one shape in this process; nilwalk must be importable."""
    from fractions import Fraction

    import numpy as np

    from nilwalk.algebra import heisenberg3
    from nilwalk.measures import AffineImage, AtomicMeasure
    from nilwalk.nilmanifold import cesaro_equidistribution

    base = AtomicMeasure(heisenberg3(), [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
                         [Fraction(2, 5), Fraction(3, 10), Fraction(3, 10)])
    matrix = np.array([[1.0, 0, 0], [0, 1.0, 0], [math.sqrt(2.0), math.sqrt(3.0), 0.0]])
    measure = AffineImage(base, matrix, np.zeros(3))
    checkpoints = [steps // 16, steps // 4, steps]

    def call():
        return cesaro_equidistribution(measure, steps, replicas, cells_per_axis=CELLS,
                                       seed=SEED, checkpoints=checkpoints)

    report = call()
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    return {"replicas": replicas, "steps": steps, "median_s": statistics.median(times),
            "times_s": times, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "final_discrepancy": report["checkpoints"][steps]["discrepancy"],
            "report_sha256": digest}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"),
                    help="source directory to import nilwalk from (default: this checkout)")
    ap.add_argument("--label", default="change")
    ap.add_argument("--shape", help=argparse.SUPPRESS)  # "replicas,steps": one child run
    args = ap.parse_args()
    src = os.path.abspath(args.src)
    if args.shape:
        sys.path.insert(0, src)
        print(json.dumps(run_shape(*(int(v) for v in args.shape.split(",")))))
        return 0

    import numpy as np

    results = {}
    for replicas, steps in SHAPES:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--src", src,
                               "--shape", f"{replicas},{steps}"],
                              capture_output=True, text=True, check=True)
        r = json.loads(proc.stdout.splitlines()[-1])
        results[f"{replicas}x{steps}"] = r
        print(f"{replicas:5d} replicas x {steps:6d} steps  median {r['median_s']:7.3f} s  "
              f"peak {r['peak_rss_mb']:6.1f} MB  report {r['report_sha256'][:12]}", flush=True)

    doc = {}
    if os.path.exists(OUT):
        with open(OUT) as fh:
            doc = json.load(fh)
    doc.update({"metric": "seconds per cesaro_equidistribution call (median of repeats) "
                          "and peak RSS of a process that runs one shape",
                "cells_per_axis": CELLS, "seed": SEED, "repeats": REPEATS})
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    doc.setdefault("runs", {})[args.label] = {
        "provenance": {"python": platform.python_version(), "numpy": np.__version__,
                       "blas": f"{blas.get('name')} {blas.get('version')}",
                       "cpu": cpu_model(), "cpu_count": os.cpu_count()},
        "shapes": results,
    }
    runs = doc["runs"]
    if "parent" in runs and "change" in runs:
        old, new = runs["parent"]["shapes"], runs["change"]["shapes"]
        doc["ratio_parent_over_change"] = {
            n: round(old[n]["median_s"] / new[n]["median_s"], 2) for n in new if n in old}
        doc["reports_identical"] = all(old[n]["report_sha256"] == new[n]["report_sha256"]
                                       for n in new if n in old)
    with open(OUT, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
