#!/usr/bin/env python3
"""Nanoseconds per replica-step of the float group product, per builtin algebra.

Times `NilpotentAlgebra.product_map()` on (250 000, dim) float batches for
every builtin algebra (and the adapted algebra of free-nilpotent(2,3) with
drift e1, which the non-centered walks fold in), taking the median of 5
repeats.  It also times building the kernel on a fresh instance and records
numpy, Python and BLAS-thread provenance.  Results go into BENCH_kernel.json in the working
directory under a label, so two source trees can be measured into one file
and compared:

    python scripts/bench_kernel.py --src /path/to/old/src --label parent
    python scripts/bench_kernel.py --label change

With both "parent" and "change" present, the file also holds the per-algebra
ratio parent/change.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

ALGEBRAS = ["heisenberg3", "filiform4", "abelian(3)", "free-nilpotent(2,2)",
            "free-nilpotent(2,3)", "free-nilpotent(2,4)", "free-nilpotent(3,2)",
            "free-nilpotent(3,3)", "free-nilpotent(2,3)+e1-adapted"]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROWS = 250_000
REPEATS = 5
OUT = "BENCH_kernel.json"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def provenance(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "cpu": cpu_model(),
        "cpu_count": os.cpu_count(),
    }


def resolve(name: str):
    from nilwalk.algebra import builtin_algebra
    from nilwalk.filtration import WeightFiltration

    if name.endswith("+e1-adapted"):
        base = builtin_algebra(name.split("+")[0])
        return WeightFiltration(base, [1] + [0] * (base.dim - 1)).adapted_algebra
    return builtin_algebra(name)


def measure(name: str, np) -> dict:
    from nilwalk.algebra import NilpotentAlgebra

    alg = resolve(name)
    alg.product_map()  # warms the shared two-letter series for this class
    fresh = NilpotentAlgebra(alg.dim, alg.step, alg.table, validate=False)
    t0 = time.perf_counter()
    product = fresh.product_map()
    compile_s = time.perf_counter() - t0
    rng = np.random.default_rng(20240601)
    x = rng.uniform(-1.0, 1.0, (ROWS, alg.dim))
    y = rng.uniform(-1.0, 1.0, (ROWS, alg.dim))
    product(x, y)
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        product(x, y)
        times.append(time.perf_counter() - t0)
    return {"dim": alg.dim, "step": alg.step,
            "ns_per_replica_step": statistics.median(times) / ROWS * 1e9,
            "compile_s": compile_s}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"),
                    help="source directory to import nilwalk from (default: this checkout)")
    ap.add_argument("--label", default="change")
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np

    results = {}
    for name in ALGEBRAS:
        results[name] = measure(name, np)
        r = results[name]
        print(f"{name:32s} {r['ns_per_replica_step']:9.1f} ns/replica-step  "
              f"compile {r['compile_s'] * 1e3:7.2f} ms", flush=True)

    doc = {}
    if os.path.exists(OUT):
        with open(OUT) as fh:
            doc = json.load(fh)
    doc.update({"metric": "ns per replica-step of product_map, median of repeats",
                "rows": ROWS, "repeats": REPEATS})
    doc.setdefault("runs", {})[args.label] = {"provenance": provenance(np),
                                              "algebras": results}
    runs = doc["runs"]
    if "parent" in runs and "change" in runs:
        old, new = runs["parent"]["algebras"], runs["change"]["algebras"]
        doc["ratio_parent_over_change"] = {
            n: round(old[n]["ns_per_replica_step"] / new[n]["ns_per_replica_step"], 2)
            for n in new if n in old}
    with open(OUT, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
