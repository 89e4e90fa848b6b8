#!/usr/bin/env python3
"""Paired timings of two source trees, one fresh process per case and tree.

    python scripts/bench.py {kernel,exact,nilmanifold,walk} [--parent SRC]

kernel times product_map per builtin algebra (ns per replica-step, and the
build time of a fresh algebra's kernel, with an empty kernel cache and with
a warm one), and its in-place call on coordinate-major x and y, the layout
of the walk's fold on an identity adapted basis, checking that it writes
the allocating call's bytes; exact each exact identity family and
acceptance criterion 1, nilmanifold the Cesaro walk on H(R)/H(Z) at three
(replicas, steps) shapes (seconds per call, and peak RSS), and walk one
`nilwalk walk` command per case (wall and CPU seconds, and peak RSS): llt
and ratio at the sizes of the benchmark's heis-llt workload on two
workers, llt on a three-N grid, clt and theta at those of deep-clt on one,
and clt on free-nilpotent(2,3) with drift e1 and Gaussian factors at
M = 1M, N = 24 on one worker and on two (a permutation adapted basis, whose
basis change once ran a threaded BLAS matmul beside the workers).
Every case runs in a fresh process on each tree, in PAIRS pairs that
alternate which tree runs first.  The change is the checkout holding this
script; --parent names the src directory to compare it with (default:
this checkout, which measures the spread of identical code).
BENCH_<suite>.json in the working directory gets, per case and metric,
each tree's value in every pair with their median and quartiles, the
pairs each tree won (lower is better; a tie counts for neither), the
parent/change ratio of the medians, and whether both trees gave the same
output (the product's bytes, a verdict, the Cesaro report's digest, or
the exit code and CSV body digest of a walk).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import inspect
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

PAIRS = 10
CHANGE_SRC = Path(__file__).resolve().parent.parent / "src"

KERNEL_ALGEBRAS = ["heisenberg3", "filiform4", "abelian(3)", "free-nilpotent(2,2)",
                   "free-nilpotent(2,3)", "free-nilpotent(2,4)", "free-nilpotent(3,2)",
                   "free-nilpotent(3,3)", "free-nilpotent(2,3)+e1-adapted"]
KERNEL_ROWS, KERNEL_REPEATS = 250_000, 5
EXACT_FAMILIES = ["bch-assoc", "periodization", "swap-fact1", "swap-fact2", "swap-fact3",
                  "swap-a4", "construction"]
EXACT_REPEATS = 3
CESARO_SHAPES = [(100, 8000), (10, 20_000), (1000, 2000)]
CESARO_CELLS, CESARO_SEED, CESARO_REPEATS = 8, 3, 5


def heis_walk(m, box, grid=(16, 32)):
    return {"algebra": "heisenberg3", "drift": [0, 0, 0],
            "measure": {"kind": "gaussian_layers", "cov": [1.0, 1.0, 0.0]},
            "seed": 921, "M": m, "N_grid": list(grid),
            "params": {"recenter": "none", "box": [box] * 3, "diffusion_steps": 64,
                       "nu_samples": 100_000}}


DEEP_WALK = {"algebra": "free-nilpotent(2,3)", "drift": [1, 0, 0, 0, 0],
             "measure": {"kind": "product", "factors": [
                 {"kind": "uniform", "lo": 0.5, "hi": 1.5}]
                 + [{"kind": "uniform", "lo": -1.0, "hi": 1.0}] * 4},
             "seed": 922, "M": 24_000, "N": 64, "params": {"recenter": "none"}}
GAUSS_WALK = DEEP_WALK | {"measure": {"kind": "product", "factors": [
    {"kind": "gaussian", "mean": 1.0}] + [{"kind": "gaussian"}] * 4},
    "M": 1_000_000, "N": 24}

# case -> (--workers, walk mode, config)
WALK_CASES = {
    "llt": (2, "llt", heis_walk(500_000, [-2.0, 2.0])),
    "ratio": (2, "ratio", heis_walk(250_000, [-3.0, 3.0])),
    "llt-grid": (2, "llt", heis_walk(500_000, [-2.0, 2.0], grid=(8, 16, 32))),
    "clt": (1, "clt", DEEP_WALK),
    "theta": (1, "theta", DEEP_WALK | {"params": {"recenter": "none", "gamma0": 0.2}}),
    "clt-gauss": (1, "clt", GAUSS_WALK),
    "clt-gauss-2w": (2, "clt", GAUSS_WALK),
}


def timed(call, repeats):
    """(last result, seconds of each call)."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - t0)
    return result, times


def kernel_case(name):
    import tempfile

    import numpy as np

    from nilwalk import algebra
    from nilwalk.algebra import NilpotentAlgebra, builtin_algebra
    from nilwalk.filtration import WeightFiltration

    alg = builtin_algebra(name.split("+")[0])
    if name.endswith("+e1-adapted"):
        alg = WeightFiltration(alg, [1] + [0] * (alg.dim - 1)).adapted_algebra
    alg.group_law  # warms the shared two-letter series for this class
    kernels = getattr(algebra, "compiled_kernel", None)  # a numpy-only tree compiles nothing

    def build():
        """A fresh algebra's product_map and the seconds it took, with no
        kernel cached in process."""
        if kernels is not None:
            kernels.cache_clear()
        fresh = NilpotentAlgebra(alg.dim, alg.step, alg.table, validate=False)
        t0 = time.perf_counter()
        product = fresh.product_map()
        return product, time.perf_counter() - t0

    with tempfile.TemporaryDirectory() as cache:
        os.environ["XDG_CACHE_HOME"] = cache
        _, compile_s_cold = build()  # an empty kernel cache: compiles
        product, compile_s_warm = build()  # loads what the cold build left
    rng = np.random.default_rng(20240601)
    x = rng.uniform(-1.0, 1.0, (KERNEL_ROWS, alg.dim))
    y = rng.uniform(-1.0, 1.0, (KERNEL_ROWS, alg.dim))
    out = product(x, y)
    _, times = timed(lambda: product(x, y), KERNEL_REPEATS)
    xc, yc = (np.ascontiguousarray(a.T).T for a in (x, y))  # coordinate-major
    if "out" in inspect.signature(product).parameters:
        in_place = functools.partial(product, xc, yc, out=xc)
    else:  # a tree without out= makes the fold reassign
        in_place = functools.partial(product, xc, yc)
    if np.ascontiguousarray(in_place()).tobytes() != out.tobytes():
        raise SystemExit(f"{name}: the in-place product differs from the allocating one")
    _, in_place_times = timed(in_place, KERNEL_REPEATS)
    return ({"ns_per_replica_step": statistics.median(times) / KERNEL_ROWS * 1e9,
             "in_place_ns_per_replica_step": statistics.median(in_place_times)
             / KERNEL_ROWS * 1e9,
             "compile_s_cold": compile_s_cold, "compile_s_warm": compile_s_warm},
            hashlib.sha256(out.tobytes()).hexdigest())


def exact_family(name):
    """The closure that checks one identity family; its set-up is not timed."""
    import random
    from fractions import Fraction

    from nilwalk.algebra import abelian, filiform4, free_nilpotent, heisenberg3
    from nilwalk.filtration import WeightFiltration
    from nilwalk.freealg import verify_periodization_identity
    from nilwalk.pathswap import (BlockSystem, FElement, sample_pairs,
                                  verify_block_bracket_identity, verify_block_decoupling,
                                  verify_low_degree_annihilation)

    def fact(verify, system_pairs):
        return all(verify(bs, s, t, 4) for bs, ps in system_pairs for s, t in ps)

    def fact3(block_systems, algebra_of):
        ok = True
        for bs in block_systems:
            algebra, gens = algebra_of(bs.a), bs.swaps()
            sigma = FElement(bs, [g for g in gens if g[0] % 2 == 1])
            tau = FElement(bs, [g for g in gens if g[0] % 2 == 0])
            arng = random.Random(bs.a * 100 + bs.k * 10 + bs.n_prime)
            for j in range(bs.n_prime):
                # acceptance 1's inputs: zero left of block j's centre, else random
                xs = [algebra.zero_vector()
                      if any(p in bs.block_positions(j, -off) for off in range(1, bs.a))
                      else tuple(Fraction(arng.randint(-6, 6), 3) for _ in range(algebra.dim))
                      for p in range(bs.n_indices)]
                ok &= verify_block_bracket_identity(bs, sigma, tau, j, algebra, xs)
        return ok

    if name == "bch-assoc":
        alg4, rng = free_nilpotent(2, 4), random.Random(20231201)
        triples = [tuple(tuple(Fraction(rng.randint(-6, 6), 3) for _ in range(alg4.dim))
                         for _ in range(3)) for _ in range(200)]
        b = alg4.bch_exact
        return lambda: all(b(b(x, y), z) == b(x, b(y, z)) for x, y, z in triples)
    if name == "periodization":
        return lambda: all(verify_periodization_identity(n, t, 4)
                           for n in range(2, 7) for t in range(1, min(n, 4) + 1))
    if name == "construction":
        def construction():
            free_nilpotent.cache_clear()
            algebras = [heisenberg3(), filiform4(), abelian(3)] + [
                free_nilpotent(*gs) for gs in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]]
            return all(len(WeightFiltration(alg, alg.basis_vector(i)).weights) == alg.dim
                       for alg in algebras for i in range(alg.dim))
        return construction
    if name == "swap-a4":
        a4 = [(BlockSystem(4, 1, 1), 16), (BlockSystem(4, 1, 2), 6)]
        a4_pairs = [(bs, sample_pairs(bs, limit=n)) for bs, n in a4]
        return lambda: (fact(verify_low_degree_annihilation, a4_pairs)
                        and fact(verify_block_decoupling, a4_pairs)
                        and fact3([bs for bs, _ in a4], lambda a: free_nilpotent(2, 4)))
    systems = [BlockSystem(a, k, nprime) for a in (2, 3) for k in (1, 2) for nprime in (1, 2)]
    if name == "swap-fact3":
        return lambda: fact3(systems, lambda a: heisenberg3() if a == 2 else free_nilpotent(3, 3))
    pairs = [(bs, sample_pairs(bs, limit=16 if bs.n_indices <= 12 else 6)) for bs in systems]
    verify = {"swap-fact1": verify_low_degree_annihilation,
              "swap-fact2": verify_block_decoupling}[name]
    return lambda: fact(verify, pairs)


def exact_case(name):
    ok, times = timed(exact_family(name), EXACT_REPEATS)
    return {"first_s": times[0], "median_s": statistics.median(times)}, str(ok)


def acceptance_1_case():
    import nilwalk

    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
                           "tests/test_acceptance.py", "-k", "test_01"],
                          cwd=Path(nilwalk.__file__).resolve().parents[2],
                          capture_output=True, text=True)
    process_s = time.perf_counter() - t0
    m = re.search(r"ACCEPTANCE 1 exact-symbolic: (\w+).*?([0-9.]+)s < 60s", proc.stdout)
    if not m:
        raise SystemExit(f"acceptance 1 printed no verdict:\n{proc.stdout}\n{proc.stderr}")
    return {"test_s": float(m.group(2)), "process_s": process_s}, m.group(1)


def cesaro_case(replicas, steps):
    import resource

    import numpy as np

    from nilwalk.algebra import heisenberg3
    from nilwalk.measures import AffineImage, AtomicMeasure
    from nilwalk.nilmanifold import cesaro_equidistribution

    base = AtomicMeasure(heisenberg3(), [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
                         ["2/5", "3/10", "3/10"])
    matrix = np.array([[1.0, 0, 0], [0, 1.0, 0], [math.sqrt(2.0), math.sqrt(3.0), 0.0]])
    measure = AffineImage(base, matrix, np.zeros(3))
    checkpoints = [steps // 16, steps // 4, steps]

    def call():
        return cesaro_equidistribution(measure, steps, replicas, cells_per_axis=CESARO_CELLS,
                                       seed=CESARO_SEED, checkpoints=checkpoints)

    report = call()
    _, times = timed(call, CESARO_REPEATS)
    return ({"median_s": statistics.median(times),
             "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024},
            hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest())


def walk_case(name):
    import resource
    import tempfile

    from nilwalk.cli import main

    workers, mode, config = WALK_CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "out.csv"
        cfg.write_text(json.dumps(config))
        c0, t0 = time.process_time(), time.perf_counter()
        rc = main(["--workers", str(workers), "walk", mode, "--config", str(cfg),
                   "--out", str(out)])
        wall_s, cpu_s = time.perf_counter() - t0, time.process_time() - c0
        body = "".join(line for line in out.read_text().splitlines(True)
                       if not line.startswith("#"))
    return ({"wall_s": wall_s, "cpu_s": cpu_s,
             "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024},
            f"{rc}:{hashlib.sha256(body.encode()).hexdigest()}")


# each case returns ({metric: value}, output) in a worker process
SUITES = {
    "kernel": {name: functools.partial(kernel_case, name) for name in KERNEL_ALGEBRAS},
    "exact": {**{name: functools.partial(exact_case, name) for name in EXACT_FAMILIES},
              "acceptance-1": acceptance_1_case},
    "nilmanifold": {f"{r}x{s}": functools.partial(cesaro_case, r, s) for r, s in CESARO_SHAPES},
    "walk": {name: functools.partial(walk_case, name) for name in WALK_CASES},
}


def run_worker(suite, case, src):
    """({metric: value}, output) of one case in a fresh process importing ``src``."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), suite, "--case", case],
                          env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{suite} {case} failed on {src}:\n{proc.stderr}")
    return tuple(json.loads(proc.stdout.splitlines()[-1]))


def summarize(parent, change):
    """Pair summary of one metric, lower is better; a tie counts for neither."""
    def side(values):
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        return {"values": values, "median": median, "q1": q1, "q3": q3}

    p, c = side(parent), side(change)
    return {"parent": p, "change": c,
            "change_wins": sum(b < a for a, b in zip(parent, change)),
            "parent_wins": sum(a < b for a, b in zip(parent, change)),
            "ratio_parent_over_change": p["median"] / c["median"] if c["median"] else None}


def provenance():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.exists() else []
    cpu = next((line.split(":", 1)[1].strip() for line in lines
                if line.startswith("model name")), platform.processor())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_thread_env": {v: os.environ.get(v) for v in
                                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "cpu": cpu, "cpu_count": os.cpu_count()}


def run_suite(suite, parent_src):
    trees = {"parent": parent_src, "change": CHANGE_SRC}
    cases = {}
    for case in SUITES[suite]:
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                runs[side].append(run_worker(suite, case, trees[side]))
        outputs = {side: sorted({out for _, out in r}) for side, r in runs.items()}
        entry = {"same_output": outputs["parent"] == outputs["change"]
                 and len(outputs["change"]) == 1, "outputs": outputs, "metrics": {}}
        for metric in runs["change"][0][0]:
            s = entry["metrics"][metric] = summarize(*([m[metric] for m, _ in runs[side]]
                                                       for side in ("parent", "change")))
            print(f"{case:32s} {metric:20s} {s['parent']['median']:10.4g} -> "
                  f"{s['change']['median']:10.4g}  change won {s['change_wins']}/{PAIRS}",
                  flush=True)
        print(f"{case:32s} same output: {entry['same_output']}", flush=True)
        cases[case] = entry
    return {"suite": suite, "pairs": PAIRS, "better": "lower",
            "provenance": provenance(), "cases": cases}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("suite", choices=sorted(SUITES))
    ap.add_argument("--parent", default=str(CHANGE_SRC),
                    help="src directory of the tree to compare against (default: this checkout)")
    ap.add_argument("--case", help=argparse.SUPPRESS)  # worker: run one case, print JSON
    args = ap.parse_args()
    if args.case:
        print(json.dumps(SUITES[args.suite][args.case]()))
        return 0
    doc = run_suite(args.suite, Path(args.parent).resolve())
    with open(f"BENCH_{args.suite}.json", "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
