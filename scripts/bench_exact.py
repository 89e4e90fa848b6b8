#!/usr/bin/env python3
"""Seconds per identity family of the exact engine, and acceptance 1's wall time.

Times, in one process, the exact identities that acceptance criterion 1
and the benchmark's exact-symbolic workload prove:

  bch-assoc      (xy)z == x(yz) for 200 rational triples on free-nilpotent(2,4)
  periodization  the support-size-t identity for N <= 6, t <= min(N, 4), cap 4
  swap-fact1/2/3 the three block-swap facts on every (a, k, n') with a <= 3,
                 k <= 2, n' <= 2, with acceptance 1's pair sets and inputs
  swap-a4        facts 1 and 2 on (4,1,1) with 16 pairs and (4,1,2) with 6,
                 and fact 3 on free-nilpotent(2,4)
  construction   uncached free_nilpotent for the five free algebras of the
                 exact-symbolic workload, then a WeightFiltration for each
                 drift e_i of every builtin (those five, heisenberg3,
                 filiform4 and abelian(3))

Each family runs REPEATS times; the file keeps the first (cold: nothing
cached yet) and the median.  It then runs acceptance criterion 1 with
pytest in a fresh process and records the time the test prints.  Results go
into BENCH_exact.json in the working directory under a label, so two source
trees can be measured into one file and compared:

    python scripts/bench_exact.py --src /path/to/old/src --label parent
    python scripts/bench_exact.py --label change

The tests of acceptance 1 are taken from the ``tests`` directory next to
``--src``.  With both "parent" and "change" present, the file also holds the
per-family ratio parent/change of the medians.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import time
from fractions import Fraction

REPEATS = 3
OUT = "BENCH_exact.json"
FREE = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def bracket_inputs(bs, algebra, j, rng):
    """Acceptance 1's fact-3 inputs: zero left of block j's centre, else random."""
    return [algebra.zero_vector()
            if any(p in bs.block_positions(j, -off) for off in range(1, bs.a))
            else tuple(Fraction(rng.randint(-6, 6), 3) for _ in range(algebra.dim))
            for p in range(bs.n_indices)]


def families():
    from nilwalk.algebra import abelian, filiform4, free_nilpotent, heisenberg3
    from nilwalk.filtration import WeightFiltration
    from nilwalk.freealg import verify_periodization_identity
    from nilwalk.pathswap import (BlockSystem, FElement, sample_pairs,
                                  verify_block_bracket_identity, verify_block_decoupling,
                                  verify_low_degree_annihilation)

    alg4 = free_nilpotent(2, 4)
    rng = random.Random(20231201)
    triples = [tuple(tuple(Fraction(rng.randint(-6, 6), 3) for _ in range(alg4.dim))
                     for _ in range(3)) for _ in range(200)]
    systems = [BlockSystem(a, k, nprime) for a in (2, 3) for k in (1, 2) for nprime in (1, 2)]
    pairs = {bs: sample_pairs(bs, limit=16 if bs.n_indices <= 12 else 6) for bs in systems}

    def bch():
        b = alg4.bch_exact
        return all(b(b(x, y), z) == b(x, b(y, z)) for x, y, z in triples)

    def periodization():
        return all(verify_periodization_identity(n, t, 4)
                   for n in range(2, 7) for t in range(1, min(n, 4) + 1))

    def fact(verify, systems_pairs, cap):
        return all(verify(bs, s, t, cap) for bs, ps in systems_pairs for s, t in ps)

    def fact3(systems_, algebra_of):
        ok = True
        for bs in systems_:
            algebra = algebra_of(bs.a)
            gens = bs.swaps()
            sigma = FElement(bs, [g for g in gens if g[0] % 2 == 1])
            tau = FElement(bs, [g for g in gens if g[0] % 2 == 0])
            arng = random.Random(bs.a * 100 + bs.k * 10 + bs.n_prime)
            for j in range(bs.n_prime):
                xs = bracket_inputs(bs, algebra, j, arng)
                ok &= verify_block_bracket_identity(bs, sigma, tau, j, algebra, xs)
        return ok

    a4 = [(BlockSystem(4, 1, 1), 16), (BlockSystem(4, 1, 2), 6)]
    a4_pairs = [(bs, sample_pairs(bs, limit=n)) for bs, n in a4]

    def swap_a4():
        return (fact(verify_low_degree_annihilation, a4_pairs, 4)
                and fact(verify_block_decoupling, a4_pairs, 4)
                and fact3([bs for bs, _ in a4], lambda a: free_nilpotent(2, 4)))

    def construction():
        free_nilpotent.cache_clear()
        algebras = [heisenberg3(), filiform4(), abelian(3)] + [free_nilpotent(*gs) for gs in FREE]
        return all(len(WeightFiltration(alg, alg.basis_vector(i)).weights) == alg.dim
                   for alg in algebras for i in range(alg.dim))

    return {
        "bch-assoc": bch,
        "periodization": periodization,
        "swap-fact1": lambda: fact(verify_low_degree_annihilation, pairs.items(), 4),
        "swap-fact2": lambda: fact(verify_block_decoupling, pairs.items(), 4),
        "swap-fact3": lambda: fact3(systems, lambda a: heisenberg3() if a == 2
                                    else free_nilpotent(3, 3)),
        "swap-a4": swap_a4,
        "construction": construction,
    }


def acceptance_1(src: str) -> dict:
    root = os.path.dirname(os.path.abspath(src))
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
                           "tests/test_acceptance.py", "-k", "test_01"],
                          cwd=root, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    m = re.search(r"ACCEPTANCE 1 exact-symbolic: (\w+).*?([0-9.]+)s < 60s", proc.stdout)
    return {"verdict": m.group(1) if m else "missing",
            "test_s": float(m.group(2)) if m else None,
            "process_s": wall}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"),
                    help="source directory to import nilwalk from (default: this checkout)")
    ap.add_argument("--label", default="change")
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))

    results = {}
    for name, run in families().items():
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            ok = run()
            times.append(time.perf_counter() - t0)
            if not ok:
                raise SystemExit(f"{name}: identity failed")
        results[name] = {"first_s": times[0], "median_s": statistics.median(times)}
        print(f"{name:14s} first {times[0]:8.3f} s  median {results[name]['median_s']:8.3f} s",
              flush=True)
    acc = acceptance_1(args.src)
    print(f"acceptance 1   {acc['verdict']} in {acc['test_s']} s (process {acc['process_s']:.1f} s)")

    doc = {}
    if os.path.exists(OUT):
        with open(OUT) as fh:
            doc = json.load(fh)
    doc.update({"metric": "seconds per identity family, first run and median of repeats",
                "repeats": REPEATS})
    doc.setdefault("runs", {})[args.label] = {
        "provenance": {"python": platform.python_version(), "cpu": cpu_model(),
                       "cpu_count": os.cpu_count()},
        "families": results,
        "acceptance_1": acc,
    }
    runs = doc["runs"]
    if "parent" in runs and "change" in runs:
        old, new = runs["parent"], runs["change"]
        ratios = {n: round(old["families"][n]["median_s"] / new["families"][n]["median_s"], 2)
                  for n in new["families"] if n in old["families"]}
        ratios["acceptance-1"] = round(old["acceptance_1"]["test_s"]
                                       / new["acceptance_1"]["test_s"], 2)
        doc["ratio_parent_over_change"] = ratios
    with open(OUT, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
