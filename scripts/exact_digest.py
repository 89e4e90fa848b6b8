#!/usr/bin/env python3
"""SHA-256 digests of exact outputs, to show that a change keeps them byte-identical.

Four groups of reprs are hashed, each printed with its count:

  structure  for heisenberg3, filiform4, abelian(3) and free-nilpotent
             (2,2), (2,3), (2,4), (3,2), (3,3): the structure table and the
             descending central series; then for the drifts 0, each e_i and
             (1, ..., d): ideals, weight_ideals, weights, adapted_rows,
             adapted_inv, the graded table, ax_powers, exp_ax(3/7),
             apply_ax, to_adapted, from_adapted, dilate(5/2) and
             graded_bracket on u = (1, ..., d) (v = u reversed for the
             bracket), the extended algebra's adapted_inv and, for d <= 8,
             the adapted table
  products   bch_exact, graded_product, conjugated_product(7/2) and the
             extended algebra's bch_exact on rational pairs, multi_product_exact
             on four factors, and both sides of fact 3 on acceptance 1's
             block systems
  laws       group_law (each coordinate's terms sorted) of every algebra
             above and of its adapted and graded algebras at each drift,
             and bigraded_evaluate of the two-letter group product at every
             (degree, w-degree) with 1 <= degree <= s and
             degree <= w-degree <= degree * L (L the largest weight), for
             the algebras of dimension at most 5 at the drifts 0, e1 and e2
  pathswap   exit code, stdout and --emit-poly file of `nilwalk pathswap
             verify`, run through cli.main, on the six block systems
             (a, k, n', step, pair limit) of perfbench's exact-symbolic
             workload and on a = 4, k = 1, n' in {1, 2} at step 4, each at
             the seeds in PATHSWAP_SEEDS, some of which draw a zero bracket
             side first

Run it on two source trees and compare the lines:

    python scripts/exact_digest.py --src /path/to/old/src
    python scripts/exact_digest.py
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile
from fractions import Fraction

ALGEBRAS = ["heisenberg3", "filiform4", "abelian(3)", "free-nilpotent(2,2)",
            "free-nilpotent(2,3)", "free-nilpotent(2,4)", "free-nilpotent(3,2)",
            "free-nilpotent(3,3)"]


def cases():
    from nilwalk.algebra import builtin_algebra
    from nilwalk.filtration import WeightFiltration

    for spec in ALGEBRAS:
        alg = builtin_algebra(spec)
        d = alg.dim
        drifts = [alg.zero_vector()] + [alg.basis_vector(i) for i in range(d)] + [tuple(range(1, d + 1))]
        yield alg, [WeightFiltration(alg, x) for x in drifts]


def structure(alg, filtrations):
    from nilwalk.algebra import weight_ideals
    from nilwalk.filtration import ExtendedAlgebra

    yield sorted(alg.table.items())
    yield [s.basis for s in alg.descending_central_series()]
    d = alg.dim
    u = tuple(Fraction(i + 1) for i in range(d))
    v = u[::-1]
    for wf in filtrations:
        yield [s.basis for s in wf.ideals]
        yield [s.basis for s in weight_ideals(alg, wf.xbar)]
        yield wf.weights
        yield wf.adapted_rows
        yield wf.adapted_inv
        yield sorted(wf.graded_algebra.table.items())
        yield wf.ax_powers
        yield wf.exp_ax(Fraction(3, 7))
        yield wf.apply_ax(u)
        yield wf.to_adapted(u)
        yield wf.from_adapted(u)
        yield wf.dilate(Fraction(5, 2), u)
        yield wf.graded_bracket(u, v)
        yield ExtendedAlgebra(wf).adapted_inv
        if d <= 8:
            yield sorted(wf.adapted_algebra.table.items())


def products(alg, filtrations, rng):
    from nilwalk.filtration import ExtendedAlgebra

    def vec(dim):
        return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(dim))

    for _ in range(3):
        x, y = vec(alg.dim), vec(alg.dim)
        yield alg.bch_exact(x, y)
        yield alg.multi_product_exact([x, y, vec(alg.dim), vec(alg.dim)])
        for wf in filtrations:
            yield wf.graded_product(x, y)
            yield wf.conjugated_product(Fraction(7, 2), x, y)
            ext = ExtendedAlgebra(wf)
            yield ext.bch_exact(vec(ext.dim), vec(ext.dim))


def laws(alg, filtrations, rng):
    from nilwalk.filtration import bigraded_evaluate
    from nilwalk.freealg import dynkin_product

    def law(a):
        return tuple(sorted(p.items()) for p in a.group_law)

    yield law(alg)
    for wf in filtrations:
        yield law(wf.adapted_algebra)
        yield law(wf.graded_algebra)
    if alg.dim > 5:
        return
    poly = dynkin_product(2, alg.step)
    for wf in filtrations[:3]:
        xs = [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(alg.dim))
              for _ in range(2)]
        for degree in range(1, alg.step + 1):
            for wdegree in range(degree, degree * wf.max_weight + 1):
                yield bigraded_evaluate(poly, wf, degree, wdegree, xs)


def fact3(rng):
    from nilwalk.algebra import free_nilpotent, heisenberg3
    from nilwalk.pathswap import BlockSystem, FElement, block_bracket_sides

    for a, k, nprime in [(2, 1, 1), (2, 1, 2), (2, 2, 1), (3, 1, 1), (3, 1, 2), (3, 2, 1)]:
        bs = BlockSystem(a, k, nprime)
        alg = heisenberg3() if a == 2 else free_nilpotent(3, 3)
        gens = bs.swaps()
        sigma = FElement(bs, [g for g in gens if g[0] % 2 == 1])
        tau = FElement(bs, [g for g in gens if g[0] % 2 == 0])
        for j in range(nprime):
            left = {p for off in range(1, a) for p in bs.block_positions(j, -off)}
            xs = [alg.zero_vector() if p in left
                  else tuple(Fraction(rng.randint(-6, 6), 3) for _ in range(alg.dim))
                  for p in range(bs.n_indices)]
            yield block_bracket_sides(bs, sigma, tau, j, alg, xs)


PATHSWAP_SYSTEMS = [(2, 1, 1, 3, 16), (2, 1, 2, 3, 16), (2, 2, 1, 3, 16),
                    (3, 1, 1, 3, 16), (3, 1, 2, 3, 4), (3, 2, 1, 3, 4),
                    (4, 1, 1, 4, 16), (4, 1, 2, 4, 6)]
PATHSWAP_SEEDS = [0, 7, 29, 49, 152, 303, 1692]


def pathswap_runs():
    from nilwalk.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        poly = os.path.join(tmp, "poly.tsv")
        for a, k, nprime, step, limit in PATHSWAP_SYSTEMS:
            for seed in PATHSWAP_SEEDS:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(["pathswap", "verify", "--a", str(a), "--k", str(k),
                                 "--nprime", str(nprime), "--step", str(step),
                                 "--pair-limit", str(limit), "--seed", str(seed),
                                 "--emit-poly", poly])
                with open(poly) as fh:
                    yield code, out.getvalue(), fh.read()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"),
                    help="source directory to import nilwalk from (default: this checkout)")
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))

    groups = {"structure": [], "products": [], "laws": [], "pathswap": []}
    rng = random.Random(20231201)
    laws_rng = random.Random(20261019)
    for alg, filtrations in cases():
        groups["structure"] += [repr(r) for r in structure(alg, filtrations)]
        groups["products"] += [repr(r) for r in products(alg, filtrations, rng)]
        groups["laws"] += [repr(r) for r in laws(alg, filtrations, laws_rng)]
    groups["products"] += [repr(r) for r in fact3(rng)]
    groups["pathswap"] += [repr(r) for r in pathswap_runs()]
    for name, reprs in groups.items():
        digest = hashlib.sha256("\n".join(reprs).encode()).hexdigest()
        print(f"{name:10s} {len(reprs):5d} reprs  sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
