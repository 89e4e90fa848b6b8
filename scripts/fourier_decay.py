#!/usr/bin/env python3
"""Decay of the product's characteristic function outside the shrinking
dual box, with a lattice negative control that stays put at modulus one."""

import argparse
from fractions import Fraction as F

import numpy as np

from nilwalk.algebra import heisenberg3
from nilwalk.filtration import WeightFiltration
from nilwalk.fourier import FrequencyPoint, reduced_domain_scan, write_scan_csv
from nilwalk.measures import AtomicMeasure, Dirac1D, Gaussian1D, ProductMeasure


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-grid", type=int, nargs="+", default=[16, 64, 256])
    ap.add_argument("--replicas", type=int, default=100_000)
    ap.add_argument("--gamma0", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--out")
    args = ap.parse_args()

    heis = heisenberg3()
    wf = WeightFiltration(heis, [0, 0, 0])
    mu = ProductMeasure(heis, [Gaussian1D(), Gaussian1D(), Dirac1D(0.0)])
    xis = [FrequencyPoint(x) for x in [
        (0.4, 0.0, 0.0), (0.0, 0.0, 0.09), (0.0, 0.0, 0.2), (0.2, 0.0, 0.1),
    ]]
    rep = reduced_domain_scan(wf, mu, xis, args.n_grid, args.replicas,
                              gamma0=args.gamma0, seed=args.seed)
    for row in rep["rows"]:
        print(f"xi={tuple(round(v, 3) for v in row['xi'])}  N={row['N']:4d}  "
              f"|transform| = {row['modulus']:.5f} +/- {row['stderr']:.5f}  "
              f"{'inside' if row['inside'] else 'outside'}")
    print("summary:", rep["summary"])

    lattice = AtomicMeasure(
        heis, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)], [F(1, 4)] * 4,
    )
    rep2 = reduced_domain_scan(wf, lattice, [FrequencyPoint((1.0, 0.0, 0.0))],
                               [args.n_grid[-1]], 20_000, gamma0=args.gamma0,
                               seed=args.seed)
    print(f"lattice control at a resonant frequency: "
          f"|transform| = {rep2['rows'][0]['modulus']:.4f} (stays near 1)")

    if args.out:
        write_scan_csv(args.out, rep, args.replicas, args.seed)


if __name__ == "__main__":
    main()
