#!/usr/bin/env python3
"""Origin density of the Heisenberg limit law, two independent samplers.

The planar-Brownian-with-area construction and the group-increment Euler
scheme for the limit diffusion must agree; both kernel estimates should
bracket 1/4.
"""

import argparse

import numpy as np

from nilwalk.algebra import heisenberg3
from nilwalk.filtration import WeightFiltration
from nilwalk.limitlaw import (KDE_MIN_SAMPLES, DiffusionSpec, kde_density, levy_area_reference,
                              simulate_limit)
from nilwalk.measures import Dirac1D, Gaussian1D, ProductMeasure


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--samples", type=int, default=100_000)
    ap.add_argument("--time-steps", type=int, default=2048)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    if args.samples < KDE_MIN_SAMPLES:
        ap.error(f"--samples must be at least {KDE_MIN_SAMPLES} for the kernel density estimate")

    la = levy_area_reference(np.random.default_rng(args.seed), args.samples,
                             args.time_steps)
    rep = kde_density(la, [0.0, 0.0, 0.0], bandwidth_factor=0.6)
    print(f"Brownian-area sampler : v(0) = {rep['density']:.4f} "
          f"+/- {rep['stderr']:.4f}   (target 0.25)")

    heis = heisenberg3()
    wf = WeightFiltration(heis, [0, 0, 0])
    mu = ProductMeasure(heis, [Gaussian1D(), Gaussian1D(), Dirac1D(0.0)])
    spec = DiffusionSpec.from_measure(wf, mu, n_time_steps=args.time_steps)
    zs = simulate_limit(spec, np.random.default_rng(args.seed + 1), args.samples)
    rep2 = kde_density(zs, [0.0, 0.0, 0.0], bandwidth_factor=0.6)
    print(f"limit diffusion       : v(0) = {rep2['density']:.4f} "
          f"+/- {rep2['stderr']:.4f}   (target 0.25)")
    print(f"third-coordinate variances: {la[:, 2].var():.4f} / {zs[:, 2].var():.4f} "
          f"(target 0.25)")


if __name__ == "__main__":
    main()
