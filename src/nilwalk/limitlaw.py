"""Samplers and density estimates for the rescaled-walk limit measure.

The limit law is the time-1 marginal of a diffusion on the graded group
whose driving fields rotate with time: at time t the noise enters through
exp(t * ad_X') applied to an orthonormalizing basis of the first layer,
and the drift through the same flow applied to the second-layer mean.
Sampling uses the group-increment Euler scheme

    sigma <- sigma *' (h * B(t) + sqrt(h) * sum_i xi_i E_i(t)),

which respects left invariance of the generator's fields; weak first-order
consistency is checked by step halving, and on the Heisenberg group the
scheme is cross-validated against an independent construction, planar
Brownian motion with its chordal Levy area.

Everything here works in adapted coordinates of the filtration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .filtration import WeightFiltration
from .measures import Measure

# Limit-law samples folded per pass.  The chunks draw from one generator in
# turn, so this size fixes the bank that a seed gives.
LIMIT_CHUNK = 500_000

# Fewest samples a kernel density estimate accepts.
KDE_MIN_SAMPLES = 10_000


def measure_moments_adapted(measure: Measure, wf: WeightFiltration) -> tuple[np.ndarray, np.ndarray]:
    """(mean, covariance) in adapted coordinates, from the measure's closed form."""
    ainv = wf.adapted_inv_array
    mean, cov = measure.moments()
    return mean @ ainv, ainv.T @ cov @ ainv


@dataclass
class DiffusionSpec:
    """Inputs of the limit diffusion, all in adapted coordinates.

    ``noise_basis`` has one row per first-layer direction and satisfies
    rows.T @ rows = Cov(abelianized law); ``drift2`` is the second-layer
    mean.  ``n_time_steps`` is the Euler grid size on [0, 1], at least 1.
    """

    filtration: WeightFiltration
    noise_basis: np.ndarray
    drift2: np.ndarray
    n_time_steps: int = 2048

    def __post_init__(self):
        if self.n_time_steps < 1:
            raise ValueError(f"the diffusion needs at least 1 time step, got {self.n_time_steps}")

    @classmethod
    def from_measure(cls, filtration: WeightFiltration, measure: Measure,
                     n_time_steps: int = 2048) -> "DiffusionSpec":
        """Extract the covariance square root and second-layer mean from the
        measure's closed-form moments."""
        wf = filtration
        d = wf.algebra.dim
        idx1 = wf.layer_indices(1)

        mean_ad, cov_ad = measure_moments_adapted(measure, wf)
        cov = cov_ad[np.ix_(idx1, idx1)]
        evals, evecs = np.linalg.eigh(cov)
        if (evals <= 1e-14).any():
            raise ValueError("abelianized covariance is singular")
        sqrt_cov = evecs @ np.diag(np.sqrt(evals)) @ evecs.T
        rows = np.zeros((len(idx1), d))
        for r in range(len(idx1)):
            rows[r, idx1] = sqrt_cov[r]
        drift2 = np.zeros(d)
        idx2 = wf.layer_indices(2)
        if idx2:
            drift2[idx2] = mean_ad[idx2]
        return cls(filtration=wf, noise_basis=rows, drift2=drift2,
                   n_time_steps=n_time_steps)


def simulate_limit(spec: DiffusionSpec, rng: np.random.Generator, n_samples: int) -> np.ndarray:
    """Samples of the time-1 law, adapted coordinates, shape (n, dim), n >= 1."""
    if n_samples < 1:
        raise ValueError(f"the limit bank needs at least 1 sample, got {n_samples}")
    wf = spec.filtration
    d = wf.algebra.dim
    K = spec.n_time_steps
    h = 1.0 / K
    product = wf.graded_algebra.product_map()
    q = spec.noise_basis.shape[0]
    # precompute the rotated fields on the time grid, the drift times h
    rotated_noise = []
    rotated_drift = []
    for j in range(K):
        flow = wf.exp_ax_float(j * h)
        rotated_noise.append(spec.noise_basis @ flow)
        rotated_drift.append(h * (spec.drift2 @ flow))
    sqrt_h = math.sqrt(h)
    out = np.zeros((n_samples, d))
    for lo in range(0, n_samples, LIMIT_CHUNK):
        sigma = out[lo:lo + LIMIT_CHUNK]  # folded in place
        xi = np.empty((len(sigma), q))
        inc = np.empty_like(sigma)
        for j in range(K):
            rng.standard_normal(out=xi)
            np.matmul(xi, rotated_noise[j], out=inc)
            inc *= sqrt_h
            inc += rotated_drift[j]
            product(sigma, inc, out=sigma)
    return out


def levy_area_reference(rng: np.random.Generator, n_samples: int,
                        n_time_steps: int = 2048) -> np.ndarray:
    """(B1, B2, chordal area) at time 1 for planar Brownian motion.

    The area increment over a step is the signed triangle swept by the
    chord, area += (B1 dB2 - B2 dB1)/2, which is exact for the piecewise
    linear interpolation of the path.
    """
    h = 1.0 / n_time_steps
    b1 = np.zeros(n_samples)
    b2 = np.zeros(n_samples)
    area = np.zeros(n_samples)
    sqh = math.sqrt(h)
    for _ in range(n_time_steps):
        d1 = sqh * rng.standard_normal(n_samples)
        d2 = sqh * rng.standard_normal(n_samples)
        area += 0.5 * (b1 * d2 - b2 * d1)
        b1 += d1
        b2 += d2
    return np.stack([b1, b2, area], axis=1)


# -- kernel density estimation ---------------------------------------------------


def kde_density(samples: np.ndarray, point: Sequence[float],
                bandwidth_factor: float = 1.0) -> dict:
    """Product-Gaussian kernel estimate of the density at one point.

    The bandwidth is Scott's rule times ``bandwidth_factor``.  Returns the
    estimate, its Monte Carlo standard error, and that bandwidth.  Needs a
    healthy sample count; the caller sees the stderr and can judge.
    """
    samples = np.asarray(samples, dtype=float)
    n, d = samples.shape
    if n < KDE_MIN_SAMPLES:
        raise ValueError("kernel density estimate needs at least 1e4 samples")
    h = bandwidth_factor * samples.std(axis=0, ddof=1) * n ** (-1.0 / (d + 4))
    z = (samples - np.asarray(point, dtype=float)) / h
    kernel = np.exp(-0.5 * (z**2).sum(axis=1)) / ((2 * np.pi) ** (d / 2) * h.prod())
    est = float(kernel.mean())
    se = float(kernel.std(ddof=1) / math.sqrt(n))
    return {"density": est, "stderr": se, "bandwidth": h.tolist(), "n": n}

