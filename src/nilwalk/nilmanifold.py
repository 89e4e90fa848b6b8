"""Unipotent walks on the compact Heisenberg quotient, plus the lazy-walk bound.

The lattice is generated by the three coordinate exponentials; in
coordinates of the second kind (t1, t2, t3) with x = exp(t1 e1) exp(t2 e2)
exp(t3 e3), right multiplication by a lattice element acts as

    (t1, t2, t3) -> (t1 + a, t2 + b, t3 + c - a t2),

so reducing t1 and t2 mod 1, correcting t3 by floor(t1) * t2, and finally
reducing t3 mod 1 lands every right coset exactly once in the unit cube.
Cell volumes of a cubical partition in these coordinates are exact (the
chart has unit Jacobian and Lebesgue measure is the Haar measure).  The
Cesaro walk draws and multiplies a block of steps per call (``path_map``).

The lazy-walk comparison bound is computed exactly: the expected
occupation times of the half-lazy counting chain are binomial tail sums,
evaluated in integer arithmetic and only converted to float at the end.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .algebra import BLOCK_ROWS
from .measures import Measure


def exp_to_second_kind(x: np.ndarray) -> np.ndarray:
    """Exponential (first-kind) coordinates -> coordinates of the second kind."""
    x = np.asarray(x, dtype=float)
    out = np.array(x, copy=True)
    out[..., 2] = x[..., 2] - 0.5 * x[..., 0] * x[..., 1]
    return out


def second_kind_to_exp(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    out = np.array(t, copy=True)
    out[..., 2] = t[..., 2] + 0.5 * t[..., 0] * t[..., 1]
    return out


def fold_second_kind(x: np.ndarray) -> np.ndarray:
    """Fundamental-domain representative in second-kind coordinates.

    Right-coset invariant: fold(x * lam) = fold(x) for lattice elements lam.
    """
    t = exp_to_second_kind(x)
    a = np.floor(t[..., 0])
    t1 = t[..., 0] - a
    t2m = np.floor(t[..., 1])
    t2 = t[..., 1] - t2m
    t3 = t[..., 2] + a * t[..., 1]  # cocycle correction from reducing t1
    t3 = t3 - np.floor(t3)
    return np.stack([t1, t2, t3], axis=-1)


def fold(x: np.ndarray) -> np.ndarray:
    """Fundamental-domain representative in exponential coordinates."""
    return second_kind_to_exp(fold_second_kind(x))


def lattice_element(a: int, b: int, c: int) -> np.ndarray:
    """exp(a e1) exp(b e2) exp(c e3) in exponential coordinates."""
    return np.array([a, b, c + 0.5 * a * b])


def cell_index(t: np.ndarray, cells_per_axis: int) -> np.ndarray:
    """Flat cell index of second-kind coordinates in the unit cube."""
    idx = np.clip((t * cells_per_axis).astype(np.int64), 0, cells_per_axis - 1)
    return (idx[..., 0] * cells_per_axis + idx[..., 1]) * cells_per_axis + idx[..., 2]


def cesaro_equidistribution(measure: Measure, n_steps: int, n_replicas: int,
                            cells_per_axis: int = 8, seed: int = 0,
                            checkpoints: Optional[Sequence[int]] = None,
                            start: Optional[np.ndarray] = None) -> dict:
    """Occupation histogram of the folded walk against the uniform volume.

    Averages the first n_steps distributions (time 0 included) over
    n_replicas independent paths.  The discrepancy at each checkpoint is
    the maximum over cells of |empirical mass - exact volume|; the
    relative version (scaled by the cell count) is reported alongside.

    The walk runs in blocks of about BLOCK_ROWS replica-steps: one
    ``sample_steps`` call draws the increments, one ``path_map`` call writes
    each step's products to the next row of a buffer, and the rows are folded
    and counted.  Blocks end at checkpoints, and the draws and products equal
    a ``sample`` and a product per step, so no block size changes the report.
    """
    algebra = measure.algebra
    if algebra.dim != 3 or algebra.step != 2:
        raise ValueError("the compact quotient is built in for the Heisenberg algebra only")
    if cells_per_axis < 1 or n_replicas < 1:
        raise ValueError("cells_per_axis and n_replicas must be >= 1")
    if checkpoints is None:
        checkpoints = [n_steps]
    checkpoints = sorted(set(int(c) for c in checkpoints))
    if not checkpoints or checkpoints[-1] != n_steps:
        raise ValueError("last checkpoint must equal n_steps")
    if checkpoints[0] < 1:
        raise ValueError("checkpoints must be >= 1")

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    path = algebra.path_map()
    n_cells = cells_per_axis**3
    counts = np.zeros(n_cells, dtype=np.int64)
    block = max(1, BLOCK_ROWS // n_replicas)
    visited = np.empty((block + 1, n_replicas, 3))  # row k: the positions before step k of a block
    visited[0] = 0.0 if start is None else start
    results = {}
    done = 0
    for cp in checkpoints:
        while done < cp:
            steps = min(block, cp - done)
            incs = measure.sample_steps(rng, steps, n_replicas).reshape(steps, n_replicas, 3)
            path(visited[:steps + 1], incs)
            idx = cell_index(fold_second_kind(visited[:steps].reshape(-1, 3)), cells_per_axis)
            counts += np.bincount(idx, minlength=n_cells)
            visited[0] = visited[steps]  # the next block starts where this one ended
            done += steps
        total = counts.sum()
        emp = counts / total
        vol = 1.0 / n_cells
        results[cp] = {
            "discrepancy": float(np.abs(emp - vol).max()),
            "relative_discrepancy": float(np.abs(emp * n_cells - 1.0).max()),
            "n_samples": int(total),
        }
    return {
        "cells_per_axis": cells_per_axis,
        "n_replicas": n_replicas,
        "checkpoints": results,
        "final_counts": counts.tolist(),
        "seed": seed,
    }


def haar_control(n_samples: int, cells_per_axis: int = 8, seed: int = 1) -> dict:
    """Discrepancy of direct uniform sampling; the Monte Carlo floor."""
    rng = np.random.default_rng(seed)
    t = rng.random((n_samples, 3))
    counts = np.bincount(cell_index(t, cells_per_axis), minlength=cells_per_axis**3)
    emp = counts / n_samples
    vol = 1.0 / cells_per_axis**3
    return {
        "discrepancy": float(np.abs(emp - vol).max()),
        "relative_discrepancy": float(np.abs(emp * cells_per_axis**3 - 1).max()),
    }


# -- lazy-walk comparison bound ---------------------------------------------------


def occupation_expectation_exact(i: int, horizon: int) -> Fraction:
    """E[#(k <= horizon with S_k = i)] for the stay-or-advance chain, exactly.

    S_k counts successes in k fair coin flips, so the expectation is a sum
    of binomial probabilities; this direct form is the oracle for the
    closed form used in the bound.
    """
    if i < 0:
        raise ValueError("state must be nonnegative")
    total = Fraction(0)
    for k in range(1, horizon + 1):
        if i <= k:
            total += Fraction(math.comb(k, i), 2**k)
    return total


def occupation_expectation_closed(i: int, horizon: int) -> Fraction:
    """Same expectation via the negative-binomial tail identity:
    E = 2 (1 - P(Bin(horizon+1, 1/2) <= i)) for i >= 1."""
    if i < 1:
        raise ValueError("closed form stated for states >= 1")
    n = horizon + 1
    cdf_num = 0
    c = 1
    for b in range(i + 1):
        cdf_num += c
        c = c * (n - b) // (b + 1)
    return 2 - Fraction(2 * cdf_num, 2**n)


def lazy_walk_tv_bound(n_steps: int) -> float:
    """Exact total-variation bound between the half-lazy and plain Cesaro
    averages, from the occupation-time expansion.

    Equals (1/N) sum_i |E[occupation of i up to 2N]/2 - 1_(i<=N)|, reduced
    by binomial symmetry to an integer computation:
    (2 S + 2^(2N) - 1) / (N 2^(2N+1)) with S = sum_(b<N) (N-b) C(2N+1, b).
    """
    if n_steps < 2:
        raise ValueError("need at least two steps")
    N = n_steps
    n = 2 * N + 1
    S = 0
    c = 1  # C(n, 0)
    for b in range(N):
        S += (N - b) * c
        c = c * (n - b) // (b + 1)
    return float(Fraction(2 * S + 2 ** (2 * N) - 1, N * 2 ** (2 * N + 1)))


def lazy_walk_bound_profile(exponents: Sequence[int]) -> dict:
    """value(N) sqrt(N)/log(N) over N = 2^e; the fitted constant is the max."""
    rows = []
    for e in exponents:
        N = 2**e
        v = lazy_walk_tv_bound(N)
        rows.append({"N": N, "value": v, "normalized": v * math.sqrt(N) / math.log(N)})
    norm = [r["normalized"] for r in rows]
    return {
        "rows": rows,
        "fitted_constant": max(norm),
        "max_over_min": max(norm) / min(norm),
    }
