"""Sampleable increment laws, layer truncation, and aperiodicity diagnostics.

A measure lives on the algebra in its original coordinates.  Three shapes
are supported, and affine pushforwards of them: finitely many weighted
atoms with exact rational locations, products of independent scalar laws
per coordinate, and nothing else; that is enough for every experiment in
the package while keeping abelianized characteristic functions in closed
form.

Truncation at level N clips each weight layer at radius N^(b/2): layers
b >= 2 are zeroed on the rare event, the first layer is replaced by the
constant vector that recenters the first-layer mean.  For atomic laws the
recentering constant is an exact rational vector; for continuous laws it
is estimated by Monte Carlo.

The gap function measures quantitative aperiodicity of the abelianized
law over a dual annulus; its infimum is approximated by a coarse grid
plus golden-section refinement, with the resolution recorded in the
output.  The scan cannot prove aperiodicity, only flag violations.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .algebra import ExactVector, NilpotentAlgebra
from .filtration import WeightFiltration
from .ratlinalg import fracvec, vec_mat

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
REFINE_ROUNDS = 3  # golden-section rounds of gap_function


# -- scalar factor laws ------------------------------------------------------


def _into(out: Optional[np.ndarray], values: np.ndarray) -> np.ndarray:
    """``values``, copied into ``out`` when one is given."""
    if out is None:
        return values
    out[...] = values
    return out


@dataclass(frozen=True)
class Gaussian1D:
    mean: float = 0.0
    std: float = 1.0

    def sample(self, rng, size, out=None):
        z = rng.standard_normal(size, out=out)  # z * std + mean is mean + std * z, bit for bit
        z *= self.std
        z += self.mean
        return z

    def char(self, xi):
        # E exp(-2 i pi xi x)
        return np.exp(-2 * np.pi**2 * self.std**2 * np.asarray(xi) ** 2) * np.exp(
            -2j * np.pi * np.asarray(xi) * self.mean
        )

    def moments(self):
        return self.mean, self.std**2


@dataclass(frozen=True)
class Uniform1D:
    lo: float
    hi: float

    def sample(self, rng, size, out=None):
        u = rng.random(size, out=out)  # what rng.uniform(lo, hi, size) computes, bit for bit
        u *= self.hi - self.lo
        u += self.lo
        return u

    def char(self, xi):
        xi = np.asarray(xi, dtype=float)
        width = self.hi - self.lo
        mid = 0.5 * (self.hi + self.lo)
        return np.sinc(xi * width) * np.exp(-2j * np.pi * xi * mid)

    def moments(self):
        return 0.5 * (self.lo + self.hi), (self.hi - self.lo) ** 2 / 12.0


@dataclass(frozen=True)
class TwoPoint1D:
    a: float
    b: float
    p: float = 0.5

    def sample(self, rng, size, out=None):
        # not an Atoms1D: that gives the same bits 3.5x slower (22 vs 6.4 ns/row)
        return _into(out, np.where(rng.random(size) < self.p, self.a, self.b))

    def char(self, xi):
        xi = np.asarray(xi, dtype=float)
        return self.p * np.exp(-2j * np.pi * xi * self.a) + (1 - self.p) * np.exp(
            -2j * np.pi * xi * self.b
        )

    def moments(self):
        m = self.p * self.a + (1 - self.p) * self.b
        v = self.p * self.a**2 + (1 - self.p) * self.b**2 - m**2
        return m, v


@dataclass(frozen=True)
class Dirac1D:
    value: float = 0.0

    def sample(self, rng, size, out=None):
        return np.full(size, self.value) if out is None else _into(out, self.value)

    def char(self, xi):
        return np.exp(-2j * np.pi * np.asarray(xi) * self.value)

    def moments(self):
        return self.value, 0.0


@dataclass(frozen=True)
class Atoms1D:
    """Finitely many scalar atoms; locations may be irrational floats."""

    points: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.points) != len(self.weights):
            raise ValueError("points and weights differ in length")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValueError("weights must sum to one")

    def sample(self, rng, size, out=None):
        u = rng.random(size)
        cum = np.cumsum(self.weights)
        idx = np.searchsorted(cum, u, side="right").clip(0, len(self.points) - 1)
        return _into(out, np.asarray(self.points)[idx])

    def char(self, xi):
        xi = np.asarray(xi, dtype=float)
        out = np.zeros(xi.shape, dtype=complex)
        for p, w in zip(self.points, self.weights):
            out += w * np.exp(-2j * np.pi * xi * p)
        return out

    def moments(self):
        m = sum(p * w for p, w in zip(self.points, self.weights))
        v = sum(p * p * w for p, w in zip(self.points, self.weights)) - m * m
        return m, v


# -- measures -----------------------------------------------------------------


class Measure:
    """Common interface: sampling, exact-ish moments, abelianized transform."""

    algebra: NilpotentAlgebra

    def sample(self, rng: np.random.Generator, size: int,
               out: Optional[np.ndarray] = None) -> np.ndarray:
        """(size, dim) draws; written into ``out`` when it is given."""
        raise NotImplementedError

    def sample_steps(self, rng: np.random.Generator, steps: int, size: int) -> np.ndarray:
        """(steps * size, dim) rows in step-major order, bit for bit the rows
        of ``steps`` consecutive ``sample(rng, size)`` calls."""
        return np.concatenate([self.sample(rng, size) for _ in range(steps)])

    def mean_float(self) -> np.ndarray:
        raise NotImplementedError

    def moments(self) -> tuple[np.ndarray, np.ndarray]:
        """(mean, covariance) in original coordinates, in closed form."""
        raise NotImplementedError

    def char_original(self, freqs: np.ndarray) -> np.ndarray:
        """E exp(-2 i pi <freq, x>) for rows of freqs in original coordinates."""
        raise NotImplementedError

    # abelianized transform: pull the layer-1 dual vector back to the original basis
    def char_ab(self, filtration: WeightFiltration, xi_layer1: np.ndarray) -> np.ndarray:
        xi = np.atleast_2d(np.asarray(xi_layer1, dtype=float))
        idx = filtration.layer_indices(1)
        full = np.zeros((xi.shape[0], filtration.algebra.dim))
        full[:, idx] = xi
        orig = full @ filtration.adapted_inv_array.T
        return self.char_original(orig)


class AtomicMeasure(Measure):
    """Finitely many atoms at exact rational points."""

    def __init__(self, algebra: NilpotentAlgebra, points: Sequence[Sequence], weights: Sequence):
        self.algebra = algebra
        self.points: tuple[ExactVector, ...] = tuple(fracvec(p) for p in points)
        self.weights: tuple[Fraction, ...] = tuple(Fraction(w) for w in weights)
        if len(self.points) != len(self.weights):
            raise ValueError("points and weights differ in length")
        if sum(self.weights) != 1:
            raise ValueError("weights must sum to one")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be nonnegative")
        if any(len(p) != algebra.dim for p in self.points):
            raise ValueError("atom dimension mismatch")
        self.pts = np.array([[float(c) for c in p] for p in self.points])
        self._cum = np.cumsum([float(w) for w in self.weights])

    def sample(self, rng, size, out=None):
        u = rng.random(size)
        idx = np.searchsorted(self._cum, u, side="right").clip(0, len(self.points) - 1)
        return _into(out, self.pts[idx])

    def sample_steps(self, rng, steps, size):
        # Generator.random fills in order, so one call draws the same stream
        return self.sample(rng, steps * size)

    def mean_exact(self) -> ExactVector:
        return vec_mat(self.weights, self.points)

    def mean_float(self):
        return np.array([float(c) for c in self.mean_exact()])

    def moments(self):
        w = np.array([float(x) for x in self.weights])
        mean = w @ self.pts
        centered = self.pts - mean
        return mean, (centered.T * w) @ centered

    def char_original(self, freqs):
        freqs = np.atleast_2d(np.asarray(freqs, dtype=float))
        phases = np.exp(-2j * np.pi * (freqs @ self.pts.T))
        w = np.array([float(x) for x in self.weights])
        return phases @ w


class ProductMeasure(Measure):
    """Independent scalar laws, one per original coordinate."""

    def __init__(self, algebra: NilpotentAlgebra, factors: Sequence):
        if len(factors) != algebra.dim:
            raise ValueError("need one factor per coordinate")
        self.algebra = algebra
        self.factors = tuple(factors)

    def sample(self, rng, size, out=None):
        """Factor-major draws.  ``out`` with contiguous columns, such as the
        transpose of a (dim, size) buffer, takes each factor's draws in place."""
        if out is None:
            return np.stack([f.sample(rng, size) for f in self.factors], axis=-1)
        for f, col in zip(self.factors, out.T):
            f.sample(rng, size, out=col)
        return out

    def mean_float(self):
        return np.array([f.moments()[0] for f in self.factors])

    def moments(self):
        return self.mean_float(), np.diag([f.moments()[1] for f in self.factors])

    def char_original(self, freqs):
        freqs = np.atleast_2d(np.asarray(freqs, dtype=float))
        out = np.ones(freqs.shape[0], dtype=complex)
        for c, f in enumerate(self.factors):
            out = out * f.char(freqs[:, c])
        return out


class AffineImage(Measure):
    """Pushforward of a base measure under x -> x @ matrix + shift."""

    def __init__(self, base: Measure, matrix: np.ndarray, shift: np.ndarray):
        self.base = base
        self.algebra = base.algebra
        self.matrix = np.asarray(matrix, dtype=float)
        self.shift = np.asarray(shift, dtype=float)

    def sample(self, rng, size, out=None):
        return _into(out, self.base.sample(rng, size) @ self.matrix + self.shift)

    def sample_steps(self, rng, steps, size):
        return self.base.sample_steps(rng, steps, size) @ self.matrix + self.shift

    def mean_float(self):
        return self.base.mean_float() @ self.matrix + self.shift

    def moments(self):
        mean, cov = self.base.moments()
        return mean @ self.matrix + self.shift, self.matrix.T @ cov @ self.matrix

    def char_original(self, freqs):
        freqs = np.atleast_2d(np.asarray(freqs, dtype=float))
        inner = freqs @ self.matrix.T
        return self.base.char_original(inner) * np.exp(-2j * np.pi * (freqs @ self.shift))


# -- truncation -----------------------------------------------------------------


@dataclass
class TruncatedMeasure:
    """Per-layer clipping at radius N^(b/2) with first-layer recentering.

    With ``drift_layer1`` set to the layer-1 drift X, the rule acts on the
    lift (x, t = 1) of each increment to the drift extension, whose extra
    central coordinate t has weight 2: layer 1 is measured as x^(1) - X,
    layer 2 as sqrt(t^2 + |x^(2)|^2), and a clipped first layer becomes
    t X + c, with t = 0 on rows whose layer 2 clipped too.  ``None`` means
    no lift.
    """

    base: Measure
    filtration: WeightFiltration
    level: int
    c_vector_adapted: np.ndarray          # recentering constant, adapted layer-1 coords
    c_vector_exact: Optional[tuple] = None
    exceed_probability: float = 0.0
    drift_layer1: Optional[np.ndarray] = None

    def clip(self, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(clipped rows, mask of the rows that exceeded) for (M, dim) adapted
        coordinates.  Every layer is judged on the input before any write;
        when no row exceeds, the input itself comes back."""
        wf = self.filtration
        coords = np.asarray(coords, dtype=float)
        drift = self.drift_layer1
        bads: dict[int, tuple[slice, np.ndarray]] = {}  # layer -> (columns, exceeded)
        for b in range(1, wf.max_weight + 1):
            # adapted weights never decrease, so a layer is a slice: a view, not a copy
            idx = slice(bisect_left(wf.weights, b), bisect_right(wf.weights, b))
            if idx.start == idx.stop:
                continue  # an empty layer 2 gives sqrt(t^2) = 1, never above the level
            block = coords[:, idx]
            if b == 1 and drift is not None:
                norms = np.linalg.norm(block - drift, axis=-1)
            elif b == 2 and drift is not None:
                norms = np.sqrt(1.0 + (block**2).sum(axis=-1))
            else:
                norms = np.linalg.norm(block, axis=-1)
            bad = norms > float(self.level) ** (b / 2.0)
            if bad.any():
                bads[b] = (idx, bad)
        altered = np.zeros(coords.shape[0], dtype=bool)
        if not bads:
            return coords, altered
        out = coords.copy()
        for b, (idx, bad) in bads.items():
            altered |= bad
            if b > 1:
                out[bad, idx] = 0.0
            elif drift is None:
                out[bad, idx] = self.c_vector_adapted
            else:
                t = ~bads[2][1] if 2 in bads else np.ones(coords.shape[0], dtype=bool)
                out[bad, idx] = t[bad, None] * drift + self.c_vector_adapted
        return out, altered


def recentering_constant(layer1: np.ndarray, level: int) -> tuple[np.ndarray, float]:
    """(c, P(exceed)) from first-layer samples, exceeding meaning |x^(1)| > sqrt(level):

        c = -P(exceed)^{-1} E[x^(1) ; no exceed],

    with the 0/0 convention c = 0 when no sample exceeds.
    """
    bad = np.linalg.norm(layer1, axis=1) > math.sqrt(level)
    p_exceed = float(bad.mean())
    if p_exceed == 0.0:
        return np.zeros(layer1.shape[1]), 0.0
    kept_mean = layer1[~bad].sum(axis=0) / layer1.shape[0]
    return -kept_mean / p_exceed, p_exceed


TRUNCATE_MC_SAMPLES = 100_000  # draws behind a non-atomic law's recentering constant


def truncate(measure: Measure, filtration: WeightFiltration, level: int,
             rng: Optional[np.random.Generator] = None,
             drift_layer1: Optional[np.ndarray] = None) -> TruncatedMeasure:
    """Build the level-N truncation, lifted to the drift extension when the
    layer-1 drift X is given.  The recentering constant is that of
    ``recentering_constant`` on x^(1) - X: exact for atomic laws, with X
    taken as the Fraction of its float, and from ``TRUNCATE_MC_SAMPLES``
    draws of ``rng`` otherwise."""
    wf = filtration
    if level < 1:
        raise ValueError("truncation level must be >= 1")
    idx1 = wf.layer_indices(1)
    x = np.zeros(len(idx1)) if drift_layer1 is None else drift_layer1
    c_exact = None
    if isinstance(measure, AtomicMeasure):
        P, kept = Fraction(0), [Fraction(0)] * len(idx1)
        for p, w in zip(measure.points, measure.weights):
            c = wf.to_adapted(p)
            layer1 = [c[j] - Fraction(xj) for j, xj in zip(idx1, x)]
            if sum(v * v for v in layer1) > level:
                P += w
            else:
                kept = [k + w * v for k, v in zip(kept, layer1)]
        c_exact = tuple(-k / P for k in kept) if P else (Fraction(0),) * len(idx1)
        c, p_exceed = np.array([float(v) for v in c_exact]), float(P)
    else:
        layer1 = wf.to_adapted_float(measure.sample(rng, TRUNCATE_MC_SAMPLES))[:, idx1]
        c, p_exceed = recentering_constant(layer1 - x, level)
    return TruncatedMeasure(measure, wf, level, c, c_exact, p_exceed, drift_layer1)


def truncated_atoms(tm: TruncatedMeasure) -> AtomicMeasure:
    """Exact image of an atomic law under the map of ``tm.clip``, lift included."""
    if tm.c_vector_exact is None:
        raise ValueError("exact truncated atoms only exist for atomic laws")
    wf = tm.filtration
    base: AtomicMeasure = tm.base  # type: ignore[assignment]
    lift = tm.drift_layer1 is not None
    x = [Fraction(v) for v in tm.drift_layer1] if lift else [0] * len(tm.c_vector_exact)
    layers = {b: wf.layer_indices(b) for b in range(1, wf.max_weight + 1)}
    new_points = []
    for p in base.points:
        c = list(wf.to_adapted(p))
        bad = set()  # every layer is judged before any write, as in clip
        for b, idx in layers.items():
            layer = [c[j] - (x[i] if b == 1 else 0) for i, j in enumerate(idx)]
            t_sq = 1 if lift and b == 2 else 0  # the lift's t = 1 sits in layer 2
            if sum(v * v for v in layer) + t_sq > Fraction(tm.level) ** b:
                bad.add(b)
        for b in bad:
            for i, j in enumerate(layers[b]):  # layer 1 becomes t X + c, t = 0 if layer 2 clipped
                c[j] = Fraction(0) if b > 1 else tm.c_vector_exact[i] + (0 if 2 in bad else x[i])
        new_points.append(wf.from_adapted(c))
    return AtomicMeasure(base.algebra, new_points, base.weights)


# -- weight-layer moments ----------------------------------------------------------


def weight_moments(measure: Measure, filtration: WeightFiltration, order: float,
                   mc_samples: int = 200_000, seed: int = 2) -> dict[int, dict]:
    """E ||x^(b)||^(order/b) per layer; closed sum for atoms, Monte Carlo otherwise."""
    wf = filtration
    out: dict[int, dict] = {}
    if isinstance(measure, AtomicMeasure):
        for b in range(1, wf.max_weight + 1):
            idx = wf.layer_indices(b)
            if not idx:
                continue
            total = 0.0
            for p, w in zip(measure.points, measure.weights):
                c = wf.to_adapted(p)
                norm = math.sqrt(float(sum(c[j] * c[j] for j in idx)))
                total += float(w) * norm ** (order / b)
            out[b] = {"value": total, "stderr": 0.0}
        return out
    rng = np.random.default_rng(seed)
    xs = wf.to_adapted_float(measure.sample(rng, mc_samples))
    for b in range(1, wf.max_weight + 1):
        idx = wf.layer_indices(b)
        if not idx:
            continue
        vals = np.linalg.norm(xs[:, idx], axis=1) ** (order / b)
        out[b] = {
            "value": float(vals.mean()),
            "stderr": float(vals.std(ddof=1) / math.sqrt(mc_samples)),
        }
    return out


# -- gap function and aperiodicity ---------------------------------------------------


def _char_modulus_ab(measure: Measure, filtration: WeightFiltration, pts: np.ndarray) -> np.ndarray:
    return np.abs(measure.char_ab(filtration, pts))


def gap_function(measure: Measure, filtration: WeightFiltration, c: float, R: float,
                 grid_per_axis: int = 64) -> dict:
    """c * inf(1 - |char_ab|) over the dual annulus c <= |xi| <= (1+R)/c.

    Coarse box grid restricted to the annulus, then a few rounds of
    coordinate-wise golden-section refinement around the running minimizer,
    radius clamped to the annulus.  Exact closed-form transforms are used
    for every supported measure kind.
    """
    if not (0 < c < 1):
        raise ValueError("need 0 < c < 1")
    if R <= 0:
        raise ValueError("need R > 0")
    d = len(filtration.layer_indices(1))
    r_lo, r_hi = c, (1.0 + R) / c

    if d == 1:
        radii = np.linspace(r_lo, r_hi, grid_per_axis**2)
        pts = radii[:, None]
    else:
        axes = [np.linspace(-r_hi, r_hi, grid_per_axis)] * d
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        norms = np.linalg.norm(pts, axis=1)
        ring = (norms >= r_lo) & (norms <= r_hi)
        pts = pts[ring]
        # the coarse box misses the inner boundary at small c; add radial shells
        shell = np.linspace(r_lo, min(r_hi, 2.0), grid_per_axis)
        if d == 2:
            angles = np.linspace(0, 2 * np.pi, grid_per_axis, endpoint=False)
            dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        else:
            drng = np.random.default_rng(12345)
            dirs = drng.standard_normal((grid_per_axis * 4, d))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        extra = (shell[:, None, None] * dirs[None, :, :]).reshape(-1, d)
        pts = np.concatenate([pts, extra], axis=0)

    objective = 1.0 - _char_modulus_ab(measure, filtration, pts)
    best = int(np.argmin(objective))
    best_pt = pts[best].copy()
    best_val = float(objective[best])

    def f(pt):
        return float(1.0 - _char_modulus_ab(measure, filtration, pt[None, :])[0])

    step = (r_hi - r_lo) / grid_per_axis
    for _ in range(REFINE_ROUNDS):
        for axis in range(d):
            lo = best_pt.copy(); lo[axis] -= step
            hi = best_pt.copy(); hi[axis] += step
            a_pt, b_pt = lo, hi
            # golden section on the segment [a_pt, b_pt]
            x1 = a_pt + (1 - GOLDEN) * (b_pt - a_pt)
            x2 = a_pt + GOLDEN * (b_pt - a_pt)
            f1, f2 = f(_clamp_annulus(x1, r_lo, r_hi)), f(_clamp_annulus(x2, r_lo, r_hi))
            for _ in range(20):
                if f1 <= f2:
                    b_pt, x2, f2 = x2, x1, f1
                    x1 = a_pt + (1 - GOLDEN) * (b_pt - a_pt)
                    f1 = f(_clamp_annulus(x1, r_lo, r_hi))
                else:
                    a_pt, x1, f1 = x1, x2, f2
                    x2 = a_pt + GOLDEN * (b_pt - a_pt)
                    f2 = f(_clamp_annulus(x2, r_lo, r_hi))
            cand = _clamp_annulus((a_pt + b_pt) / 2, r_lo, r_hi)
            val = f(cand)
            if val < best_val:
                best_val, best_pt = val, cand
        step /= grid_per_axis
    return {
        "gap": c * max(best_val, 0.0),
        "argmin": best_pt.tolist(),
        "annulus": [r_lo, r_hi],
        "grid_per_axis": grid_per_axis,
        "refine_rounds": REFINE_ROUNDS,
    }


def _clamp_annulus(pt: np.ndarray, r_lo: float, r_hi: float) -> np.ndarray:
    n = np.linalg.norm(pt)
    if n < 1e-12:
        out = np.zeros_like(pt)
        out[0] = r_lo
        return out
    if n < r_lo:
        return pt * (r_lo / n)
    if n > r_hi:
        return pt * (r_hi / n)
    return pt


def aperiodicity_scan(measure: Measure, filtration: WeightFiltration, radius: float = 20.0,
                      grid_per_axis: int = 201, tol: float = 1e-9) -> dict:
    """Flag dual grid points where |char_ab| comes within tol of 1.

    Advisory only: a clean scan cannot prove aperiodicity, it can only
    expose a lattice resonance on the grid.
    """
    d = len(filtration.layer_indices(1))
    axes = [np.linspace(-radius, radius, grid_per_axis)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    norms = np.linalg.norm(pts, axis=1)
    pts = pts[norms > 1e-9]
    mod = _char_modulus_ab(measure, filtration, pts)
    flagged = pts[mod > 1.0 - tol]
    return {
        "radius": radius,
        "grid_per_axis": grid_per_axis,
        "n_flagged": int(flagged.shape[0]),
        "flagged": flagged[:32].tolist(),
        "max_modulus": float(mod.max()) if mod.size else 0.0,
    }
