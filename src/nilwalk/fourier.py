"""Empirical characteristic functions, dual-domain scans, weighted test norms,
and band-limited one-sided approximants.

Frequencies are linear forms in the dual of the adapted basis (which the
norm convention makes orthonormal); the restriction norm to the depth-b
ideal is the Euclidean norm of the dual coordinates sitting on weights
>= b.  The shrinking dual box at level N keeps ||xi restricted to depth b||
below N^(-b/2+gamma0) for every b; frequencies outside it are where the
product's transform is expected to die faster than any power of N, and
the scan measures exactly that, with Monte Carlo noise floors made
explicit.

The sandwich builder encloses a compactly supported piecewise-linear
function between two integrable functions whose Fourier transforms vanish
outside a compact band.  Everything is assembled from the kernel
sin^4(pi x)/(pi x)^4 and its half-shift, whose transforms are compactly
supported by Paley-Wiener; positivity, the pointwise sandwich and the L1
gap are certified by quadrature and a dense grid, while band-limitedness
holds by construction and is not tested numerically.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .config import CSV_COLUMNS, write_csv
from .filtration import WeightFiltration
from .measures import Measure
from .walks import Plan, WalkConfig, experiment, job_pool, run_plans, totals


# -- frequency bookkeeping -------------------------------------------------------


@dataclass(frozen=True)
class FrequencyPoint:
    """A dual vector in adapted coordinates with its per-depth restriction norms."""

    xi: tuple[float, ...]

    def restriction_norm(self, filtration: WeightFiltration, depth: int) -> float:
        xi = np.asarray(self.xi)
        mask = filtration.weights_array >= depth
        return float(np.linalg.norm(xi[mask]))

    def inside_reduced_domain(self, filtration: WeightFiltration, n_steps: int,
                              gamma0: float) -> bool:
        for b in range(1, filtration.max_weight + 1):
            if self.restriction_norm(filtration, b) > n_steps ** (-b / 2.0 + gamma0):
                return False
        return True


@experiment
def empirical_char_many(cfg: WalkConfig, xis: Sequence[FrequencyPoint]) -> Plan:
    """Empirical transform of the product law at several frequencies at once.

    Returns complex estimates (one per frequency) plus the generic noise
    scale 1/sqrt(M); estimates at frequency 0 are exactly 1.
    """
    mat = np.array([x.xi for x in xis])  # (n_xi, d)

    def finish(parts: list[tuple[np.ndarray, int]]) -> dict:
        total, count = totals(parts)
        return {"estimates": total / count, "stderr": 1.0 / math.sqrt(count), "M": count}

    return Plan(cfg, lambda s, _: (np.exp(-2j * np.pi * (s @ mat.T)).sum(axis=0), s.shape[0]),
                finish)


def log_frequency_grid(filtration: WeightFiltration, per_layer: int = 4,
                       lo: float = 0.01, hi: float = 2.0) -> list[FrequencyPoint]:
    """Log-spaced frequencies along each layer's first dual direction,
    straddling the reduced-domain boundary at every level in a typical grid."""
    d = filtration.algebra.dim
    out = []
    for b in range(1, filtration.max_weight + 1):
        idx = filtration.layer_indices(b)
        if not idx:
            continue
        for r in np.geomspace(lo, hi, per_layer):
            xi = np.zeros(d)
            xi[idx[0]] = r
            out.append(FrequencyPoint(tuple(xi)))
    return out


def reduced_domain_scan(filtration: WeightFiltration, measure: Measure,
                        xis: Sequence[FrequencyPoint], n_grid: Sequence[int],
                        n_replicas: int, gamma0: float, seed: int = 0,
                        nu_samples_adapted: Optional[np.ndarray] = None,
                        workers: int = 1) -> dict:
    """Modulus of the empirical transform over a frequency list and an N grid.

    Rows carry the inside/outside classification per N.  For outside
    frequencies the summary checks noise-aware monotone decay; for inside
    ones, when limit samples are supplied, the modulus is compared against
    the limit law's transform at the dilated frequency.
    """
    cfgs = [WalkConfig(filtration, measure, n_steps=int(n), n_replicas=n_replicas, seed=seed,
                       workers=workers) for n in n_grid]
    with job_pool(workers) as pool:
        reps = run_plans([empirical_char_many.plan(cfg, xis) for cfg in cfgs], pool)
    rows = []
    for n, rep in zip(n_grid, reps):
        dil = np.power(float(n), filtration.weights_array / 2.0)
        for j, xi in enumerate(xis):
            row = {
                "xi_index": j,
                "xi": list(xi.xi),
                "N": int(n),
                "modulus": float(abs(rep["estimates"][j])),
                "stderr": rep["stderr"],
                "inside": xi.inside_reduced_domain(filtration, int(n), gamma0),
            }
            if nu_samples_adapted is not None:
                dxi = np.asarray(xi.xi) * dil
                lim = np.exp(-2j * np.pi * (nu_samples_adapted @ dxi)).mean()
                row["limit_modulus"] = float(abs(lim))
            rows.append(row)

    summary = {"outside_decay_ok": True, "outside_final_max": 0.0}
    by_xi: dict[int, list[dict]] = {}
    for row in rows:
        by_xi.setdefault(row["xi_index"], []).append(row)
    for j, seq in by_xi.items():
        seq.sort(key=lambda r: r["N"])
        if all(not r["inside"] for r in seq):
            for a, b in zip(seq, seq[1:]):
                if b["modulus"] > a["modulus"] + 3 * (a["stderr"] + b["stderr"]):
                    summary["outside_decay_ok"] = False
            summary["outside_final_max"] = max(summary["outside_final_max"],
                                               seq[-1]["modulus"])
    return {"rows": rows, "gamma0": gamma0, "summary": summary}


def write_scan_csv(path: str, rep: dict, n_replicas: int, seed: int,
                   config_digest: str = "") -> None:
    """A ``reduced_domain_scan`` report as CSV, one row per (N, frequency):
    the walk columns, then ``xi`` ('|'-joined) and ``inside``."""
    write_csv(path, [{"experiment": "fourier_scan", "N": r["N"], "M": n_replicas,
                      "estimate": r["modulus"], "stderr": r["stderr"], "seed": seed,
                      "config_digest": config_digest, "inside": r["inside"],
                      "xi": "|".join(f"{v:.6g}" for v in r["xi"])}
                     for r in rep["rows"]], CSV_COLUMNS + ["xi", "inside"])


# -- weighted test-function norm ----------------------------------------------------


@dataclass(frozen=True)
class PiecewiseLinear:
    """Continuous piecewise-linear function from breakpoints (x_k, y_k);
    zero outside the breakpoint range (endpoints should carry y = 0)."""

    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __post_init__(self):
        if len(self.xs) != len(self.ys) or len(self.xs) < 2:
            raise ValueError("need matching breakpoint lists of length >= 2")
        if any(b <= a for a, b in zip(self.xs, self.xs[1:])):
            raise ValueError("breakpoints must be strictly increasing")

    def __call__(self, x):
        return np.interp(x, self.xs, self.ys, left=0.0, right=0.0)

    def slope_jumps(self) -> list[tuple[float, float]]:
        """(location, jump of derivative) including the outer corners."""
        xs, ys = self.xs, self.ys
        slopes = [0.0] + [
            (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]) for i in range(len(xs) - 1)
        ] + [0.0]
        return [(xs[i], slopes[i + 1] - slopes[i]) for i in range(len(xs))]

    def l1_norm(self) -> float:
        total = 0.0
        for i in range(len(self.xs) - 1):
            a, b = self.xs[i], self.xs[i + 1]
            ya, yb = self.ys[i], self.ys[i + 1]
            if ya * yb >= 0:
                total += 0.5 * abs(ya + yb) * (b - a)
            else:
                t = a + (b - a) * abs(ya) / (abs(ya) + abs(yb))
                total += 0.5 * abs(ya) * (t - a) + 0.5 * abs(yb) * (b - t)
        return total

    def lipschitz(self) -> float:
        return max(
            abs(self.ys[i + 1] - self.ys[i]) / (self.xs[i + 1] - self.xs[i])
            for i in range(len(self.xs) - 1)
        )

    def integral(self) -> float:
        return float(np.trapezoid(self.ys, self.xs))

    def fourier_abs(self, xi) -> np.ndarray:
        """|f_hat(xi)| from the second-derivative impulse representation."""
        xi = np.asarray(xi, dtype=float)
        out = np.zeros(xi.shape, dtype=complex)
        for x0, jump in self.slope_jumps():
            out += jump * np.exp(-2j * np.pi * xi * x0)
        small = np.abs(xi) < 1e-12
        vals = np.where(small, self.integral(), -out / (4 * np.pi**2 * np.where(small, 1.0, xi) ** 2))
        return np.abs(vals)


@dataclass(frozen=True)
class GaussianBump:
    amplitude: float = 1.0
    width: float = 1.0

    def __call__(self, x):
        return self.amplitude * np.exp(-np.asarray(x) ** 2 / (2 * self.width**2))

    def l1_norm(self):
        return self.amplitude * self.width * math.sqrt(2 * math.pi)

    def fourier_abs(self, xi):
        xi = np.asarray(xi, dtype=float)
        return self.l1_norm() * np.exp(-2 * np.pi**2 * self.width**2 * xi**2)


def weighted_test_norm(f, gap_values: Callable[[np.ndarray], np.ndarray], L: float,
                       xi_max: float = 64.0, n_points: int = 8192) -> dict:
    """||f||_L1 + integral of |f_hat| (1+|xi|)^L gap(|xi|)^(-L) over the line.

    ``gap_values`` evaluates the aperiodicity gap at an array of radii.
    The integral runs over [0, xi_max] doubled by symmetry; divergence is
    detected from the trend of dyadic tail blocks and reported as inf.
    """
    xi = np.linspace(0.0, xi_max, n_points)
    weights = (1.0 + xi) ** L / np.maximum(gap_values(xi), 1e-300) ** L
    integrand = f.fourier_abs(xi) * weights
    value = 2.0 * float(np.trapezoid(integrand, xi))

    # dyadic tail trend on the last blocks
    blocks = []
    for hi in (xi_max / 4, xi_max / 2, xi_max):
        lo = hi / 2
        m = (xi >= lo) & (xi <= hi)
        blocks.append(float(np.trapezoid(integrand[m], xi[m])))
    finite = blocks[-1] <= blocks[-2] or blocks[-1] < 1e-12
    tail = blocks[-1] / max(1.0 - blocks[-1] / max(blocks[-2], 1e-300), 1e-2) if finite else math.inf
    total = f.l1_norm() + value + (tail if finite else 0.0)
    return {
        "value": total if finite else math.inf,
        "finite": finite,
        "l1": f.l1_norm(),
        "integral_main": value,
        "tail_estimate": tail,
        "xi_max": xi_max,
        "tail_blocks": blocks,
    }


# -- band-limited sandwich ------------------------------------------------------------


def _phi4(x: np.ndarray) -> np.ndarray:
    """(sin(pi x)/(pi x))^4, the fourth power of the cardinal sine."""
    return np.sinc(np.asarray(x, dtype=float)) ** 4


def _kernel_pair(x: np.ndarray) -> np.ndarray:
    """phi4(x) + phi4(x + 1/2): strictly positive, band-limited, decay x^-4.

    Global lower bound (used for tail domination):
        value >= 0.5 / (pi (|x| + 1/2))^4.
    """
    return _phi4(x) + _phi4(x + 0.5)


_KERNEL_L1 = 4.0 / 3.0  # two copies of integral (sin pi x / pi x)^4 dx = 2/3 each
SANDWICH_ATTEMPTS = 3  # contractions band_limited_sandwich tries before it gives up


def normalized_kernel(x: np.ndarray) -> np.ndarray:
    return _kernel_pair(x) / _KERNEL_L1


@functools.cache
def _kernel_first_moment() -> float:
    # integral |x| rho(x) dx; x^-4 tails make this converge fast
    grid = np.linspace(-400.0, 400.0, 1_600_001)
    vals = np.abs(grid) * normalized_kernel(grid)
    return float(np.trapezoid(vals, grid)) + 1e-3  # tail padding


@dataclass
class SandwichResult:
    lower: Callable[[np.ndarray], np.ndarray]
    upper: Callable[[np.ndarray], np.ndarray]
    t: float
    delta1: float
    delta2: float
    centers: np.ndarray
    l1_gap_bound: float
    diagnostics: dict = field(default_factory=dict)


def band_limited_sandwich(f: Optional[PiecewiseLinear], eps: float) -> SandwichResult:
    """Enclose f between band-limited integrable functions with small L1 gap.

    The upper function is f mollified at scale 1/t plus a band-limited
    cushion covering the support; the lower one subtracts the cushion and
    a fast-decaying band-limited tail dominator.  The contraction t is
    chosen from the mollification error bound Lip(f) * m1 / t; if the
    certified L1 gap still exceeds eps the scale is doubled, finitely many
    times, before giving up with a diagnostic.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if f is None or (isinstance(f, PiecewiseLinear) and all(y == 0 for y in f.ys)):
        amp = eps / 4.0

        def lower(x):
            return -amp * normalized_kernel(np.asarray(x))

        def upper(x):
            return amp * normalized_kernel(np.asarray(x))

        return SandwichResult(lower, upper, t=1.0, delta1=amp, delta2=0.0,
                              centers=np.zeros(1), l1_gap_bound=2 * amp,
                              diagnostics={"zero_function": True})

    lip = f.lipschitz()
    l1 = f.l1_norm()
    x_lo, x_hi = f.xs[0], f.xs[-1]
    centers = np.arange(x_lo - 1.0, x_hi + 1.0 + 1e-9, 0.5)
    cover_l1 = len(centers) * _KERNEL_L1
    # centers are 1/2 apart, so all of K is within 1/4 of one: a certified
    # floor of the kernel pair within 0.26 of a center bounds the cover below
    cover_min = 0.95 * float(_kernel_pair(np.linspace(-0.26, 0.26, 4001)).min())
    m1 = _kernel_first_moment()

    # mollification error from the Lipschitz bound; pick t so that the gap
    # budget 2 * delta1 * ||cover|| stays under 0.8 eps
    t = max(8.0, 2.0 * lip * m1 * cover_l1 / (0.8 * eps * cover_min))

    for attempt in range(SANDWICH_ATTEMPTS):
        err_unif = lip * m1 / t
        delta1 = err_unif / cover_min
        # tail domination: outside K the mollified f sits below
        # ||f||_1 (3/2) t (pi (t d - 1/2))^-4 while the cushion sits above
        # (1/2) (pi (d - 1/2))^-4, so delta2 ~ 4.3 ||f||_1 / t^3 suffices
        delta2 = 35.0 * max(l1, 1.0) / t**3

        conv = _mollified(f, t)

        def cover(x):
            x = np.asarray(x, dtype=float)
            return _kernel_pair(x[..., None] - centers).sum(axis=-1)

        def upper(x, conv=conv, delta1=delta1):
            return conv(x) + delta1 * cover(x)

        def lower(x, conv=conv, delta1=delta1, delta2=delta2):
            return conv(x) - delta1 * cover(x) - delta2 * cover(x)

        gap_bound = (2 * delta1 + delta2) * cover_l1
        if gap_bound <= eps:
            return SandwichResult(
                lower, upper, t=t, delta1=delta1, delta2=delta2, centers=centers,
                l1_gap_bound=gap_bound,
                diagnostics={"attempts": attempt + 1, "mollify_error": err_unif},
            )
        t *= 2.0
    raise RuntimeError(
        f"sandwich gap bound {gap_bound:.3g} did not reach eps={eps} "
        f"within {SANDWICH_ATTEMPTS} contraction doublings"
    )


def _mollified(f: PiecewiseLinear, t: float) -> Callable[[np.ndarray], np.ndarray]:
    """f convolved with the contracted kernel t rho(t .), by dense quadrature.

    The integrand oscillates at scale 1/t, so each linear piece gets a node
    density of ~24 points per oscillation, evaluated in chunks.
    """
    u16, w16 = np.polynomial.legendre.leggauss(16)
    pieces = []
    for i in range(len(f.xs) - 1):
        a, b = f.xs[i], f.xs[i + 1]
        # composite rule: one 16-node panel per two oscillation periods 2/t
        n_panels = max(4, int(math.ceil(t * (b - a) / 2.0)))
        edges = np.linspace(a, b, n_panels + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1] - edges[0])
        y = (mids[:, None] + half * u16[None, :]).ravel()
        wts = np.broadcast_to(half * w16[None, :], (n_panels, 16)).ravel()
        pieces.append((y, wts * f(y)))

    def conv(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros(x.shape)
        for y, fw in pieces:
            for start in range(0, x.size, 4096):
                sl = slice(start, start + 4096)
                out.flat[sl] += (t * normalized_kernel(t * (x.reshape(-1)[sl, None] - y[None, :]))) @ fw
        return out

    return conv


def verify_sandwich(f: PiecewiseLinear, result: SandwichResult,
                    grid_lo: float, grid_hi: float, n_grid: int = 10_000) -> dict:
    """Grid certificate: pointwise ordering and a trapezoid L1 gap estimate."""
    x = np.linspace(grid_lo, grid_hi, n_grid)
    fx = f(x)
    lo = result.lower(x)
    hi = result.upper(x)
    violations = int(((lo > fx + 1e-12) | (hi < fx - 1e-12)).sum())
    gap = float(np.trapezoid(hi - lo, x))
    return {
        "violations": violations,
        "l1_gap_quadrature": gap,
        "l1_gap_bound": result.l1_gap_bound,
        "n_grid": n_grid,
    }
