"""Reference values computed apart from nilwalk.

Each function here derives its answer from a closed form or from first
principles, never from the program's output, so the benchmark can check
the program against it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


def levy_box_probability(box: Sequence[tuple[float, float]]) -> float:
    """P((B1, B2, A) in box) for planar Brownian motion at time 1 and its
    Levy area A = (1/2) int (B1 dB2 - B2 dB1).

    Levy's formula gives, given B = z,
        E[exp(i l A) | B = z] = (l/2)/sinh(l/2) exp(-|z|^2/2 ((l/2)coth(l/2) - 1)).
    Integrating the Gaussian density of B over the rectangle in closed form
    (error functions) and inverting in l leaves one 1-D quadrature:
        P = (1/pi) int_0^inf sech(l/2) E1(l) E2(l)/4 (sin(l c2) - sin(l c1))/l dl,
    with Ej(l) = erf(hj sqrt(k/2)) - erf(lj sqrt(k/2)), k = (l/2)coth(l/2).
    """
    from scipy.integrate import quad

    (l1, h1), (l2, h2), (c1, c2) = box

    def kappa(lam: float) -> float:
        return 1.0 if lam < 1e-8 else (lam / 2.0) / math.tanh(lam / 2.0)

    def integrand(lam: float) -> float:
        r = math.sqrt(kappa(lam) / 2.0)
        e1 = math.erf(h1 * r) - math.erf(l1 * r)
        e2 = math.erf(h2 * r) - math.erf(l2 * r)
        arc = (c2 - c1) if lam < 1e-12 else (math.sin(lam * c2) - math.sin(lam * c1)) / lam
        return e1 * e2 / 4.0 / math.cosh(lam / 2.0) * arc

    value, err = quad(integrand, 0.0, 90.0, limit=2000, epsabs=1e-13, epsrel=1e-10)
    if err > 1e-8:
        raise RuntimeError(f"Levy quadrature did not converge (error {err:.2e})")
    return value / math.pi


def rescaled_heisenberg_box(box: Sequence[tuple[float, float]], n_steps: int):
    """The box D_(1/sqrt N) applied to a box in Heisenberg coordinates
    (layer weights 1, 1, 2)."""
    s = math.sqrt(n_steps)
    (l1, h1), (l2, h2), (c1, c2) = box
    return [(l1 / s, h1 / s), (l2 / s, h2 / s), (c1 / n_steps, c2 / n_steps)]


def box_volume(box) -> float:
    v = 1.0
    for lo, hi in box:
        v *= hi - lo
    return v


def levy_per_volume(box, n_steps: int) -> float:
    """Limit of N^2 P(S_N in box) / vol(box) for the centred Heisenberg walk
    with identity layer-1 covariance: the limit law's mass of the rescaled
    box per unit of rescaled volume."""
    small = rescaled_heisenberg_box(box, n_steps)
    return levy_box_probability(small) / box_volume(small)


def uniform_moments(lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Exact mean and variance of the uniform law on [lo, hi]."""
    return (lo + hi) / 2, (hi - lo) ** 2 / 12


def mobius(n: int) -> int:
    result, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    return -result if m > 1 else result


def witt_dimension(generators: int, step: int) -> int:
    """Dimension of the free nilpotent Lie algebra: the sum over degrees
    r <= step of Witt's count (1/r) sum_(d | r) mu(d) g^(r/d)."""
    total = 0
    for r in range(1, step + 1):
        total += sum(mobius(d) * generators ** (r // d) for d in range(1, r + 1) if r % d == 0) // r
    return total
