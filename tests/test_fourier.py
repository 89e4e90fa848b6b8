import math
from fractions import Fraction as F

import numpy as np
import pytest

from nilwalk.algebra import abelian, heisenberg3
from nilwalk.filtration import WeightFiltration
from nilwalk.fourier import (
    FrequencyPoint,
    GaussianBump,
    PiecewiseLinear,
    band_limited_sandwich,
    empirical_char_many,
    log_frequency_grid,
    normalized_kernel,
    reduced_domain_scan,
    verify_sandwich,
    weighted_test_norm,
)
from nilwalk.measures import AtomicMeasure, Dirac1D, Gaussian1D, ProductMeasure
from nilwalk.walks import WalkConfig


@pytest.fixture(scope="module")
def line_cfg():
    a = abelian(1)
    wf = WeightFiltration(a, [0])
    mu = ProductMeasure(a, [Gaussian1D()])
    return WalkConfig(wf, mu, n_steps=1, n_replicas=100_000, seed=21)


def test_char_at_zero_is_one(line_cfg):
    rep = empirical_char_many(line_cfg, [FrequencyPoint((0.0,))])
    assert rep["estimates"][0] == 1.0 + 0j


def test_char_gaussian_single_step(line_cfg):
    xi = 0.4
    rep = empirical_char_many(line_cfg, [FrequencyPoint((xi,))])
    est, se = rep["estimates"][0], rep["stderr"]
    target = math.exp(-2 * math.pi**2 * xi**2)
    assert abs(est - target) < 4 * se
    assert abs(est.imag) < 4 * se


def test_char_conjugate_symmetry(line_cfg):
    rep = empirical_char_many(line_cfg, [FrequencyPoint((0.3,)), FrequencyPoint((-0.3,))])
    a, b = rep["estimates"]
    assert np.isclose(a, np.conj(b))


def test_char_modulus_bounded(heis_centered, heis_gauss):
    cfg = WalkConfig(heis_centered, heis_gauss, n_steps=4, n_replicas=20_000, seed=3)
    pts = [FrequencyPoint(tuple(x)) for x in np.random.default_rng(0).uniform(-1, 1, (6, 3))]
    rep = empirical_char_many(cfg, pts)
    assert (np.abs(rep["estimates"]) <= 1.0 + 3 * rep["stderr"]).all()


def test_reduced_domain_membership(heis_centered):
    inside = FrequencyPoint((0.001, 0.0, 0.0005))
    outside = FrequencyPoint((0.5, 0.0, 0.0))
    assert inside.inside_reduced_domain(heis_centered, 16, 0.1)
    assert not outside.inside_reduced_domain(heis_centered, 16, 0.1)
    # the boundary shrinks with N
    edge = FrequencyPoint((0.2, 0.0, 0.0))
    assert edge.inside_reduced_domain(heis_centered, 16, 0.1)
    assert not edge.inside_reduced_domain(heis_centered, 4096, 0.1)


def test_log_grid_straddles_boundary(heis_centered):
    xis = log_frequency_grid(heis_centered, per_layer=5, lo=0.001, hi=1.0)
    marks = [xi.inside_reduced_domain(heis_centered, 64, 0.1) for xi in xis]
    assert any(marks) and not all(marks)


def test_scan_decay_and_lattice_control(heis_centered, heis_gauss):
    outside = [FrequencyPoint((0.4, 0.0, 0.0)), FrequencyPoint((0.0, 0.0, 0.12))]
    rep = reduced_domain_scan(heis_centered, heis_gauss, outside, [16, 64],
                              n_replicas=30_000, gamma0=0.1, seed=5)
    assert rep["summary"]["outside_decay_ok"]
    assert rep["summary"]["outside_final_max"] < 0.1

    h = heis_centered.algebra
    lattice = AtomicMeasure(
        h, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)], [F(1, 4)] * 4,
    )
    resonant = [FrequencyPoint((1.0, 0.0, 0.0))]
    rep2 = reduced_domain_scan(heis_centered, lattice, resonant, [16, 64],
                               n_replicas=5_000, gamma0=0.1, seed=6)
    for row in rep2["rows"]:
        assert row["modulus"] > 0.9


def test_scan_inside_matches_limit_transform(heis_centered, heis_gauss):
    from nilwalk.limitlaw import DiffusionSpec, simulate_limit

    spec = DiffusionSpec.from_measure(heis_centered, heis_gauss, n_time_steps=256)
    nu = simulate_limit(spec, np.random.default_rng(8), 50_000)
    inside = [FrequencyPoint((0.02, 0.0, 0.0))]
    rep = reduced_domain_scan(heis_centered, heis_gauss, inside, [64],
                              n_replicas=50_000, gamma0=0.1, seed=9,
                              nu_samples_adapted=nu)
    row = rep["rows"][0]
    assert row["inside"]
    assert row["modulus"] > 0.5
    assert abs(row["modulus"] - row["limit_modulus"]) < 0.05


# -- test-function transforms and norms ---------------------------------------------


def test_piecewise_linear_transform_oracle():
    hat = PiecewiseLinear((-1.0, 0.0, 1.0), (0.0, 1.0, 0.0))
    xs = np.linspace(-1, 1, 40_001)
    for xi in (0.0, 0.3, 1.7):
        direct = abs(np.trapezoid(hat(xs) * np.exp(-2j * np.pi * xi * xs), xs))
        assert abs(hat.fourier_abs(np.array([xi]))[0] - direct) < 1e-6
    assert abs(hat.l1_norm() - 1.0) < 1e-12
    assert hat.lipschitz() == 1.0


def test_weighted_norm_weight_one_reduction():
    hat = PiecewiseLinear((-1.0, 0.0, 1.0), (0.0, 1.0, 0.0))
    rep = weighted_test_norm(hat, lambda r: np.ones_like(r), L=0.0,
                             xi_max=128.0, n_points=1 << 16)
    # the transform of the unit hat is sinc^2 with unit integral
    assert abs(rep["value"] - 2.0) < 0.05
    assert rep["finite"]


def test_weighted_norm_finiteness_cases(line_cfg):
    from nilwalk.measures import gap_function

    wf, mu = line_cfg.filtration, line_cfg.measure
    radii = np.geomspace(0.05, 200, 16)
    gaps = np.array([gap_function(mu, wf, 0.1, float(r))["gap"] for r in radii])

    def gap_vals(r):
        idx = np.searchsorted(radii, np.asarray(r, float)).clip(0, len(radii) - 1)
        return gaps[idx]

    bump = GaussianBump(1.0, 0.5)
    assert weighted_test_norm(bump, gap_vals, L=3.0)["finite"]
    hat = PiecewiseLinear((-1.0, 0.0, 1.0), (0.0, 1.0, 0.0))
    rep = weighted_test_norm(hat, gap_vals, L=3.0)
    assert not rep["finite"] and rep["value"] == math.inf
    # compactly banded transform: finite for any weight growth
    class Banded:
        def l1_norm(self):
            return 1.0

        def fourier_abs(self, xi):
            xi = np.asarray(xi, float)
            return np.where(np.abs(xi) <= 2.0, 1.0, 0.0)

    assert weighted_test_norm(Banded(), gap_vals, L=6.0)["finite"]


# -- the sandwich --------------------------------------------------------------------


def test_sandwich_zero_function():
    res = band_limited_sandwich(None, 0.1)
    x = np.linspace(-5, 5, 2001)
    assert np.allclose(res.upper(x), -res.lower(x))
    assert np.allclose(res.upper(x), (0.1 / 4) * normalized_kernel(x))
    assert res.l1_gap_bound < 0.1


def test_sandwich_triangular_hat():
    hat = PiecewiseLinear((-1.0, 0.0, 1.0), (0.0, 1.0, 0.0))
    res = band_limited_sandwich(hat, 0.25)
    rep = verify_sandwich(hat, res, -6.0, 6.0, n_grid=4_000)
    assert rep["violations"] == 0
    assert rep["l1_gap_quadrature"] < 0.25
    # enclosure cannot cost much mass
    x = np.linspace(-15, 15, 12_001)
    upper_l1 = float(np.trapezoid(np.abs(res.upper(x)), x))
    assert upper_l1 <= hat.l1_norm() + 2 * 0.25


def test_sandwich_asymmetric_profile():
    f = PiecewiseLinear((-2.0, -1.0, 0.5, 1.0), (0.0, 0.75, 0.25, 0.0))
    res = band_limited_sandwich(f, 0.3)
    rep = verify_sandwich(f, res, -7.0, 7.0, n_grid=3_000)
    assert rep["violations"] == 0
    assert rep["l1_gap_quadrature"] < 0.3


def test_sandwich_rejects_bad_eps():
    with pytest.raises(ValueError):
        band_limited_sandwich(None, 0.0)
