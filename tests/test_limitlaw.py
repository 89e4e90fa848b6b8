import hashlib
import math
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.stats import ks_2samp, shapiro

from nilwalk import limitlaw
from nilwalk.algebra import abelian, filiform4, free_nilpotent, heisenberg3
from nilwalk.filtration import WeightFiltration
from nilwalk.limitlaw import (
    DiffusionSpec,
    kde_density,
    levy_area_reference,
    measure_moments_adapted,
    simulate_limit,
)
from nilwalk.measures import (
    AffineImage,
    AtomicMeasure,
    Atoms1D,
    Dirac1D,
    Gaussian1D,
    ProductMeasure,
    TwoPoint1D,
    Uniform1D,
)


@pytest.fixture(scope="module")
def plane():
    a = abelian(2)
    wf = WeightFiltration(a, [0, 0])
    mu = ProductMeasure(a, [Gaussian1D(), Gaussian1D()])
    return wf, mu


@pytest.fixture(scope="module")
def heis_spec(heis_centered, heis_gauss):
    return DiffusionSpec.from_measure(heis_centered, heis_gauss, n_time_steps=512)


@pytest.fixture(scope="module")
def heis_limit_samples(heis_spec):
    return simulate_limit(heis_spec, np.random.default_rng(10), 100_000)


@pytest.fixture(scope="module")
def levy_samples():
    return levy_area_reference(np.random.default_rng(11), 100_000, 512)


def test_moment_extraction_closed_form(heis_centered, heis_gauss):
    mean, cov = measure_moments_adapted(heis_gauss, heis_centered)
    assert np.allclose(mean, 0.0)
    assert np.allclose(cov[:2, :2], np.eye(2))


ATOM_POINTS = [(1, 0, 0, 0, 0), (0, 2, 1, 0, "1/3"), (-1, 1, 3, "2/5", 0), (0, 0, 0, 1, 1)]
ATOM_WEIGHTS = ["1/2", "1/4", "1/8", "1/8"]
FACTORS = [Gaussian1D(0.5, 2.0), Uniform1D(-1.0, 3.0), TwoPoint1D(1.0, -2.0, 0.3), Dirac1D(0.25),
           Atoms1D((0.0, 1.0, 4.0), (0.5, 0.25, 0.25))]
FACTOR_MEANS = [0.5, 1.0, -1.1, 0.25, 1.25]
FACTOR_VARS = [4.0, 16 / 12, 1.89, 0.0, 2.6875]


def exact_atomic_moments(points, weights):
    """Mean and covariance of an atomic law in Fractions, then as floats."""
    pts = [[F(c) for c in p] for p in points]
    ws = [F(w) for w in weights]
    d = len(pts[0])
    mean = [sum(w * p[a] for p, w in zip(pts, ws)) for a in range(d)]
    cov = [[sum(w * (p[a] - mean[a]) * (p[b] - mean[b]) for p, w in zip(pts, ws))
            for b in range(d)] for a in range(d)]
    return np.array(mean, dtype=float), np.array(cov, dtype=float)


@pytest.mark.parametrize("case", ["affine-of-atoms", "affine-of-product", "affine-of-affine"])
def test_affine_moments_are_the_transformed_base_moments(case):
    alg = free_nilpotent(2, 3)
    wf = WeightFiltration(alg, alg.basis_vector(0))  # its adapted basis is not the identity
    rng = np.random.default_rng(5)
    a, s, b, t = rng.normal(size=(5, 5)), rng.normal(size=5), rng.normal(size=(5, 5)), rng.normal(size=5)
    if case == "affine-of-atoms":
        base = AtomicMeasure(alg, ATOM_POINTS, ATOM_WEIGHTS)
        m, c = exact_atomic_moments(ATOM_POINTS, ATOM_WEIGHTS)
    else:
        base = ProductMeasure(alg, FACTORS)
        m, c = np.array(FACTOR_MEANS), np.diag(FACTOR_VARS)
    mu, mean, cov = AffineImage(base, a, s), m @ a + s, a.T @ c @ a
    if case == "affine-of-affine":
        mu, mean, cov = AffineImage(mu, b, t), m @ a @ b + s @ b + t, (a @ b).T @ c @ (a @ b)
    got_mean, got_cov = mu.moments()
    np.testing.assert_allclose(got_mean, mean, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(got_cov, cov, rtol=1e-12, atol=1e-12)
    ainv = wf.adapted_inv_array
    assert not np.array_equal(ainv, np.eye(5))
    ad_mean, ad_cov = measure_moments_adapted(mu, wf)
    np.testing.assert_allclose(ad_mean, mean @ ainv, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(ad_cov, ainv.T @ cov @ ainv, rtol=1e-12, atol=1e-12)


def test_abelian_diffusion_is_standard_gaussian(plane):
    wf, mu = plane
    spec = DiffusionSpec.from_measure(wf, mu, n_time_steps=256)
    zs = simulate_limit(spec, np.random.default_rng(0), 50_000)
    assert np.abs(zs.mean(axis=0)).max() < 0.02
    assert np.abs(zs.std(axis=0) - 1.0).max() < 0.02
    # joint normality of a 1D projection
    stat, pvalue = shapiro(zs[:4000, 0])
    assert pvalue > 1e-4


def test_levy_reference_moments(levy_samples):
    la = levy_samples
    n = len(la)
    assert abs(la[:, 2].mean()) < 4 * la[:, 2].std() / math.sqrt(n)
    assert abs(la[:, 0].var() - 1.0) < 0.02
    assert abs(la[:, 1].var() - 1.0) < 0.02
    # the signed-area variance at time 1 is 1/4
    assert abs(la[:, 2].var() - 0.25) < 0.01


def test_diffusion_matches_levy_reference(heis_limit_samples, levy_samples):
    critical = 1.63 * math.sqrt(2 / 100_000)  # two-sample, 1% level
    for j in range(3):
        stat = ks_2samp(heis_limit_samples[:, j], levy_samples[:, j]).statistic
        assert stat < critical


def test_drifted_limit_with_flat_bracket_is_gaussian():
    # drifted walk on the Heisenberg group: [X, g^[1]] = [X, g^[2]] fails,
    # but on an abelian algebra any drift keeps the limit Gaussian
    a = abelian(3)
    wf = WeightFiltration(a, [1, 0, 0])
    mu = ProductMeasure(a, [Gaussian1D(1.0), Gaussian1D(), Gaussian1D()])
    spec = DiffusionSpec.from_measure(wf, mu, n_time_steps=128)
    zs = simulate_limit(spec, np.random.default_rng(3), 20_000)
    _, pvalue = shapiro(zs[:4000, 0])
    assert pvalue > 1e-4


def test_kde_gaussian_example(plane):
    wf, mu = plane
    spec = DiffusionSpec.from_measure(wf, mu, n_time_steps=128)
    zs = simulate_limit(spec, np.random.default_rng(1), 100_000)
    rep = kde_density(zs, [0.0, 0.0])
    target = 1.0 / (2 * math.pi)
    assert abs(rep["density"] - target) < 0.05 * target
    far = kde_density(zs, [8.0, 8.0])
    assert far["density"] < 1e-6


def test_kde_heisenberg_origin(levy_samples):
    rep = kde_density(levy_samples, [0.0, 0.0, 0.0], bandwidth_factor=0.6)
    assert abs(rep["density"] - 0.25) < 0.025


def test_kde_requires_samples():
    with pytest.raises(ValueError):
        kde_density(np.zeros((100, 2)), [0, 0])


def test_step_halving_consistency(heis_centered, heis_gauss):
    # weak first-order scheme: halving the step moves the origin density by
    # less than 2 percent beyond the Monte Carlo noise of the two estimates
    out = []
    for steps in (256, 512):
        spec = DiffusionSpec.from_measure(heis_centered, heis_gauss, n_time_steps=steps)
        zs = simulate_limit(spec, np.random.default_rng(7), 100_000)
        out.append(kde_density(zs, [0, 0, 0], bandwidth_factor=0.6))
    noise = 3 * math.hypot(out[0]["stderr"], out[1]["stderr"])
    assert abs(out[1]["density"] - out[0]["density"]) < 0.02 * out[1]["density"] + noise


def test_dilation_self_similarity(heis_centered, heis_spec, heis_limit_samples):
    # dilated limit samples match an independent run in distribution
    other = simulate_limit(heis_spec, np.random.default_rng(12), 100_000)
    n_steps = 9.0
    dil = np.power(n_steps, heis_centered.weights_array / 2.0)
    a = heis_limit_samples * dil
    b = other * dil
    critical = 1.63 * math.sqrt(2 / 100_000)
    for j in range(3):
        assert ks_2samp(a[:, j], b[:, j]).statistic < critical


# SHA-256 of simulate_limit's bytes at 1000 samples, 16 time steps, passes of
# 300 samples and seed 20240601, recorded before the Euler loop folded in place
LIMIT_DIGESTS = {
    "heisenberg3": "cc083f178178e4f9685bc9b14d126f1cc2d0db96d9bb240e3ca7235695287e9c",
    "free-nilpotent(2,3)+e1": "1627341ff63ad95cfeebf6d05509f030427d3a34443f28f094e16a2e9805736d",
    "filiform4+e2": "91ae9e57e80364b8cf4e5460522c94a80e8ae56bc083f37466e0ef413be9fabc",
}


@pytest.mark.parametrize("name", sorted(LIMIT_DIGESTS))
def test_simulate_limit_bytes_are_pinned(name, monkeypatch):
    """Centred heisenberg3 with a layer-2 mean, free-nilpotent(2,3) with drift
    e1 and filiform4 with drift e2; more samples than one pass takes."""
    monkeypatch.setattr(limitlaw, "LIMIT_CHUNK", 300)
    alg, drift, factors = {
        "heisenberg3": (heisenberg3(), [0, 0, 0],
                        [Gaussian1D(), Gaussian1D(), Gaussian1D(0.3, 0.5)]),
        "free-nilpotent(2,3)+e1": (free_nilpotent(2, 3), [1, 0, 0, 0, 0],
                                   [Uniform1D(0.5, 1.5), Gaussian1D(), Gaussian1D(0.25, 1.0),
                                    Uniform1D(-1.0, 1.0), Gaussian1D()]),
        "filiform4+e2": (filiform4(), [0, 1, 0, 0],
                         [Gaussian1D(), Uniform1D(0.0, 2.0), Gaussian1D(0.5, 1.0),
                          Gaussian1D(-0.25, 1.0)]),
    }[name]
    spec = DiffusionSpec.from_measure(WeightFiltration(alg, drift), ProductMeasure(alg, factors),
                                      n_time_steps=16)
    z = simulate_limit(spec, np.random.default_rng(20240601), 1000)
    assert hashlib.sha256(z.tobytes()).hexdigest() == LIMIT_DIGESTS[name]
