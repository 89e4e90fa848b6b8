"""Acceptance suite: one test per numbered criterion, printed pass lines.

Monte Carlo tolerances follow the package-wide convention: a target is met
when the estimate falls within max(3 * stderr, stated relative tolerance),
and monotone-trend statements are asserted up to the 3-sigma noise of the
compared estimates.  Distribution comparisons are Kolmogorov-Smirnov tests
at a stated family-wise level: the marginals of one comparison share that
level through a Bonferroni split, so two samplers of the same law fail the
comparison at most about that often.  Exact statements are asserted with
zero tolerance.  Every run is seeded, so the suite is deterministic end to end.
"""

import math
import random
import time
from fractions import Fraction as F
from functools import lru_cache

import numpy as np
import pytest
from scipy.stats import ks_2samp

from nilwalk.algebra import (
    abelian,
    filiform4,
    free_nilpotent,
    heisenberg3,
)
from nilwalk.filtration import WeightFiltration
from nilwalk.fourier import FrequencyPoint, PiecewiseLinear, band_limited_sandwich, \
    empirical_char_many, verify_sandwich
from nilwalk.freealg import dynkin_product, verify_periodization_identity
from nilwalk.limitlaw import DiffusionSpec, kde_density, levy_area_reference, simulate_limit
from nilwalk.measures import AffineImage, AtomicMeasure, Dirac1D, Gaussian1D, ProductMeasure
from nilwalk.nilmanifold import cesaro_equidistribution, lazy_walk_bound_profile
from nilwalk.pathswap import (
    BlockSystem,
    FElement,
    sample_pairs,
    verify_block_bracket_identity,
    verify_block_decoupling,
    verify_low_degree_annihilation,
)
from nilwalk.walks import (
    WalkConfig,
    clt_experiment,
    job_pool,
    llt_box_experiment,
    loglaw_boundary_point,
    ratio_experiment,
    run_plans,
)

HEIS = heisenberg3()
CENTERED = WeightFiltration(HEIS, [0, 0, 0])
GAUSS = ProductMeasure(HEIS, [Gaussian1D(), Gaussian1D(), Dirac1D(0.0)])


def report(criterion: str, passed: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}  ({detail})")
    assert passed, detail


# -- shared heavy samplers -----------------------------------------------------------


@lru_cache(maxsize=1)
def levy_bank():
    return levy_area_reference(np.random.default_rng(2024_04), 100_000, 2048)


@lru_cache(maxsize=1)
def diffusion_bank():
    spec = DiffusionSpec.from_measure(CENTERED, GAUSS, n_time_steps=2048)
    return simulate_limit(spec, np.random.default_rng(2024_05), 100_000)


@lru_cache(maxsize=1)
def ratio_nu_bank():
    spec = DiffusionSpec.from_measure(CENTERED, GAUSS, n_time_steps=512)
    return simulate_limit(spec, np.random.default_rng(2024_06), 1_000_000)


# -- 1: exact symbolic suite ------------------------------------------------------------


def test_01_exact_symbolic_suite():
    t0 = time.time()

    # antisymmetry + Jacobi + declared class, exact, on every bundled algebra
    bundled = [
        heisenberg3(), abelian(3), filiform4(),
        free_nilpotent(2, 2), free_nilpotent(2, 3), free_nilpotent(2, 4),
        free_nilpotent(3, 2), free_nilpotent(3, 3),
    ]
    for alg in bundled:
        alg.validate()

    # group-product associativity: 200 random rational triples at class 4
    alg4 = free_nilpotent(2, 4)
    rng = random.Random(20231201)
    for _ in range(200):
        x, y, z = (
            tuple(F(rng.randint(-6, 6), 3) for _ in range(alg4.dim)) for _ in range(3)
        )
        assert alg4.bch_exact(alg4.bch_exact(x, y), z) == alg4.bch_exact(x, alg4.bch_exact(y, z))

    # support periodization identity for N <= 6, t <= min(N, 4)
    for n in range(2, 7):
        for t in range(1, min(n, 4) + 1):
            assert verify_periodization_identity(n, t, 4), (n, t)

    # the three block-swap facts on every (a, k, n') with a <= 3, k <= 2, n' <= 2
    for a in (2, 3):
        for k in (1, 2):
            for nprime in (1, 2):
                bs = BlockSystem(a, k, nprime)
                limit = 16 if bs.n_indices <= 12 else 6
                pairs = sample_pairs(bs, limit=limit)
                for sigma, tau in pairs:
                    assert verify_low_degree_annihilation(bs, sigma, tau, 4), (a, k, nprime)
                    assert verify_block_decoupling(bs, sigma, tau, 4), (a, k, nprime)
                algebra = heisenberg3() if a == 2 else free_nilpotent(3, 3)
                gens = bs.swaps()
                sigma = FElement(bs, [g for g in gens if g[0] % 2 == 1])
                tau = FElement(bs, [g for g in gens if g[0] % 2 == 0])
                arng = random.Random(a * 100 + k * 10 + nprime)
                for j in range(nprime):
                    xs = []
                    for p in range(bs.n_indices):
                        left = any(p in bs.block_positions(j, -off) for off in range(1, a))
                        xs.append(
                            algebra.zero_vector() if left else
                            tuple(F(arng.randint(-6, 6), 3) for _ in range(algebra.dim))
                        )
                    assert verify_block_bracket_identity(bs, sigma, tau, j, algebra, xs)

    # filtration facts: nesting, central-series sandwich, depth-2s vanishing,
    # and the two homogeneous dimensions of the running example
    assert CENTERED.hom_dim == 4
    drifted = WeightFiltration(HEIS, [1, 0, 0])
    assert drifted.hom_dim == 5
    dcs = HEIS.descending_central_series()
    for wf in (CENTERED, drifted):
        top = 2 * HEIS.step
        assert wf.ideal(top).dim == 0
        for i in range(1, top):
            for j_ in range(1, top):
                target = wf.ideal(i + j_)
                for u in wf.ideal(i).basis:
                    for v in wf.ideal(j_).basis:
                        assert target.contains(HEIS.bracket_exact(u, v))
        for i in range(1, top + 1):
            lower = dcs[i - 1] if i - 1 < len(dcs) else dcs[-1]
            upper = dcs[i // 2] if i // 2 < len(dcs) else dcs[-1]
            assert lower.is_subspace_of(wf.ideal(i))
            assert wf.ideal(i).is_subspace_of(upper)

    elapsed = time.time() - t0
    report("1 exact-symbolic", elapsed < 60.0,
           f"all identities exact, {elapsed:.1f}s < 60s")


# -- 2: abelian anchor ---------------------------------------------------------------


def test_02_abelian_local_limit_anchor():
    t0 = time.time()
    a = abelian(1)
    wf = WeightFiltration(a, [0])
    mu = ProductMeasure(a, [Gaussian1D()])
    cfg = WalkConfig(wf, mu, n_steps=256, n_replicas=1_000_000, seed=20240201)
    res = llt_box_experiment(cfg, [(-0.5, 0.5)])
    # sqrt(2 pi N) P(S_N in B) -> |B| = 1; equivalently sqrt(N) P -> (2 pi)^(-1/2)
    estimate = math.sqrt(2 * math.pi) * res.estimate
    stderr = math.sqrt(2 * math.pi) * res.stderr
    elapsed = time.time() - t0
    ok = abs(estimate - 1.0) <= max(3 * stderr, 0.05) and elapsed < 120
    report("2 abelian-anchor", ok,
           f"sqrt(2 pi N) hit-rate = {estimate:.4f} +/- {stderr:.4f}, "
           f"target 1 +/- 5%, {elapsed:.0f}s < 120s")


# -- 3: Heisenberg local-limit constant -------------------------------------------------


def test_03_heisenberg_llt_constant():
    t0 = time.time()
    box = [(-0.5, 0.5)] * 3
    results = []
    for n in (64, 128, 256):
        cfg = WalkConfig(CENTERED, GAUSS, n_steps=n, n_replicas=2_000_000,
                         seed=20240300 + n, recenter="none", chunk_size=500_000)
        res = llt_box_experiment(cfg, box)
        res.target = 0.25
        results.append(res)
    elapsed = time.time() - t0

    final = results[-1]
    ok_final = final.within(rel_tol=0.20)
    # trend toward the constant across the grid, up to combined 3-sigma noise
    ok_trend = True
    for prev, nxt in zip(results, results[1:]):
        gap_prev = abs(prev.estimate - 0.25)
        gap_next = abs(nxt.estimate - 0.25)
        if gap_next > gap_prev + 3 * (prev.stderr + nxt.stderr):
            ok_trend = False
    detail = ", ".join(
        f"N={r.n_steps}: {r.estimate:.3f}+/-{r.stderr:.3f} ({r.extra['hits']} hits)"
        for r in results
    )
    report("3 heisenberg-llt", ok_final and ok_trend and elapsed < 600,
           f"{detail}; target 0.25, {elapsed:.0f}s < 600s")


# -- 4: limit-density cross-check ---------------------------------------------------------


def marginal_ks_gate(a, b, level):
    """Two-sample KS tests on every marginal at family-wise `level`.

    Bonferroni split: each of the d marginals is tested at level / d with the
    asymptotic critical value sqrt(-ln(alpha / 2) / 2) * sqrt((n + m) / (n m)).
    Returns (passed, critical, per-marginal ks_2samp results).
    """
    alpha = level / a.shape[1]
    n, m = len(a), len(b)
    critical = math.sqrt(-math.log(alpha / 2) / 2) * math.sqrt((n + m) / (n * m))
    results = [ks_2samp(a[:, j], b[:, j]) for j in range(a.shape[1])]
    return all(r.statistic < critical for r in results), critical, results


def test_04_limit_density_cross_check():
    la = levy_bank()
    rep = kde_density(la, [0.0, 0.0, 0.0], bandwidth_factor=0.6)
    allowance = 0.10 * 0.25
    ok_kde = abs(rep["density"] - 0.25) <= allowance

    nu = diffusion_bank()
    level = 0.01
    ok_ks, critical, results = marginal_ks_gate(nu, la, level)

    # negative control: the same gate must reject the diffusion bank dilated
    # by delta_{1.03}, so a pass above is not vacuous
    dilated = nu * np.array([1.03, 1.03, 1.03**2])
    control_passed, _, control = marginal_ks_gate(dilated, la, level)

    report("4 limit-density", ok_kde and ok_ks and not control_passed,
           f"density(0) = {rep['density']:.4f} +/- {rep['stderr']:.4f} vs 1/4, "
           f"{abs(rep['density'] - 0.25) / allowance:.0%} of the 10% allowance; "
           f"marginal KS D/p "
           f"{['%.4f/%.3f' % (r.statistic, r.pvalue) for r in results]} "
           f"< {critical:.4f} per marginal (alpha {level / len(results):.4f}, "
           f"family-wise {level:.0%}); delta_1.03 control D "
           f"{['%.4f' % r.statistic for r in control]} rejected={not control_passed}")


# -- 5: central limit rescaling ------------------------------------------------------------


def test_05_clt_covariance():
    cfg = WalkConfig(CENTERED, GAUSS, n_steps=512, n_replicas=100_000, seed=20240500)
    rep = clt_experiment(cfg)
    cov1 = np.array(rep.extra["layer_cov"][1])
    dev = np.abs(cov1 - np.eye(2)).max()
    ok_layer1 = dev <= 0.05

    walk_var3 = rep.extra["cov_adapted"][2][2]
    nu = diffusion_bank()
    nu_var3 = float(nu[:, 2].var())
    ok_var3 = abs(walk_var3 - nu_var3) <= 0.10 * nu_var3
    report("5 clt", ok_layer1 and ok_var3,
           f"layer-1 cov dev {dev:.4f} <= 0.05; third-coordinate var "
           f"{walk_var3:.4f} vs diffusion {nu_var3:.4f} (10%)")


# -- 6: transform decay outside the shrinking dual box ---------------------------------------


def test_06_fourier_domain_reduction():
    gamma0 = 0.1
    n_grid = [16, 64, 256]
    outside = [
        (0.40, 0.00, 0.00), (0.00, 0.40, 0.00), (0.30, 0.30, 0.00),
        (0.50, 0.20, 0.00), (0.00, 0.00, 0.09), (0.00, 0.00, 0.12),
        (0.00, 0.00, 0.20), (0.00, 0.00, 0.50), (0.20, 0.00, 0.10),
        (0.35, 0.10, 0.15),
    ]
    xis = [FrequencyPoint(x) for x in outside]
    for xi in xis:
        for n in n_grid:
            assert not xi.inside_reduced_domain(CENTERED, n, gamma0)

    moduli = {}
    stderrs = {}
    for n in n_grid:
        cfg = WalkConfig(CENTERED, GAUSS, n_steps=n, n_replicas=100_000,
                         seed=20240600 + n)
        rep = empirical_char_many(cfg, xis)
        moduli[n] = np.abs(rep["estimates"])
        stderrs[n] = rep["stderr"]

    ok_decay = True
    for j in range(len(xis)):
        seq = [moduli[n][j] for n in n_grid]
        for (na, a), (nb, b) in zip(zip(n_grid, seq), zip(n_grid[1:], seq[1:])):
            if b > a + 3 * (stderrs[na] + stderrs[nb]):
                ok_decay = False
    final_max = float(moduli[256].max())
    ok_final = final_max < 0.05

    lattice = AtomicMeasure(
        HEIS, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)], [F(1, 4)] * 4,
    )
    cfg_lat = WalkConfig(CENTERED, lattice, n_steps=256, n_replicas=20_000, seed=20240699)
    rep_lat = empirical_char_many(cfg_lat, [FrequencyPoint((1.0, 0.0, 0.0))])
    control = float(abs(rep_lat["estimates"][0]))
    ok_control = control > 0.9

    report("6 fourier-reduction", ok_decay and ok_final and ok_control,
           f"outside decay noise-aware ok={ok_decay}, max modulus at N=256 "
           f"{final_max:.4f} < 0.05, lattice control {control:.3f} > 0.9")


# -- 7: ratio against the dilated limit law ---------------------------------------------------


def test_07_ratio_llt():
    box = [(-2.0, 2.0), (-2.0, 2.0), (-8.0, 8.0)]
    nu = ratio_nu_bank()
    cfg = WalkConfig(CENTERED, GAUSS, n_steps=256, n_replicas=2_000_000,
                     seed=20240700, recenter="none", chunk_size=500_000)
    points = [("origin", None), ("loglaw-boundary", loglaw_boundary_point(CENTERED, 256, 0.05))]
    # the two translations read one fold of the walk
    with job_pool(cfg.workers) as pool:
        results = run_plans([ratio_experiment.plan(cfg, box, nu, g=g) for _, g in points], pool)
    outcomes = [(label, res, res.within(rel_tol=0.20)) for (label, _), res in zip(points, results)]
    detail = "; ".join(
        f"{label}: ratio {r.estimate:.3f}+/-{r.stderr:.3f}" for label, r, _ in outcomes
    )
    report("7 ratio-llt", all(ok for _, _, ok in outcomes), detail + "; target 1 +/- 0.2")


# -- 8: band-limited sandwich -------------------------------------------------------------------


def test_08_band_limited_sandwich():
    hat = PiecewiseLinear((-1.0, 0.0, 1.0), (0.0, 1.0, 0.0))
    res = band_limited_sandwich(hat, 0.1)
    rep = verify_sandwich(hat, res, -6.0, 6.0, n_grid=10_000)
    ok = rep["violations"] == 0 and rep["l1_gap_quadrature"] < 0.1
    report("8 sandwich", ok,
           f"violations {rep['violations']} over 10^4 grid points, "
           f"gap {rep['l1_gap_quadrature']:.4f} < 0.1")


# -- 9: lazy-walk comparison bound -----------------------------------------------------------------


def test_09_lazy_walk_bound():
    prof = lazy_walk_bound_profile(range(4, 15))
    ok = (
        prof["fitted_constant"] <= 10.0
        and prof["max_over_min"] < 5.0
        and all(r["value"] >= 0 for r in prof["rows"])
    )
    report("9 lazy-walk", ok,
           f"fitted C = {prof['fitted_constant']:.3f} <= 10, "
           f"normalized max/min = {prof['max_over_min']:.2f} < 5")


# -- 10: Cesaro equidistribution on the compact quotient ---------------------------------------------


def test_10_cesaro_equidistribution():
    base = AtomicMeasure(HEIS, [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
                         [F(2, 5), F(3, 10), F(3, 10)])
    mat = np.array([[1.0, 0, 0], [0, 1.0, 0],
                    [math.sqrt(2), math.sqrt(3), 0.0]])
    mu = AffineImage(base, mat, np.zeros(3))
    rep = cesaro_equidistribution(mu, 2000, 100, cells_per_axis=8,
                                  seed=20241000, checkpoints=[500, 1000, 2000])
    d = [rep["checkpoints"][cp]["discrepancy"] for cp in (500, 1000, 2000)]
    ok = d[2] < 0.1 and d[0] >= d[1] >= d[2]
    report("10 cesaro-equid", ok,
           f"max-cell discrepancy {['%.4f' % x for x in d]} decreasing, final < 0.1")
