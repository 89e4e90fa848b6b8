import math
from fractions import Fraction as F

import numpy as np
import pytest

from nilwalk.algebra import abelian, free_nilpotent, heisenberg3
from nilwalk.filtration import WeightFiltration
from nilwalk.limitlaw import DiffusionSpec, simulate_limit
from nilwalk.measures import (
    AtomicMeasure,
    Dirac1D,
    Gaussian1D,
    ProductMeasure,
    TwoPoint1D,
    Uniform1D,
    truncated_atoms,
)
from nilwalk.walks import (
    ExperimentResult,
    Plan,
    WalkConfig,
    centring,
    clt_experiment,
    drift_vector_adapted,
    gradual_truncation,
    job_pool,
    llt_box_experiment,
    loglaw_boundary_point,
    pixel_experiment,
    ratio_experiment,
    run_plans,
    theta_experiment,
    truncation_schedule,
)


def walk_products(cfg: WalkConfig, gamma0=None) -> tuple[np.ndarray, list[int]]:
    """The fold engine's recentered products in adapted coordinates, and each
    chunk's count of clipped increments; theta's clip schedule when ``gamma0``
    is given."""
    truncs = None if gamma0 is None else gradual_truncation(cfg, gamma0)
    plan = Plan(cfg, lambda s, clipped: (s.copy(), clipped), list, truncs)
    with job_pool(cfg.workers) as pool:
        chunks = run_plans([plan], pool)[0]
    return np.concatenate([s for s, _ in chunks], axis=0), [n for _, n in chunks]


@pytest.fixture(scope="module")
def line_walk():
    a = abelian(1)
    wf = WeightFiltration(a, [0])
    mu = ProductMeasure(a, [Gaussian1D()])
    return wf, mu


def test_bit_identical_reruns(heis_centered, heis_gauss):
    cfg = WalkConfig(heis_centered, heis_gauss, 8, 40_000, seed=3, chunk_size=15_000)
    r1 = llt_box_experiment(cfg, [(-0.5, 0.5)] * 3)
    r2 = llt_box_experiment(cfg, [(-0.5, 0.5)] * 3)
    assert r1.estimate == r2.estimate and r1.stderr == r2.stderr


def test_worker_count_does_not_change_results(heis_centered, heis_gauss):
    base = WalkConfig(heis_centered, heis_gauss, 8, 40_000, seed=3, chunk_size=10_000)
    threaded = WalkConfig(heis_centered, heis_gauss, 8, 40_000, seed=3,
                          chunk_size=10_000, workers=4)
    assert llt_box_experiment(base, [(-0.5, 0.5)] * 3).estimate == \
        llt_box_experiment(threaded, [(-0.5, 0.5)] * 3).estimate


def test_single_step_walk_is_the_measure(heis_centered):
    h = heis_centered.algebra
    atoms = AtomicMeasure(h, [(1, 0, 0), (-1, 0, 0)], [F(1, 2), F(1, 2)])
    cfg = WalkConfig(heis_centered, atoms, 1, 5_000, seed=0)
    xs = heis_centered.from_adapted_float(walk_products(cfg)[0])
    vals = set(map(tuple, np.round(xs, 12)))
    assert vals == {(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)}


def test_abelian_law_of_large_numbers():
    a = abelian(2)
    wf = WeightFiltration(a, [F(1, 2), 0])
    mu = ProductMeasure(a, [Gaussian1D(0.5, 1.0), Gaussian1D(0.0, 1.0)])
    cfg = WalkConfig(wf, mu, 100, 20_000, seed=1)
    xs = wf.from_adapted_float(walk_products(cfg)[0])
    se = 10.0 / math.sqrt(20_000)  # per-sample std is sqrt(N)
    assert abs(xs[:, 0].mean() - 50.0) < 4 * se
    assert abs(xs[:, 1].mean()) < 4 * se


def test_symmetric_heisenberg_third_coordinate_centered(heis_centered):
    h = heis_centered.algebra
    mix = AtomicMeasure(
        h, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)], [F(1, 4)] * 4
    )
    cfg = WalkConfig(heis_centered, mix, 32, 50_000, seed=2)
    xs = heis_centered.from_adapted_float(walk_products(cfg)[0])
    se = xs[:, 2].std() / math.sqrt(len(xs))
    assert abs(xs[:, 2].mean()) < 4 * se


def test_mean_recentering_kills_abelianized_mean(heis):
    wf = WeightFiltration(heis, [F(7, 10), F(-1, 5), 0])
    mu = ProductMeasure(heis, [Gaussian1D(0.7), Gaussian1D(-0.2), Dirac1D(0.0)])
    cfg = WalkConfig(wf, mu, 64, 40_000, seed=4, recenter="mean")
    xs, _ = walk_products(cfg)
    idx1 = wf.layer_indices(1)
    for j in idx1:
        se = xs[:, j].std() / math.sqrt(len(xs))
        assert abs(xs[:, j].mean()) <= 4 * se


def test_drift_vector_adapted(heis):
    wf = WeightFiltration(heis, [F(7, 10), 0, 0])
    mu = ProductMeasure(heis, [Gaussian1D(0.7), Gaussian1D(), Dirac1D(0.0)])
    cfg = WalkConfig(wf, mu, 8, 100, seed=0)
    x = drift_vector_adapted(cfg)
    assert np.allclose(wf.from_adapted_float(x), [0.7, 0, 0], atol=1e-12)


# -- gradual truncation -----------------------------------------------------------


def test_schedule_covers_exactly():
    sch = truncation_schedule(256, 0.2, 2)
    assert sum(c for _, c in sch) == 256
    assert sch[-1][0] == 256  # the final exponent vanishes, so the last level is N
    with pytest.raises(ValueError):
        truncation_schedule(10, 1.5, 2)


def test_gradual_truncation_of_atoms_is_exact_and_recenters_on_the_drift(heis):
    """heisenberg3 with drift e1 has an empty layer 2, so the lifted clip
    sends a clipped layer 1 to X + c, and the truncated law's layer-1 mean
    is exactly the X of the clip.  The atom (12, 0, 2) exceeds both levels,
    63 and 64."""
    wf = WeightFiltration(heis, [1, 0, 0])
    mu = AtomicMeasure(heis, [(1, 3, 0), (0, -1, 0), (12, 0, 2), (-2, 0, -1)],
                       [F(3, 10), F(3, 10), F(1, 10), F(3, 10)])
    truncs = gradual_truncation(WalkConfig(wf, mu, 64, 100, seed=3), 0.2)
    assert {tm.level for tm in truncs} == {63, 64}
    for tm in truncs:
        assert tm.c_vector_exact is not None and tm.exceed_probability == 0.1
        mean = wf.to_adapted(truncated_atoms(tm).mean_exact())
        assert list(mean[:2]) == [F(x) for x in tm.drift_layer1]


def test_theta_equals_plain_walk_for_compact_support(heis_centered):
    h = heis_centered.algebra
    mu = AtomicMeasure(h, [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)], [F(1, 4)] * 4)
    cfg = WalkConfig(heis_centered, mu, 25, 4_000, seed=9, chunk_size=1_500)
    assert np.array_equal(walk_products(cfg)[0], walk_products(cfg, 0.25)[0])


def test_theta_with_drift_matches_plain_for_compact_support(heis):
    wf = WeightFiltration(heis, [1, 0, 0])
    mu = AtomicMeasure(heis, [(1, 1, 0), (1, -1, 0), (1, 0, 1)], [F(1, 3)] * 3)
    cfg = WalkConfig(wf, mu, 30, 2_000, seed=13)
    assert np.array_equal(walk_products(cfg)[0], walk_products(cfg, 0.2)[0])


def test_theta_runs_on_the_plain_engine_with_recentering_and_workers(heis):
    """Compact support: every increment passes the clip untouched, so the
    truncated stream equals the plain one under mean recentering, on two
    workers and over several chunks."""
    wf = WeightFiltration(heis, [1, 0, 0])
    mu = AtomicMeasure(heis, [(1, 1, 0), (1, -1, 0), (1, 0, 1)], [F(1, 3)] * 3)
    cfg = WalkConfig(wf, mu, 30, 2_000, seed=13, recenter="mean", chunk_size=700, workers=2)
    plain, _ = walk_products(cfg)
    theta, clipped = walk_products(cfg, 0.2)
    assert clipped == [0, 0, 0]
    assert np.array_equal(plain, theta)


def test_theta_moments_equal_plain_walk_on_non_identity_basis():
    """free-nilpotent(2,3) with drift e1: the adapted basis is not the identity
    (it swaps coordinates 4 and 5), so theta's moments must not be converted
    to adapted coordinates a second time."""
    alg = free_nilpotent(2, 3)
    wf = WeightFiltration(alg, [1, 0, 0, 0, 0])
    mu = ProductMeasure(alg, [Uniform1D(0.5, 1.5)] + [Uniform1D(-1.0, 1.0)] * 4)
    cfg = WalkConfig(wf, mu, 64, 3_000, seed=17)
    theta = theta_experiment(cfg, 0.2)
    plain = clt_experiment(cfg)
    assert theta.extra["altered_fraction"] == 0.0
    scale = 64.0 ** (-np.array(wf.weights) / 2.0)
    assert np.allclose(np.array(theta.extra["mean_adapted"]) * scale,
                       plain.extra["mean_adapted"], rtol=1e-9, atol=1e-12)
    assert np.allclose(np.array(theta.extra["var_adapted"]) * scale**2,
                       np.diag(plain.extra["cov_adapted"]), rtol=1e-7, atol=0.0)


def test_theta_altered_fraction_decays(heis_centered, heis_gauss):
    fracs = []
    for n in (16, 64, 256):
        cfg = WalkConfig(heis_centered, heis_gauss, n, 2_000, seed=4)
        fracs.append(theta_experiment(cfg, 0.2).extra["altered_fraction"])
    assert fracs[0] >= fracs[1] >= fracs[2]


# -- deviation sets -----------------------------------------------------------------


@pytest.mark.parametrize("layers", [None, [1, 4], [5]])
def test_loglaw_boundary_point_lies_on_each_requested_layer(layers):
    """The point sits on each requested layer's first adapted direction.
    free-nilpotent(2,3) with drift e1: weights (1, 1, 3, 4, 5), an empty layer
    2 and an adapted basis that is not the identity."""
    wf = WeightFiltration(free_nilpotent(2, 3), [1, 0, 0, 0, 0])
    n, c = 256, 0.05
    x = wf.to_adapted_float(loglaw_boundary_point(wf, n, c, layers))
    wanted = [b for b in (layers or range(1, wf.max_weight + 1)) if wf.layer_indices(b)]
    for b in wanted:
        norm = float(np.linalg.norm(x[wf.layer_indices(b)]))
        assert math.isclose(norm, c * (n * math.log(n)) ** (b / 2), rel_tol=1e-12)
    rest = [j for j in range(wf.algebra.dim) if j not in {wf.layer_indices(b)[0] for b in wanted}]
    assert np.allclose(x[rest], 0.0, rtol=0.0, atol=1e-12)


# -- experiment wrappers ----------------------------------------------------------------


def test_llt_box_low_power_flag(heis_centered, heis_gauss):
    cfg = WalkConfig(heis_centered, heis_gauss, 64, 2_000, seed=5)
    res = llt_box_experiment(cfg, [(-0.05, 0.05)] * 3)
    assert res.extra["low_power"]
    assert res.estimate >= 0.0


def test_zero_hit_llt_stderr_counts_one_hit():
    """free-nilpotent(2,3) drifting along e1 ends near x1 = 16 after 16 steps,
    so the box [-2,2]^5 gets no hit; the stderr is that of one hit in M."""
    alg = free_nilpotent(2, 3)
    wf = WeightFiltration(alg, [1, 0, 0, 0, 0])
    mu = ProductMeasure(alg, [Uniform1D(0.5, 1.5)] + [Uniform1D(-1.0, 1.0)] * 4)
    m = 6000
    res = llt_box_experiment(WalkConfig(wf, mu, 16, m, seed=0, recenter="none"),
                             [(-2.0, 2.0)] * 5)
    scale = 16.0 ** (wf.hom_dim / 2.0)
    assert res.extra["hits"] == 0 and res.estimate == 0.0
    assert res.stderr == scale * math.sqrt((1 / m) * (1 - 1 / m) / m)
    assert res.extra["low_power"]


def test_llt_far_recentering_kills_mass(heis_centered, heis_gauss):
    cfg = WalkConfig(heis_centered, heis_gauss, 64, 20_000, seed=6,
                     recenter="variable", variable_shift=[40.0, 0.0, 0.0])
    res = llt_box_experiment(cfg, [(-1.0, 1.0)] * 3)
    assert res.extra["hits"] == 0


def test_clt_moments_shape(heis_centered, heis_gauss):
    cfg = WalkConfig(heis_centered, heis_gauss, 64, 30_000, seed=7)
    rep = clt_experiment(cfg, histogram_bins=20)
    cov1 = np.array(rep.extra["layer_cov"][1])
    assert cov1.shape == (2, 2)
    assert abs(cov1[0, 0] - 1.0) < 0.05
    assert abs(cov1[1, 1] - 1.0) < 0.05
    assert abs(cov1[0, 1]) < 0.03
    assert sum(rep.extra["histograms"][0]) <= 30_000


def test_ratio_consistent_at_identity(heis_centered, heis_gauss):
    # denominator fed with dilated-walk samples from an independent seed:
    # the ratio then has to be compatible with 1
    cfg_num = WalkConfig(heis_centered, heis_gauss, 64, 60_000, seed=8)
    cfg_den = WalkConfig(heis_centered, heis_gauss, 64, 60_000, seed=1008)
    den, _ = walk_products(cfg_den)
    scale = np.power(64.0, -heis_centered.weights_array / 2.0)
    res = ratio_experiment(cfg_num, [(-2.0, 2.0), (-2.0, 2.0), (-4.0, 4.0)],
                           den * scale)
    assert abs(res.estimate - 1.0) <= 4 * res.stderr


def test_ratio_with_no_walk_hit_has_a_positive_stderr(heis_centered, heis_gauss):
    """A bank at x1 = 10 dilates to x1 = 20, about 10 sigma beyond the walk's
    reach at N = 4: every bank sample hits, the walk never does, and the
    stderr counts the walk side as one hit in M."""
    m = 2_000
    bank = np.zeros((500, 3))
    bank[:, 0] = 10.0
    res = ratio_experiment(WalkConfig(heis_centered, heis_gauss, 4, m, seed=3),
                           [(19.0, 21.0), (-1.0, 1.0), (-1.0, 1.0)], bank)
    assert res.extra["hits_walk"] == 0 and res.extra["hits_nu"] == 500
    assert res.estimate == 0.0
    assert res.stderr == 1 / m > 0


@pytest.mark.parametrize("recenter", ["none", "mean", "variable"])
def test_centring_translates_the_limit_by_n_x_times_the_walks_shift(recenter):
    """free-nilpotent(2,3) drifting along e1: t = N X * r in every mode, mean
    leaves the limit sample exactly where it is, and none the walk."""
    alg = free_nilpotent(2, 3)
    wf = WeightFiltration(alg, [1, 0, 0, 0, 0])
    mu = ProductMeasure(alg, [Uniform1D(0.5, 1.5)] + [Uniform1D(-1.0, 1.0)] * 4)
    cfg = WalkConfig(wf, mu, 9, 10, recenter=recenter,
                     variable_shift=[0.5, -0.5, 0.25, 0.1, -0.1])
    r, t = centring(cfg)
    nx = 9 * drift_vector_adapted(cfg)
    assert np.any(nx)
    np.testing.assert_allclose(t, wf.adapted_algebra.product_map()(nx, r), atol=1e-12)
    if recenter == "mean":
        assert not np.any(t) and np.array_equal(r, -nx)
    if recenter == "none":
        assert not np.any(r) and np.array_equal(t, nx)
    if recenter == "variable":
        assert np.any(r) and np.any(t)


@pytest.mark.parametrize("recenter", ["mean", "variable"])
def test_pixel_and_ratio_place_the_limit_by_the_walks_centring(heis, heis_drift_e1, recenter):
    """Drifted heisenberg3, recentered: pixel's largest gap stays within its
    noise scale, and the ratio in the box [-3,3]^3 is within 0.2 of 1 (a limit
    sample left where it is reads 0.40 under variable recentering)."""
    mu = ProductMeasure(heis, [Gaussian1D(1.0, 1.0), Gaussian1D(), Gaussian1D()])
    spec = DiffusionSpec.from_measure(heis_drift_e1, mu, n_time_steps=32)
    bank = simulate_limit(spec, np.random.default_rng(11), 20_000)
    cfg = WalkConfig(heis_drift_e1, mu, 16, 20_000, seed=12, recenter=recenter,
                     variable_shift=[0.5, -0.5, 0.25])
    res = pixel_experiment(cfg, bank)
    assert res.estimate <= res.stderr
    res = ratio_experiment(cfg, [(-3.0, 3.0)] * 3, bank)
    assert abs(res.estimate - 1.0) <= 0.2


def test_pixel_constant_function_gap_zero(heis_centered, heis_gauss):
    cfg = WalkConfig(heis_centered, heis_gauss, 16, 5_000, seed=9)
    nu = np.zeros((1000, 3))
    rep = pixel_experiment(cfg, nu, tests=[("const", lambda x: np.ones(x.shape[0]))])
    assert rep.extra["max_gap"] == 0.0


def test_experiment_result_noise_aware_rule():
    res = ExperimentResult("x", 1, 1, estimate=1.10, stderr=0.05, target=1.0)
    assert res.within(rel_tol=0.05)  # 3 sigma allowance covers it
    res2 = ExperimentResult("x", 1, 1, estimate=1.30, stderr=0.05, target=1.0)
    assert not res2.within(rel_tol=0.05)
    # a non-finite estimate or stderr measures nothing and never passes
    for est, err in [(math.inf, math.inf), (1.0, math.inf), (math.nan, 0.05)]:
        res3 = ExperimentResult("x", 1, 1, estimate=est, stderr=err, target=1.0)
        assert not res3.within(rel_tol=0.05)
