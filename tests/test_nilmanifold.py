import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilwalk.algebra import heisenberg3
from nilwalk.measures import AffineImage, AtomicMeasure, Gaussian1D, ProductMeasure, TwoPoint1D
from nilwalk.nilmanifold import (
    cell_index,
    cesaro_equidistribution,
    exp_to_second_kind,
    fold,
    fold_second_kind,
    haar_control,
    lattice_element,
    lazy_walk_bound_profile,
    lazy_walk_tv_bound,
    occupation_expectation_closed,
    occupation_expectation_exact,
    second_kind_to_exp,
)


def drifted_aperiodic_measure(heis):
    """Atoms at e1, e2 and (sqrt2, sqrt3, 0): irrational directions in the
    abelianization, drift nonzero, generated subgroup dense."""
    base = AtomicMeasure(heis, [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
                         [F(2, 5), F(3, 10), F(3, 10)])
    mat = np.array([[1.0, 0, 0], [0, 1.0, 0],
                    [math.sqrt(2), math.sqrt(3), 0.0]])
    return AffineImage(base, mat, np.zeros(3))


def test_fold_examples():
    assert np.allclose(fold(np.array([0.3, 0.4, 0.9])), [0.3, 0.4, 0.9])
    assert np.allclose(fold(np.array([1.3, 0.0, 0.0])), [0.3, 0.0, 0.0])
    for abc in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (3, -2, 7)]:
        assert np.allclose(fold(lattice_element(*abc)), 0.0, atol=1e-12)


def test_fold_idempotent():
    rng = np.random.default_rng(0)
    xs = rng.uniform(-10, 10, (500, 3))
    once = fold(xs)
    assert np.allclose(fold(once), once, atol=1e-12)
    t = fold_second_kind(xs)
    assert (t >= 0).all() and (t < 1).all()


def test_second_kind_roundtrip():
    rng = np.random.default_rng(1)
    xs = rng.uniform(-3, 3, (100, 3))
    assert np.allclose(second_kind_to_exp(exp_to_second_kind(xs)), xs, atol=1e-12)


def circle_close(u, v, tol=1e-8):
    d = np.abs(np.asarray(u) - np.asarray(v)) % 1.0
    return bool((np.minimum(d, 1.0 - d) < tol).all())


@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5),
       st.floats(-8, 8), st.floats(-8, 8), st.floats(-8, 8))
@settings(max_examples=80, deadline=None)
def test_fold_right_coset_invariance(a, b, c, x1, x2, x3):
    # stay away from the cube faces: there the representative legitimately
    # jumps (measure-zero set), and float rounding can land the two
    # computations on different branches
    from hypothesis import assume

    t = exp_to_second_kind(np.array([x1, x2, x3]))
    for coord in (t[0], t[1]):
        assume(min(coord % 1.0, 1.0 - coord % 1.0) > 1e-6)
    heis = heisenberg3()
    pm = heis.product_map()
    x = np.array([x1, x2, x3])
    lam = lattice_element(a, b, c)
    lhs = fold_second_kind(pm(x[None, :], lam[None, :])[0])
    rhs = fold_second_kind(x)
    assert np.allclose(lhs[:2], rhs[:2], atol=1e-8)
    assert circle_close(lhs[2], rhs[2])


def test_cell_index_partitions_unit_cube():
    rng = np.random.default_rng(2)
    t = rng.random((10_000, 3))
    idx = cell_index(t, 4)
    assert idx.min() >= 0 and idx.max() < 64
    counts = np.bincount(idx, minlength=64)
    assert (counts > 0).all()


def test_haar_control_at_floor():
    rep = haar_control(200_000)
    assert rep["discrepancy"] < 0.001


def test_cesaro_decreasing_discrepancy(heis):
    mu = drifted_aperiodic_measure(heis)
    rep = cesaro_equidistribution(mu, 1000, 60, 8, seed=3, checkpoints=[250, 500, 1000])
    d = [rep["checkpoints"][cp]["discrepancy"] for cp in (250, 500, 1000)]
    assert d[0] >= d[1] >= d[2]
    assert d[2] < 0.05


def test_cesaro_center_control_large_discrepancy(heis):
    central = AtomicMeasure(heis, [(0, 0, F(1, 3)), (0, 0, F(-2, 7))], [F(1, 2), F(1, 2)])
    rep = cesaro_equidistribution(central, 400, 40, 8, seed=4)
    assert rep["checkpoints"][400]["discrepancy"] > 0.1


def test_cesaro_validates_inputs(heis):
    mu = drifted_aperiodic_measure(heis)
    with pytest.raises(ValueError):
        cesaro_equidistribution(mu, 100, 10, checkpoints=[50])  # misses n_steps


@pytest.mark.parametrize("kwargs", [
    {"cells_per_axis": 0},
    {"n_replicas": 0},
    {"checkpoints": [0, 100]},
    {"checkpoints": [-5, 100]},
])
def test_cesaro_rejects_empty_grids_and_checkpoints(heis, kwargs):
    args = {"n_steps": 100, "n_replicas": 10, **kwargs}
    with pytest.raises(ValueError):
        cesaro_equidistribution(drifted_aperiodic_measure(heis), **args)


def reference_cesaro(measure, n_steps, n_replicas, cells_per_axis=8, seed=0,
                     checkpoints=None, start=None):
    """The per-step loop: one sample, fold, cell count and product per step."""
    checkpoints = sorted(set(checkpoints or [n_steps]))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    product = measure.algebra.product_map()
    n_cells = cells_per_axis**3
    counts = np.zeros(n_cells, dtype=np.int64)
    s = np.zeros((n_replicas, 3)) if start is None else np.tile(start, (n_replicas, 1))
    results = {}
    done = 0
    for cp in checkpoints:
        while done < cp:
            np.add.at(counts, cell_index(fold_second_kind(s), cells_per_axis), 1)
            s = product(s, measure.sample(rng, n_replicas))
            done += 1
        total = counts.sum()
        emp = counts / total
        results[cp] = {
            "discrepancy": float(np.abs(emp - 1.0 / n_cells).max()),
            "relative_discrepancy": float(np.abs(emp * n_cells - 1.0).max()),
            "n_samples": int(total),
        }
    return {"cells_per_axis": cells_per_axis, "n_replicas": n_replicas,
            "checkpoints": results, "final_counts": counts.tolist(), "seed": seed}


def gaussian_measure(heis):
    return ProductMeasure(heis, [Gaussian1D(0.3, 0.8), Gaussian1D(-0.1, 1.1),
                                 Gaussian1D(0.05, 0.4)])


def central_measure(heis):
    return AtomicMeasure(heis, [(0, 0, F(1, 3)), (0, 0, F(-2, 7))], [F(1, 2), F(1, 2)])


# (law, replicas, steps, checkpoints, start); at 60, 100 and 1 replica a block
# holds 68, 40 and 4096 steps, and no checkpoint but the last falls on an edge
BLOCKED_CASES = [
    ("affine-atoms", 100, 1000, [7, 95, 401, 1000], None),
    ("affine-atoms", 60, 300, [50, 137, 300], None),
    ("affine-atoms", 1, 5000, [1, 4097, 5000], None),
    ("affine-atoms", 4097, 12, [5, 12], None),
    ("gaussian", 100, 300, [33, 300], None),
    ("gaussian", 60, 150, [69, 150], (0.25, -1.5, 3.0)),
    ("central", 100, 400, [41, 400], None),
    ("central", 1, 4100, [4100], (0.5, 0.5, 0.2)),
]


@pytest.mark.parametrize("law,replicas,steps,checkpoints,start", BLOCKED_CASES)
def test_blocked_walk_matches_per_step_loop(heis, law, replicas, steps, checkpoints, start):
    measure = {"affine-atoms": drifted_aperiodic_measure, "gaussian": gaussian_measure,
               "central": central_measure}[law](heis)
    start = None if start is None else np.array(start)
    kwargs = dict(cells_per_axis=5, seed=11, checkpoints=checkpoints, start=start)
    got = cesaro_equidistribution(measure, steps, replicas, **kwargs)
    want = reference_cesaro(measure, steps, replicas, **kwargs)
    assert got == want


@pytest.mark.parametrize("law", ["atoms", "gaussian", "two-point", "affine-atoms",
                                 "affine-gaussian"])
@pytest.mark.parametrize("steps,size", [(1, 1), (1, 50), (7, 1), (40, 100), (3, 4097)])
def test_sample_steps_equals_per_step_draws(heis, law, steps, size):
    mat = np.array([[0.7, -1.2, 0.4], [0.3, 0.9, -2.1], [1.5, 0.2, 0.8]])
    shift = np.array([0.1, -0.3, 2.0])
    measure = {
        "atoms": lambda: central_measure(heis),
        "gaussian": lambda: gaussian_measure(heis),
        "two-point": lambda: ProductMeasure(heis, [TwoPoint1D(-1.0, 2.0, 0.3),
                                                   Gaussian1D(), TwoPoint1D(0.0, 1.0)]),
        "affine-atoms": lambda: drifted_aperiodic_measure(heis),
        "affine-gaussian": lambda: AffineImage(gaussian_measure(heis), mat, shift),
    }[law]()
    blocked = measure.sample_steps(np.random.default_rng(5), steps, size)
    rng = np.random.default_rng(5)
    per_step = np.concatenate([measure.sample(rng, size) for _ in range(steps)])
    assert blocked.shape == (steps * size, 3)
    assert np.array_equal(blocked, per_step)


# -- lazy-walk bound ----------------------------------------------------------------


@pytest.mark.parametrize("i", [1, 2, 5])
@pytest.mark.parametrize("horizon", [4, 9, 16, 33])
def test_occupation_closed_form_matches_direct_sum(i, horizon):
    assert occupation_expectation_exact(i, horizon) == occupation_expectation_closed(i, horizon)


def test_occupation_expectation_saturates_at_two():
    # every positive state is eventually visited for an expected two ticks
    for i in (1, 3, 7):
        val = occupation_expectation_exact(i, 400)
        assert 0 < 2 - val < F(1, 10**50)


def test_lazy_bound_positive_and_decaying():
    values = [lazy_walk_tv_bound(2**e) for e in range(4, 9)]
    assert all(v > 0 for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_lazy_bound_profile():
    prof = lazy_walk_bound_profile(range(4, 15))
    assert prof["fitted_constant"] <= 10.0
    assert prof["max_over_min"] < 5.0
    # the normalized sequence decreases: the log factor is an over-count
    norms = [r["normalized"] for r in prof["rows"]]
    assert all(a > b for a, b in zip(norms, norms[1:]))
