import math
from fractions import Fraction as F

import numpy as np
import pytest

from nilwalk.algebra import abelian, free_nilpotent, heisenberg3
from nilwalk.filtration import WeightFiltration
from nilwalk.measures import (
    AffineImage,
    AtomicMeasure,
    Atoms1D,
    Dirac1D,
    Gaussian1D,
    ProductMeasure,
    TruncatedMeasure,
    TwoPoint1D,
    Uniform1D,
    aperiodicity_scan,
    gap_function,
    truncate,
    truncated_atoms,
    weight_moments,
)


@pytest.fixture(scope="module")
def line():
    a = abelian(1)
    return a, WeightFiltration(a, [0])


def test_sampling_is_deterministic(heis, heis_gauss):
    a = heis_gauss.sample(np.random.default_rng(5), 100)
    b = heis_gauss.sample(np.random.default_rng(5), 100)
    assert np.array_equal(a, b)


def test_sample_into_buffer_rows_is_bit_identical(heis):
    """Each factor writes its own row of a (dim, m) buffer, in the same
    factor-major draw order as a plain sample, over two calls in a row."""
    alg = free_nilpotent(2, 3)
    mu = ProductMeasure(alg, [Gaussian1D(0.3, 1.7), Uniform1D(-1.0, 0.7), TwoPoint1D(-1.0, 2.0, 0.3),
                              Atoms1D((0.0, 1.5, -2.25), (0.25, 0.5, 0.25)), Dirac1D(0.75)])
    measures = [mu, AtomicMeasure(heis, [(1, 0, 0), (0, 1, F(1, 3))], [F(1, 3), F(2, 3)]),
                AffineImage(ProductMeasure(heis, [Gaussian1D(), Uniform1D(0.0, 2.0), Dirac1D(1.0)]),
                            np.arange(9.0).reshape(3, 3), np.array([1.0, -1.0, 0.5]))]
    for measure in measures:
        d = measure.algebra.dim
        plain, into = np.random.default_rng(11), np.random.default_rng(11)
        buf = np.full((d, 1000), np.nan)
        for _ in range(2):
            expected = measure.sample(plain, 1000)
            got = measure.sample(into, 1000, out=buf.T)
            assert got is buf.T or np.shares_memory(got, buf)
            assert np.ascontiguousarray(buf.T).tobytes() == expected.tobytes()


def test_atoms_validation(heis):
    with pytest.raises(ValueError):
        AtomicMeasure(heis, [(0, 0, 0)], [F(1, 2)])
    with pytest.raises(ValueError):
        AtomicMeasure(heis, [(0, 0)], [F(1)])


def test_dirac_and_two_point(heis):
    delta = AtomicMeasure(heis, [(0, 0, 0)], [F(1)])
    assert np.array_equal(delta.sample(np.random.default_rng(0), 16), np.zeros((16, 3)))
    two = AtomicMeasure(heis, [(1, 0, 0), (-1, 0, 0)], [F(1, 2), F(1, 2)])
    assert two.mean_exact() == (0, 0, 0)
    xs = two.sample(np.random.default_rng(1), 50_000)
    assert abs(xs[:, 0].mean()) < 0.02


# -- truncation: exact atom oracles ------------------------------------------------


def test_truncation_zero_over_zero_convention(heis, heis_centered):
    m = AtomicMeasure(heis, [(F(1, 2), 0, 0)], [F(1)])
    tm = truncate(m, heis_centered, 4)
    assert tm.c_vector_exact == (F(0), F(0))
    assert tm.exceed_probability == 0.0
    assert truncated_atoms(tm).points == m.points


def test_truncation_symmetric_case(heis, heis_centered):
    # atoms {(2,0,0): 1/2, (0,0,0): 1/2} at level 1: the kept mean is zero,
    # so the clipped atom moves to the origin
    m = AtomicMeasure(heis, [(2, 0, 0), (0, 0, 0)], [F(1, 2), F(1, 2)])
    tm = truncate(m, heis_centered, 1)
    assert tm.c_vector_exact == (F(0), F(0))
    assert truncated_atoms(tm).points == ((0, 0, 0), (0, 0, 0))


def test_truncation_recentering_constant(heis, heis_centered):
    # atoms {(2,0,0): 1/4, (-2/3,0,0): 3/4} at level 1:
    # c = -(1/4)^{-1} * (3/4 * (-2/3)) = 2, and the first-layer mean of the
    # truncated law vanishes exactly
    m = AtomicMeasure(heis, [(2, 0, 0), (F(-2, 3), 0, 0)], [F(1, 4), F(3, 4)])
    tm = truncate(m, heis_centered, 1)
    assert tm.c_vector_exact == (F(2), F(0))
    out = truncated_atoms(tm)
    mean = out.mean_exact()
    assert mean[0] == 0 and mean[1] == 0


def test_truncation_centers_first_layer_for_random_atoms(heis, heis_centered):
    import random

    rng = random.Random(17)
    pts = [tuple(F(rng.randint(-9, 9), 2) for _ in range(3)) for _ in range(6)]
    wts = [F(1, 6)] * 6
    m = AtomicMeasure(heis, pts, wts)
    for level in (1, 2, 4):
        out = truncated_atoms(truncate(m, heis_centered, level))
        mean = out.mean_exact()
        # first layer exactly centered; deeper layers unconstrained
        assert mean[0] == 0 and mean[1] == 0


def test_truncated_fraction_decays(heis, heis_centered, heis_gauss):
    tms = [truncate(heis_gauss, heis_centered, n, np.random.default_rng(1)) for n in (1, 4, 16)]
    rows = heis_centered.to_adapted_float(heis_gauss.sample(np.random.default_rng(9), 100_000))
    fractions = [tm.clip(rows)[1].mean() for tm in tms]
    assert fractions[0] >= fractions[1] >= fractions[2]
    assert fractions[2] < 0.01


def test_truncation_map_matches_atom_transform(heis, heis_centered):
    m = AtomicMeasure(heis, [(2, 0, 0), (F(-2, 3), 0, 0)], [F(1, 4), F(3, 4)])
    tm = truncate(m, heis_centered, 1)
    pts = heis_centered.to_adapted_float(m.pts)
    clipped = tm.clip(pts)[0]
    expected = np.array([[float(c) for c in heis_centered.to_adapted(p)]
                         for p in truncated_atoms(tm).points])
    assert np.allclose(clipped, expected)


@pytest.mark.parametrize("alg", [heisenberg3(), free_nilpotent(2, 3), free_nilpotent(3, 2)],
                         ids=lambda a: a.name)
def test_lifted_clip_matches_exact_truncated_atoms(alg):
    """The float clip, lifted by the law's layer-1 drift X, maps each atom to
    the adapted point of its image under ``truncated_atoms``.  On
    free-nilpotent(3,2) layer 2 is not empty, so some rows clip layers 1 and
    2 together and take t = 0."""
    import random

    rng = random.Random(23)
    wf = WeightFiltration(alg, [1] + [0] * (alg.dim - 1))
    idx1 = wf.layer_indices(1)
    clipped, both = 0, 0
    for _ in range(6):
        pts = [tuple(F(rng.randint(-60, 60), 7) for _ in range(alg.dim)) for _ in range(12)]
        m = AtomicMeasure(alg, pts, [F(1, 12)] * 12)
        x = wf.to_adapted_float(m.mean_float())[idx1]
        rows = wf.to_adapted_float(m.pts)
        for level in (1, 2, 4, 9):
            tm = truncate(m, wf, level, drift_layer1=x)
            out, altered = tm.clip(rows)
            expected = np.array([[float(c) for c in wf.to_adapted(p)]
                                 for p in truncated_atoms(tm).points])
            assert np.allclose(out, expected, rtol=0.0, atol=1e-12)
            clipped += int(altered.sum())
            both += int(((out[:, idx1] == tm.c_vector_adapted).all(axis=1) & altered).sum())
    assert clipped > 100
    assert both > 0 if wf.layer_indices(2) else both == 0


def test_clip_rule_on_hand_built_rows():
    """One rule with and without the drift lift, on free-nilpotent(3,2) with
    drift e1: layers (1, 1, 1, 2, 3, 3), level 4, so the radii are 2, 4, 8."""
    alg = free_nilpotent(3, 2)
    wf = WeightFiltration(alg, [1, 0, 0, 0, 0, 0])
    assert wf.weights == (1, 1, 1, 2, 3, 3)
    base = ProductMeasure(alg, [Dirac1D()] * alg.dim)
    drift = np.array([1.0, 0.0, 0.0])
    c = np.array([0.25, -0.5, 0.125])
    rows = np.array([
        [1.5, 0.0, 0.0, 1.0, 1.0, 1.0],  # nothing exceeds, lifted or not
        [4.0, 0.0, 0.0, 1.0, 1.0, 1.0],  # layer 1 only
        [0.0, 3.0, 0.0, 5.0, 1.0, 1.0],  # layers 1 and 2
        [0.5, 0.0, 0.0, 3.9, 1.0, 1.0],  # 15 < |x2|^2 <= 16: sqrt(1 + |x2|^2) > 4
        [0.5, 0.0, 0.0, 1.0, 9.0, 0.0],  # layer 3 only
    ])
    lifted = TruncatedMeasure(base, wf, 4, c, drift_layer1=drift)
    plain = TruncatedMeasure(base, wf, 4, c)

    quiet = rows[:1]
    for tm in (lifted, plain):
        out, altered = tm.clip(quiet)
        assert out is quiet
        assert np.array_equal(altered, [False])

    out, altered = lifted.clip(rows)
    assert np.array_equal(altered, [False, True, True, True, True])
    expected = rows.copy()
    expected[1, :3] = drift + c          # t = 1: X + c
    expected[2, :3] = c                  # layer 2 clipped too, so t = 0
    expected[2, 3] = 0.0
    expected[3, 3] = 0.0
    expected[4, 4:] = 0.0
    assert np.array_equal(out, expected)

    out, altered = plain.clip(rows)
    assert np.array_equal(altered, [False, True, True, False, True])
    expected = rows.copy()
    expected[1, :3] = c
    expected[2, :3] = c
    expected[2, 3] = 0.0
    expected[4, 4:] = 0.0
    assert np.array_equal(out, expected)


# -- weight-layer moments ----------------------------------------------------------


def test_weight_moments_atoms(heis, heis_centered):
    delta = AtomicMeasure(heis, [(0, 0, 0)], [F(1)])
    wm = weight_moments(delta, heis_centered, 2)
    assert wm[1]["value"] == 0.0 and wm[2]["value"] == 0.0
    two = AtomicMeasure(heis, [(1, 0, 0), (-1, 0, 0)], [F(1, 2), F(1, 2)])
    assert weight_moments(two, heis_centered, 2)[1]["value"] == 1.0


def test_weight_moments_gaussian(heis, heis_centered, heis_gauss):
    wm = weight_moments(heis_gauss, heis_centered, 2, mc_samples=400_000)
    assert abs(wm[1]["value"] - 2.0) < 6 * wm[1]["stderr"] + 0.01


# -- gap function -------------------------------------------------------------------


def test_gap_standard_gaussian(line):
    a, wf = line
    g = ProductMeasure(a, [Gaussian1D()])
    rep = gap_function(g, wf, 0.1, 1.0)
    # transform exp(-2 pi^2 xi^2) is monotone, so the infimum sits at the
    # inner radius: gap = c (1 - exp(-2 pi^2 c^2))
    assert abs(rep["gap"] - 0.1 * (1 - math.exp(-2 * math.pi**2 * 0.01))) < 1e-6
    assert abs(abs(rep["argmin"][0]) - 0.1) < 1e-3


def test_gap_lattice_law_vanishes(line):
    a, wf = line
    lat = AtomicMeasure(a, [(0,), (1,)], [F(1, 2), F(1, 2)])
    assert gap_function(lat, wf, 0.5, 2.0)["gap"] < 1e-8


def test_gap_three_point_irrational_positive(line):
    a, wf = line
    m = ProductMeasure(a, [Atoms1D((0.0, 1.0, math.sqrt(2)), (1 / 3, 1 / 3, 1 / 3))])
    for c, big_r in [(0.1, 1.0), (0.2, 5.0), (0.05, 10.0)]:
        assert gap_function(m, wf, c, big_r)["gap"] > 1e-5


def test_gap_nonincreasing_in_radius(line):
    a, wf = line
    g = ProductMeasure(a, [Uniform1D(-1.0, 1.0)])
    vals = [gap_function(g, wf, 0.1, r)["gap"] for r in (0.5, 2.0, 8.0)]
    assert vals[0] >= vals[1] >= vals[2] - 1e-12


def test_gap_heisenberg_layer(heis, heis_centered, heis_gauss):
    rep = gap_function(heis_gauss, heis_centered, 0.1, 1.0, grid_per_axis=48)
    assert abs(rep["gap"] - 0.1 * (1 - math.exp(-2 * math.pi**2 * 0.01))) < 2e-4


def test_gap_parameter_validation(line):
    a, wf = line
    g = ProductMeasure(a, [Gaussian1D()])
    with pytest.raises(ValueError):
        gap_function(g, wf, 1.5, 1.0)
    with pytest.raises(ValueError):
        gap_function(g, wf, 0.1, -1.0)


# -- aperiodicity scan -----------------------------------------------------------------


def test_scan_gaussian_clean(line):
    a, wf = line
    g = ProductMeasure(a, [Gaussian1D()])
    assert aperiodicity_scan(g, wf, radius=5.0, grid_per_axis=101)["n_flagged"] == 0


def test_scan_flags_integer_lattice(line):
    a, wf = line
    lat = AtomicMeasure(a, [(0,), (1,), (2,)], [F(1, 3)] * 3)
    rep = aperiodicity_scan(lat, wf, radius=5.0, grid_per_axis=101)
    assert rep["n_flagged"] > 0


def test_scan_three_point_clean_to_radius_20(line):
    a, wf = line
    m = ProductMeasure(a, [Atoms1D((0.0, 1.0, math.sqrt(2)), (1 / 3, 1 / 3, 1 / 3))])
    rep = aperiodicity_scan(m, wf, radius=20.0, grid_per_axis=401)
    assert rep["n_flagged"] == 0


# -- transforms and pushforwards --------------------------------------------------------


def test_char_closed_forms(line):
    a, wf = line
    xi = np.array([[0.3]])
    g = ProductMeasure(a, [Gaussian1D(0, 1)])
    assert np.allclose(g.char_ab(wf, xi), math.exp(-2 * math.pi**2 * 0.09))
    u = ProductMeasure(a, [Uniform1D(-1, 1)])
    assert np.allclose(u.char_ab(wf, xi), np.sinc(0.6))
    t = ProductMeasure(a, [TwoPoint1D(1.0, -1.0)])
    assert np.allclose(t.char_ab(wf, xi), math.cos(2 * math.pi * 0.3))


def test_affine_image_char_and_sampling(heis):
    base = AtomicMeasure(heis, [(1, 0, 0), (0, 1, 0)], [F(1, 2), F(1, 2)])
    mat = np.array([[2.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
    img = AffineImage(base, mat, np.array([0.5, 0, 0]))
    xs = img.sample(np.random.default_rng(0), 4000)
    # atoms move to (2.5, 0, 0) and (0.5, 1, 0)
    assert set(map(tuple, np.unique(xs, axis=0))) == {(2.5, 0.0, 0.0), (0.5, 1.0, 0.0)}
    freqs = np.array([[0.25, 0.0, 0.0]])
    by_hand = 0.5 * np.exp(-2j * np.pi * 0.25 * 2.5) + 0.5 * np.exp(-2j * np.pi * 0.25 * 0.5)
    assert np.allclose(img.char_original(freqs), by_hand)
    assert np.allclose(img.mean_float(), [1.5, 0.5, 0.0])


def test_clip_is_the_same_on_coordinate_major_rows():
    """The fold hands clip coordinate-major increments on identity and
    permutation bases, and row-major ones on a general basis: both layouts
    give the same rows and mask.  free-nilpotent(2,3) with drift e1 has
    weights (1, 1, 3, 4, 5); level 4 puts the radii at 2, 8, 16 and 32."""
    alg = free_nilpotent(2, 3)
    wf = WeightFiltration(alg, [1, 0, 0, 0, 0])
    assert wf.weights == (1, 1, 3, 4, 5)
    drift = np.array([1.0, 0.0])
    tm = TruncatedMeasure(ProductMeasure(alg, [Dirac1D()] * alg.dim), wf, 4,
                          np.array([0.25, -0.5]), drift_layer1=drift)
    rows = np.random.default_rng(11).uniform(-0.5, 0.5, (12, alg.dim))
    rows[1, :2] = [4.0, 0.5]   # layer 1
    rows[4, 2] = 9.0           # weight 3
    rows[6, 3] = -17.0         # weight 4
    rows[7, 4] = 33.0          # weight 5
    rows[9] = [3.5, 0.0, 8.5, 0.0, 40.0]  # layers 1, 3 and 5
    coordinate_major = np.ascontiguousarray(rows.T).T
    out, altered = tm.clip(rows)
    out_cm, altered_cm = tm.clip(coordinate_major)
    assert np.flatnonzero(altered).tolist() == [1, 4, 6, 7, 9]
    assert np.array_equal(altered_cm, altered)
    assert np.ascontiguousarray(out_cm).tobytes() == out.tobytes()

    quiet = coordinate_major[[0, 2, 3]].T.copy().T
    assert tm.clip(quiet)[0] is quiet
