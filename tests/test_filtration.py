import random
from fractions import Fraction as F

import numpy as np
import pytest

from nilwalk.algebra import NilpotentAlgebra, abelian, builtin_algebra, filiform4, free_nilpotent, heisenberg3
from nilwalk.filtration import (
    ExtendedAlgebra,
    WeightFiltration,
    bigraded_evaluate,
    weight_ideals,
)
from nilwalk.freealg import dynkin_product
from nilwalk.ratlinalg import Subspace, is_zero_vec, solve_in_basis

ALGEBRAS = [heisenberg3(), filiform4(), free_nilpotent(2, 3), abelian(3)]


def random_drifts(algebra, count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        yield tuple(F(rng.randint(-4, 4), 2) for _ in range(algebra.dim))


# -- construction ------------------------------------------------------------


def test_zero_drift_reproduces_central_series(heis):
    wf = WeightFiltration(heis, [0, 0, 0])
    dcs = heis.descending_central_series()
    for i, sub in enumerate(dcs, start=1):
        assert wf.ideal(i) == sub
    assert wf.weights == (1, 1, 2)
    assert wf.hom_dim == 4


def test_heisenberg_drift_ideals(heis_drift_e1):
    wf = heis_drift_e1
    e3 = Subspace(3, [[0, 0, 1]])
    assert wf.ideal(2) == e3
    assert wf.ideal(3) == e3
    assert wf.ideal(4).dim == 0
    assert wf.hom_dim == 5
    assert sorted(wf.weights) == [1, 1, 3]


def test_abelian_filtration():
    a = abelian(4)
    wf = WeightFiltration(a, [1, 2, 0, 0])
    assert wf.ideal(2).dim == 0
    assert wf.hom_dim == 4
    assert wf.weights == (1, 1, 1, 1)


def test_representative_independence(heis):
    # adding anything from [g, g] to the drift leaves the ideals unchanged
    base = weight_ideals(heis, [1, 0, 0])
    shifted = weight_ideals(heis, [1, 0, F(22, 7)])
    assert [s.basis for s in base] == [s.basis for s in shifted]


BUILTINS = ["heisenberg3", "filiform4", "abelian(3)", "free-nilpotent(2,2)",
            "free-nilpotent(2,3)", "free-nilpotent(2,4)", "free-nilpotent(3,2)",
            "free-nilpotent(3,3)"]


def table_bracket(algebra, x, y):
    """[x, y] by a loop over ``algebra.table`` in Fractions, independent of
    ``integer_table``, on which ``weight_ideals`` and ``bracket_exact`` run."""
    out = [F(0)] * algebra.dim
    for (i, j), comp in algebra.table.items():
        w = F(x[i]) * F(y[j]) - F(x[j]) * F(y[i])
        for k, c in comp.items():
            out[k] += c * w
    return tuple(out)


def central_series_reference(algebra):
    """g^[i+1] = [g, g^[i]] until zero, for a nilpotent algebra."""
    series = [Subspace.full(algebra.dim)]
    while series[-1].dim > 0:
        series.append(Subspace(algebra.dim, [table_bracket(algebra, algebra.basis_vector(i), v)
                                             for i in range(algebra.dim)
                                             for v in series[-1].basis]))
    return series


def weight_ideals_reference(algebra, x):
    """The weight-ideal recursion on Fraction brackets, ideals as spans."""
    full = Subspace.full(algebra.dim)
    chain = [full, full]
    while chain[-1].dim > 0:
        gens = [table_bracket(algebra, algebra.basis_vector(i), v)
                for i in range(algebra.dim) for v in chain[-1].basis]
        gens += [table_bracket(algebra, x, v) for v in chain[-2].basis]
        chain.append(Subspace(algebra.dim, gens))
    return chain[1:]


def rebased(algebra, rows):
    """The same algebra written in the basis ``rows`` (a rational change of basis)."""
    brackets = {}
    for i in range(algebra.dim):
        for j in range(i + 1, algebra.dim):
            coeffs = solve_in_basis(rows, table_bracket(algebra, rows[i], rows[j]))
            brackets[(i, j)] = {k: c for k, c in enumerate(coeffs) if c}
    return NilpotentAlgebra(algebra.dim, algebra.step, brackets)


@pytest.mark.parametrize("spec", ["filiform4", "free-nilpotent(2,3)"])
def test_weight_ideals_on_rational_tables_match_fraction_recursion(spec):
    """A random rational basis gives fractional structure constants and ideals
    whose rref rows are not integral; the integer recursion must reproduce
    the Fraction one at every drift."""
    base = builtin_algebra(spec)
    rng = random.Random(spec)
    d = base.dim
    rows = [tuple(F(rng.randint(1, 4), rng.randint(1, 5)) if j == i
                  else F(rng.randint(-3, 3), rng.randint(1, 4)) if j < i else F(0)
                  for j in range(d)) for i in range(d)]
    alg = rebased(base, rows)
    assert alg.integer_table[0] > 1
    drifts = [alg.zero_vector()] + [alg.basis_vector(i) for i in range(d)]
    fractional_rows = 0
    for x in drifts + list(random_drifts(alg, 4, seed=d)):
        got = weight_ideals(alg, x)
        assert got == weight_ideals_reference(alg, tuple(F(c) for c in x))
        fractional_rows += sum(c.denominator > 1 for sub in got for row in sub.basis for c in row)
    assert fractional_rows > 0


@pytest.mark.parametrize("spec", BUILTINS)
def test_weight_ideals_nest_and_vanish_by_2s(spec):
    algebra = builtin_algebra(spec)
    dcs = algebra.descending_central_series()
    assert dcs == central_series_reference(algebra)
    assert weight_ideals(algebra, algebra.zero_vector()) == dcs
    for i in range(algebra.dim):
        ideals = weight_ideals(algebra, algebra.basis_vector(i))
        assert ideals[0] == Subspace.full(algebra.dim)
        assert all(small.is_subspace_of(big) for big, small in zip(ideals, ideals[1:]))
        assert ideals[-1].dim == 0 and all(s.dim > 0 for s in ideals[:-1])
        assert len(ideals) <= 2 * algebra.step  # g^(2s) = 0


@pytest.mark.parametrize("algebra", ALGEBRAS, ids=lambda a: a.name)
def test_filtration_structure_properties(algebra):
    s = algebra.step
    dcs = algebra.descending_central_series()
    for drift in random_drifts(algebra, 8, seed=algebra.dim):
        wf = WeightFiltration(algebra, drift)
        # nesting: brackets add weights
        top = 2 * s
        for i in range(1, top):
            for j in range(1, top):
                target = wf.ideal(i + j)
                for u in wf.ideal(i).basis:
                    for v in wf.ideal(j).basis:
                        assert target.contains(algebra.bracket_exact(u, v))
        # sandwich between central-series terms
        for i in range(1, top + 1):
            lower = dcs[i - 1] if i - 1 < len(dcs) else Subspace.zero(algebra.dim)
            upper_idx = i // 2  # g^[floor(i/2)+1] is dcs[upper_idx]
            upper = dcs[upper_idx] if upper_idx < len(dcs) else Subspace.zero(algebra.dim)
            assert lower.is_subspace_of(wf.ideal(i))
            assert wf.ideal(i).is_subspace_of(upper)
        # vanishing at depth 2s
        assert wf.ideal(2 * s).dim == 0
        # supplements fill the algebra and give the stated dimension count
        assert sum(sp.dim for sp in wf.supplements) == algebra.dim
        assert wf.hom_dim == sum(i * sp.dim for i, sp in enumerate(wf.supplements, start=1))


# -- dilations ----------------------------------------------------------------


def test_dilation_examples(heis_centered, heis_drift_e1):
    assert heis_centered.dilate(1, (F(5), F(-3), F(2))) == (5, -3, 2)
    assert heis_centered.dilate(2, (1, 1, 1)) == (2, 2, 4)
    v = (F(1, 3), F(2), F(-1, 2))
    lhs = heis_drift_e1.dilate(2, heis_drift_e1.dilate(F(3, 2), v))
    assert lhs == heis_drift_e1.dilate(3, v)
    with pytest.raises(ValueError):
        heis_centered.dilate(0, v)


def test_dilation_det_equals_weight_sum(heis_drift_e1):
    # the Jacobian of D_r is the product of r^w over the adapted basis, r^hom_dim
    assert heis_drift_e1.hom_dim == sum(heis_drift_e1.weights) == 5


# -- graded structure -----------------------------------------------------------


def test_graded_bracket_centered_heisenberg(heis, heis_centered):
    x, y = (F(1), F(2), F(3)), (F(-1), F(5), F(0))
    assert heis_centered.graded_bracket(x, y) == heis.bracket_exact(x, y)


def test_graded_bracket_matches_projection_composition():
    fil = filiform4()
    wf = WeightFiltration(fil, [1, 0, 0, 0])
    rng = random.Random(2)
    for _ in range(10):
        x = tuple(F(rng.randint(-4, 4), 2) for _ in range(4))
        y = tuple(F(rng.randint(-4, 4), 2) for _ in range(4))
        # oracle: project inputs per layer, bracket, project the result
        expected = fil.zero_vector()
        for i in range(1, wf.max_weight + 1):
            for j in range(1, wf.max_weight + 1):
                piece = wf.project(fil.bracket_exact(wf.project(x, i), wf.project(y, j)), i + j)
                expected = tuple(a + b for a, b in zip(expected, piece))
        assert wf.graded_bracket(x, y) == tuple(expected)


def test_graded_bracket_kills_deep_weights(heis_drift_e1):
    # weights (1,1,3): a product of weight-3 pieces lands beyond 2s-1 = 3
    e3 = (F(0), F(0), F(1))
    assert is_zero_vec(heis_drift_e1.graded_bracket(e3, e3))


def test_graded_jacobi_via_construction():
    # building the graded algebra revalidates antisymmetry and Jacobi exactly
    for algebra in ALGEBRAS:
        for drift in random_drifts(algebra, 3, seed=13 * algebra.dim):
            WeightFiltration(algebra, drift).graded_algebra  # noqa: B018


def test_graded_product_examples(heis, heis_centered):
    a = abelian(3)
    wfa = WeightFiltration(a, [1, 0, 0])
    assert wfa.graded_product((1, 2, 3), (4, 5, 6)) == (5, 7, 9)
    x, y = (F(1), F(0), F(2)), (F(0), F(1, 2), F(-1))
    assert heis_centered.graded_product(x, y) == heis.bch_exact(x, y)


def test_graded_product_is_dilation_limit():
    fil = filiform4()
    wf = WeightFiltration(fil, [1, 0, 0, 0])
    x = (F(1), F(1), F(0), F(0))
    y = (F(0), F(0), F(1), F(1))
    target = wf.graded_product(x, y)
    devs = []
    for k in (4, 6, 8, 10, 12):
        t = F(2) ** k
        approx = wf.conjugated_product(t, x, y)
        devs.append(max(abs(float(a - b)) for a, b in zip(approx, target)))
    assert all(d1 > d2 for d1, d2 in zip(devs, devs[1:]))
    # first-order in 1/t: quartering t's growth divides the gap by ~4
    assert devs[-1] < 2e-4


def test_dilations_are_graded_automorphisms():
    fil = filiform4()
    wf = WeightFiltration(fil, [1, 0, 0, 0])
    rng = random.Random(3)
    for _ in range(5):
        x = tuple(F(rng.randint(-4, 4), 2) for _ in range(4))
        y = tuple(F(rng.randint(-4, 4), 2) for _ in range(4))
        r = F(rng.randint(1, 5), rng.randint(1, 3))
        lhs = wf.dilate(r, wf.graded_product(x, y))
        rhs = wf.graded_product(wf.dilate(r, x), wf.dilate(r, y))
        assert lhs == rhs


# -- drift extension ---------------------------------------------------------------


def test_bias_extension_trivial_when_centered(heis_centered):
    ext = ExtendedAlgebra(heis_centered)
    assert ext.is_trivial
    assert ext.lift((1, 2, 3)) == (1, 2, 3)


def test_bias_extension_heisenberg(heis, heis_drift_e1):
    ext = ExtendedAlgebra(heis_drift_e1)
    assert ext.dim == 4
    chi = ext.lift(ext.X)
    e2 = (F(0), F(1), F(0), F(0))
    assert ext.algebra.bracket_exact(chi, e2) == (0, 0, 1, 0)
    # chi has weight 2 in the extended decomposition
    chi_slot = ext.adapted_rows.index(tuple(list(ext.X) + [F(1)]))
    assert ext.weights[chi_slot] == 2


def test_projection_is_group_morphism(heis, heis_drift_e1):
    ext = ExtendedAlgebra(heis_drift_e1)
    rng = random.Random(8)
    for _ in range(15):
        u = tuple(F(rng.randint(-6, 6), 3) for _ in range(4))
        v = tuple(F(rng.randint(-6, 6), 3) for _ in range(4))
        lhs = ext.project(ext.algebra.bch_exact(u, v))
        rhs = heis.bch_exact(ext.project(u), ext.project(v))
        assert lhs == rhs


def test_chi_coordinate_adds_along_products(heis_drift_e1):
    ext = ExtendedAlgebra(heis_drift_e1)
    x = ext.lift((F(1), F(1), F(0)))
    acc = x
    for n in range(2, 6):
        acc = ext.algebra.bch_exact(acc, x)
        assert acc[-1] == n
    assert x[-1] == 1


# -- the weight-raising operator ------------------------------------------------------


def test_ax_heisenberg(heis, heis_drift_e1):
    wf = heis_drift_e1
    assert wf.apply_ax(heis.basis_vector(1)) == (0, 0, 1)
    assert wf.apply_ax(heis.basis_vector(0)) == (0, 0, 0)
    assert wf.apply_ax(heis.basis_vector(2)) == (0, 0, 0)


def test_ax_zero_when_centered(heis_centered):
    assert all(is_zero_vec(row) for row in heis_centered.ax_matrix)


def test_exp_ax_polynomial(heis, heis_drift_e1):
    wf = heis_drift_e1
    m = wf.exp_ax(F(7))
    ya = wf.to_adapted(heis.basis_vector(1))
    img = tuple(sum(ya[j] * m[j][k] for j in range(3)) for k in range(3))
    assert wf.from_adapted(img) == (0, 1, 7)
    # group property exp((s+t) ax) = exp(s ax) exp(t ax) at rational points
    m1 = wf.exp_ax(F(2))
    m2 = wf.exp_ax(F(5))
    prod = tuple(
        tuple(sum(m1[i][k] * m2[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )
    assert prod == tuple(tuple(row) for row in wf.exp_ax(F(7)))
    # float grid agrees
    assert np.allclose(wf.exp_ax_float(7.0), np.array(m, dtype=float))


def test_ax_nilpotent(heis_drift_e1):
    powers = heis_drift_e1.ax_powers
    assert len(powers) <= 2 * 2  # vanishes well before 2s iterations


# -- the bi-grading ---------------------------------------------------------------------


def test_bigraded_heisenberg_quadratic(heis_centered):
    two = dynkin_product(2, 2)
    val = bigraded_evaluate(two, heis_centered, 2, 2, [(1, 0, 0), (0, 1, 0)])
    assert val == (0, 0, F(1, 2))


def test_bigraded_first_layer_sum(heis_centered):
    two = dynkin_product(2, 2)
    xs = [(F(1), F(2), F(3)), (F(0), F(1), F(1))]
    val = bigraded_evaluate(two, heis_centered, 1, 1, xs)
    expected = tuple(a + b for a, b in zip(heis_centered.project(xs[0], 1),
                                           heis_centered.project(xs[1], 1)))
    assert val == tuple(expected)


def test_bigraded_dilation_homogeneity(heis_centered):
    two = dynkin_product(2, 2)
    xs = [(F(1), F(2), F(3)), (F(0), F(1), F(1))]
    for b in (2, 3, 4):
        base = bigraded_evaluate(two, heis_centered, 2, b, xs)
        dil = bigraded_evaluate(two, heis_centered, 2, b,
                                [heis_centered.dilate(3, x) for x in xs])
        assert dil == tuple(F(3) ** b * c for c in base)


def test_bigraded_parts_sum_to_degree_part(heis, heis_centered):
    # summing over w-degrees recovers the full quadratic component
    two = dynkin_product(2, 2)
    xs = [(F(1), F(1), F(2)), (F(2), F(-1), F(1))]
    total = heis.zero_vector()
    for b in range(2, 5):
        part = bigraded_evaluate(two, heis_centered, 2, b, xs)
        total = tuple(u + v for u, v in zip(total, part))
    expected = heis.scale_exact(F(1, 2), heis.bracket_exact(xs[0], xs[1]))
    assert tuple(total) == expected


# -- adapted algebra -----------------------------------------------------------------


def test_adapted_algebra_consistency(heis_drift_e1, heis):
    adapted = heis_drift_e1.adapted_algebra
    rng = random.Random(4)
    for _ in range(10):
        x = tuple(F(rng.randint(-5, 5), 2) for _ in range(3))
        y = tuple(F(rng.randint(-5, 5), 2) for _ in range(3))
        via_adapted = heis_drift_e1.from_adapted(
            adapted.bch_exact(heis_drift_e1.to_adapted(x), heis_drift_e1.to_adapted(y))
        )
        assert via_adapted == heis.bch_exact(x, y)


def test_float_basis_change_skipped_only_for_identity_basis():
    x = np.random.default_rng(6).uniform(-2, 2, (7, 5))
    centered = WeightFiltration(heisenberg3(), [0, 0, 0])
    h = x[:, :3].copy()
    assert centered.to_adapted_float(h) is h and centered.from_adapted_float(h) is h
    drifted = WeightFiltration(free_nilpotent(2, 3), [1, 0, 0, 0, 0])
    assert [list(r) for r in drifted.adapted_rows] != np.eye(5).tolist()
    ad = drifted.to_adapted_float(x)
    assert ad is not x and np.array_equal(ad, x @ drifted.adapted_inv_array)
    assert np.allclose(drifted.from_adapted_float(ad), x, atol=1e-12)


BUILTINS = ["heisenberg3", "filiform4", "abelian(3)", "free-nilpotent(2,2)",
            "free-nilpotent(2,3)", "free-nilpotent(2,4)", "free-nilpotent(3,2)",
            "free-nilpotent(3,3)"]


def _assert_matmul_bits(wf, x):
    """Both float basis changes give the matmul's bits, C-contiguous, on
    row-major and coordinate-major input alike."""
    A = np.array(wf.adapted_rows, dtype=float)
    for arr in (np.ascontiguousarray(x), np.asfortranarray(x), x[0]):
        ad = wf.to_adapted_float(arr)
        assert ad.flags.c_contiguous
        assert ad.tobytes() == (arr @ wf.adapted_inv_array).tobytes()
        back = wf.from_adapted_float(arr)
        assert back.flags.c_contiguous
        assert back.tobytes() == (arr @ A).tobytes()


def test_permutation_basis_change_is_the_matmul_bit_for_bit():
    """Every non-identity adapted basis of a builtin, over the basis-vector
    drifts, is a permutation, changed by a gather with the matmul's bits."""
    changed = []
    for name in BUILTINS:
        alg = builtin_algebra(name)
        x = np.random.default_rng(7).standard_normal((9, alg.dim))
        for i in range(alg.dim):
            wf = WeightFiltration(alg, alg.basis_vector(i))
            if wf.to_adapted_float(x) is x:
                continue  # the identity basis
            assert wf.adapted_perm is not None, (name, i)
            _assert_matmul_bits(wf, x)
            changed.append((name, i))
    assert changed == [("free-nilpotent(2,3)", 0), ("free-nilpotent(2,4)", 0),
                       ("free-nilpotent(3,2)", 0), ("free-nilpotent(3,2)", 1),
                       ("free-nilpotent(3,3)", 0), ("free-nilpotent(3,3)", 1),
                       ("free-nilpotent(3,3)", 2)]


def test_general_basis_keeps_the_matmul():
    """[e1, e2] = e3 + e4: the supplement of the centre holds e3 + e4, and
    the inverse basis has a -1, so no gather can change it."""
    alg = NilpotentAlgebra(4, 2, {(0, 1): {2: F(1), 3: F(1)}})
    wf = WeightFiltration(alg, [0, 0, 0, 0])
    assert wf.adapted_perm is None and -1.0 in wf.adapted_inv_array
    _assert_matmul_bits(wf, np.random.default_rng(8).standard_normal((9, 4)))
