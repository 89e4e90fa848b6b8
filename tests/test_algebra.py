import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilwalk.algebra import (
    DimensionMismatch,
    NilpotentAlgebra,
    abelian,
    builtin_algebra,
    filiform4,
    free_nilpotent,
    heisenberg3,
)
from nilwalk.filtration import WeightFiltration
from nilwalk.freealg import dynkin_product


def heisenberg_closed_form(x, y):
    """Independent oracle for the Heisenberg group law."""
    return (
        x[0] + y[0],
        x[1] + y[1],
        x[2] + y[2] + F(1, 2) * (x[0] * y[1] - x[1] * y[0]),
    )


def test_heisenberg_bracket():
    h = heisenberg3()
    assert h.bracket_exact(h.basis_vector(0), h.basis_vector(1)) == (0, 0, 1)
    v = (F(1), F(2), F(3))
    assert h.bracket_exact(v, v) == (0, 0, 0)
    assert abelian(3).bracket_exact((1, 2, 3), (4, 5, 6)) == (0, 0, 0)


def test_heisenberg_product_examples():
    h = heisenberg3()
    x, y, z = (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))
    assert h.bch_exact(x, y) == (1, 1, F(1, 2))
    assert h.bch_exact(x, tuple(-c for c in x)) == (0, 0, 0)
    assert h.bch_exact(x, h.zero_vector()) == x
    left = h.bch_exact(h.bch_exact(x, y), z)
    right = h.bch_exact(x, h.bch_exact(y, z))
    assert left == right == (1, 1, F(3, 2))


def test_product_vs_closed_form_oracle():
    h = heisenberg3()
    rng = random.Random(42)
    for _ in range(50):
        x = tuple(F(rng.randint(-12, 12), 6) for _ in range(3))
        y = tuple(F(rng.randint(-12, 12), 6) for _ in range(3))
        assert h.bch_exact(x, y) == heisenberg_closed_form(x, y)


def test_inverse_law():
    for alg in (heisenberg3(), filiform4(), free_nilpotent(2, 4)):
        rng = random.Random(alg.dim)
        for _ in range(10):
            x = tuple(F(rng.randint(-8, 8), 4) for _ in range(alg.dim))
            assert h_is_zero(alg.bch_exact(x, tuple(-c for c in x)))


def h_is_zero(v):
    return all(c == 0 for c in v)


@pytest.mark.parametrize("alg_name,step", [("heisenberg3", 2), ("filiform4", 3)])
def test_exact_associativity(alg_name, step):
    alg = builtin_algebra(alg_name)
    rng = random.Random(7)
    for _ in range(25):
        x, y, z = (
            tuple(F(rng.randint(-6, 6), 3) for _ in range(alg.dim)) for _ in range(3)
        )
        assert alg.bch_exact(alg.bch_exact(x, y), z) == alg.bch_exact(x, alg.bch_exact(y, z))


def test_exact_associativity_step4():
    alg = free_nilpotent(2, 4)
    rng = random.Random(11)
    for _ in range(10):
        x, y, z = (
            tuple(F(rng.randint(-4, 4), 2) for _ in range(alg.dim)) for _ in range(3)
        )
        assert alg.bch_exact(alg.bch_exact(x, y), z) == alg.bch_exact(x, alg.bch_exact(y, z))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_float_associativity_property(seed):
    alg = free_nilpotent(2, 4)
    pm = alg.product_map()
    rng = np.random.default_rng(seed)
    a, b, c = rng.uniform(-1, 1, (3, 40, alg.dim))
    dev = np.abs(pm(pm(a, b), c) - pm(a, pm(b, c))).max()
    assert dev < 1e-10


def test_multi_product_matches_free_element():
    h = heisenberg3()
    rng = random.Random(5)
    xs = [tuple(F(rng.randint(-4, 4), 4) for _ in range(3)) for _ in range(5)]
    assert h.multi_product_exact(xs) == h.evaluate_poly_exact(dynkin_product(5, 2), xs)
    fil = filiform4()
    ys = [tuple(F(rng.randint(-4, 4), 4) for _ in range(4)) for _ in range(4)]
    assert fil.multi_product_exact(ys) == fil.evaluate_poly_exact(dynkin_product(4, 3), ys)


def test_multi_product_examples():
    h = heisenberg3()
    x = (F(1), F(2), F(3))
    assert h.multi_product_exact([x]) == x
    commutator_walk = [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)]
    assert h.multi_product_exact(commutator_walk) == (0, 0, 1)
    ab = abelian(3)
    xs = [(1, 2, 3), (4, 5, 6), (-1, -1, -1)]
    assert ab.multi_product_exact(xs) == (4, 6, 8)
    with pytest.raises(ValueError):
        h.multi_product_exact([])


def test_descending_central_series():
    assert [s.dim for s in heisenberg3().descending_central_series()] == [3, 1, 0]
    assert [s.dim for s in abelian(4).descending_central_series()] == [4, 0]
    assert [s.dim for s in free_nilpotent(2, 2).descending_central_series()] == [3, 1, 0]
    assert [s.dim for s in filiform4().descending_central_series()] == [4, 2, 1, 0]


def test_free_nilpotent_dimensions_match_witt():
    # dim of the degree-r layer is (1/r) sum_{d | r} mu(d) g^(r/d)
    assert free_nilpotent(2, 2).dim == 3
    assert free_nilpotent(2, 3).dim == 5
    assert free_nilpotent(2, 4).dim == 8
    assert free_nilpotent(3, 2).dim == 6
    assert free_nilpotent(3, 3).dim == 14
    with pytest.raises(ValueError):
        free_nilpotent(4, 2)


def test_validation_rejects_bad_tables():
    # step mismatch
    with pytest.raises(ValueError):
        NilpotentAlgebra(3, 3, {(0, 1): {2: 1}})
    # Jacobi violation: [e1,e2]=e3, [e1,e3]=e2 is not nilpotent/Jacobi-safe
    with pytest.raises(ValueError):
        NilpotentAlgebra(3, 2, {(0, 1): {2: 1}, (0, 2): {1: 1}})


def test_builtin_parsing():
    assert builtin_algebra("abelian(5)").dim == 5
    assert builtin_algebra("free-nilpotent(2,3)").dim == 5
    with pytest.raises(ValueError):
        builtin_algebra("nope")


def test_dimension_mismatch_raises():
    h = heisenberg3()
    with pytest.raises(DimensionMismatch):
        h.bracket_exact((1, 0), (0, 1, 0))


def test_product_map_matches_exact():
    for alg in (heisenberg3(), filiform4(), free_nilpotent(2, 4)):
        pm = alg.product_map()
        rng = np.random.default_rng(1)
        X = rng.uniform(-1, 1, (20, alg.dim))
        Y = rng.uniform(-1, 1, (20, alg.dim))
        Z = pm(X, Y)
        for r in range(0, 20, 7):
            xe = tuple(F(v).limit_denominator(10**12) for v in X[r])
            ye = tuple(F(v).limit_denominator(10**12) for v in Y[r])
            ze = alg.bch_exact(xe, ye)
            assert np.allclose(Z[r], [float(c) for c in ze], atol=1e-9)


# -- the compiled group law ---------------------------------------------------------

def _drift_e1_free23():
    return WeightFiltration(free_nilpotent(2, 3), [1, 0, 0, 0, 0])


GUARD_ALGEBRAS = {
    "heisenberg3": heisenberg3,
    "filiform4": filiform4,
    "abelian(3)": lambda: abelian(3),
    "free(2,2)": lambda: free_nilpotent(2, 2),
    "free(2,3)": lambda: free_nilpotent(2, 3),
    "free(2,4)": lambda: free_nilpotent(2, 4),
    "free(3,2)": lambda: free_nilpotent(3, 2),
    "free(3,3)": lambda: free_nilpotent(3, 3),
    "free(2,3)-adapted": lambda: _drift_e1_free23().adapted_algebra,
    "free(2,3)-graded": lambda: _drift_e1_free23().graded_algebra,
}


def _law_value(law, x, y):
    """Evaluate the per-coordinate polynomials of group_law exactly."""
    z = tuple(x) + tuple(y)
    out = []
    for poly in law:
        total = F(0)
        for mono, c in poly.items():
            for v in mono:
                c = c * z[v]
            total += c
        out.append(total)
    return tuple(out)


@pytest.mark.parametrize("name", sorted(GUARD_ALGEBRAS))
def test_group_law_polynomials_equal_bch_exact(name):
    alg = GUARD_ALGEBRAS[name]()
    rng = random.Random(name)
    for _ in range(6):
        x, y = (tuple(F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(alg.dim))
                for _ in range(2))
        assert _law_value(alg.group_law, x, y) == alg.bch_exact(x, y)


@pytest.mark.parametrize("name", sorted(GUARD_ALGEBRAS))
def test_float_kernel_matches_bch_exact(name):
    alg = GUARD_ALGEBRAS[name]()
    rng = random.Random(name + "-float")
    # dyadic rationals, so the float inputs are the exact inputs
    xs, ys = ([tuple(F(rng.randint(-24, 24), 8) for _ in range(alg.dim)) for _ in range(8)]
              for _ in range(2))
    got = alg.product_map()(np.array(xs, dtype=float), np.array(ys, dtype=float))
    for row, x, y in zip(got, xs, ys):
        exact = np.array([float(c) for c in alg.bch_exact(x, y)])
        assert np.all(np.abs(row - exact) <= 1e-12 * np.maximum(np.abs(exact), 1.0))


def test_product_map_is_cached_and_blocks_rows_exactly():
    alg = free_nilpotent(2, 3)
    pm = alg.product_map()
    assert alg.product_map() is pm
    rng = np.random.default_rng(8)
    x = rng.uniform(-1, 1, (9_000, alg.dim))  # more rows than one pass takes
    y = rng.uniform(-1, 1, (9_000, alg.dim))
    shift = rng.uniform(-1, 1, alg.dim)
    rows = np.array([pm(a, b) for a, b in zip(x, y)])
    assert np.array_equal(pm(x, y), rows)
    assert np.array_equal(pm(x, shift[None, :]), np.array([pm(a, shift) for a in x]))
