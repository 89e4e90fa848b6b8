from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nilwalk.ratlinalg import Subspace, fracvec, invert_matrix, rref, solve_in_basis, vec_mat

frac = st.fractions(min_value=-5, max_value=5, max_denominator=6)
vec4 = st.lists(frac, min_size=4, max_size=4)


def test_rref_canonical_form():
    rows = rref([[2, 4, 0], [1, 2, 1]])
    assert rows == [(1, 2, 0), (0, 0, 1)]


def test_rref_drops_zero_rows():
    assert rref([[0, 0], [0, 0]]) == []


@given(st.lists(vec4, min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_rref_idempotent_and_membership(rows):
    basis = rref(rows)
    assert rref(basis) == basis
    space = Subspace(4, rows)
    for r in rows:
        assert space.contains(r)
    assert space.dim == len(basis)


@given(st.lists(vec4, min_size=1, max_size=4), vec4, frac, frac)
@settings(max_examples=40, deadline=None)
def test_span_closed_under_combinations(rows, extra, a, b):
    space = Subspace(4, rows)
    if len(rows) >= 2:
        combo = [a * x + b * y for x, y in zip(fracvec(rows[0]), fracvec(rows[1]))]
        assert space.contains(combo)


def test_coordinates_roundtrip():
    space = Subspace(3, [[1, 0, 1], [0, 2, 0]])
    v = [3, 4, 3]
    coeffs = space.coordinates_of(v)
    assert coeffs is not None
    rebuilt = [Fraction(0)] * 3
    for c, row in zip(coeffs, space.basis):
        rebuilt = [r + c * x for r, x in zip(rebuilt, row)]
    assert tuple(rebuilt) == fracvec(v)
    assert space.coordinates_of([0, 0, 1]) is None


def test_subspace_ordering():
    big = Subspace.full(3)
    small = Subspace(3, [[1, 1, 0]])
    assert small.is_subspace_of(big)
    assert not big.is_subspace_of(small)
    assert Subspace.zero(3).is_subspace_of(small)


def test_pivots_nest_for_nested_spaces():
    big = Subspace(4, [[1, 0, 2, 0], [0, 1, 0, 0], [0, 0, 0, 3]])
    small = Subspace(4, [[1, 1, 2, 0], [0, 0, 0, 1]])
    assert small.is_subspace_of(big)
    assert set(small.pivots) <= set(big.pivots)


def test_solve_in_basis():
    basis = [fracvec([1, 1, 0]), fracvec([0, 1, 1])]
    coeffs = solve_in_basis(basis, [2, 5, 3])
    assert coeffs == (Fraction(2), Fraction(3))
    assert solve_in_basis(basis, [1, 0, 1]) is None


def test_invert_matrix():
    m = [[1, 2], [3, 4]]
    inv = invert_matrix([fracvec(r) for r in m])
    assert inv[0] == (Fraction(-2), Fraction(1))
    assert inv[1] == (Fraction(3, 2), Fraction(-1, 2))
    with pytest.raises(ValueError):
        invert_matrix([fracvec([1, 2]), fracvec([2, 4])])


@given(st.lists(vec4, min_size=1, max_size=4), st.lists(frac, min_size=4, max_size=4))
@settings(max_examples=60, deadline=None)
def test_solve_in_basis_recovers_coefficients(rows, coeffs):
    rows = [fracvec(r) for r in rows]
    assume(Subspace(4, rows).dim == len(rows))
    coeffs = fracvec(coeffs[:len(rows)])
    assert solve_in_basis(rows, vec_mat(coeffs, rows)) == coeffs


@given(st.lists(vec4, min_size=1, max_size=3), vec4)
@settings(max_examples=60, deadline=None)
def test_solve_in_basis_rejects_vectors_off_the_span(rows, v):
    rows = [fracvec(r) for r in rows]
    assume(not Subspace(4, rows).contains(v))
    assert solve_in_basis(rows, v) is None


def test_solve_in_basis_empty_basis():
    assert solve_in_basis([], [0, 0, 0]) == ()
    assert solve_in_basis([], [0, 1, 0]) is None


@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(frac, min_size=n, max_size=n), min_size=n, max_size=n)))
@settings(max_examples=60, deadline=None)
def test_invert_matrix_roundtrip(rows):
    rows = [fracvec(r) for r in rows]
    n = len(rows)
    assume(Subspace(n, rows).dim == n)
    inv = invert_matrix(rows)
    eye = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    assert [vec_mat(row, rows) for row in inv] == eye
    assert [vec_mat(row, inv) for row in rows] == eye


@given(st.integers(2, 4).flatmap(lambda n: st.lists(
    st.lists(frac, min_size=n, max_size=n), min_size=n - 1, max_size=n - 1)),
    st.lists(frac, min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_invert_matrix_rejects_rank_deficient(rows, coeffs):
    rows = [fracvec(r) for r in rows]
    # the last row is a combination of the others
    rows.append(vec_mat(fracvec(coeffs[:len(rows)]), rows))
    with pytest.raises(ValueError):
        invert_matrix(rows)
