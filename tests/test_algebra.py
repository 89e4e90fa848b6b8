import functools
import itertools
import os
import random
import re
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilwalk import algebra
from nilwalk.algebra import (
    BLOCK_ROWS,
    DimensionMismatch,
    NilpotentAlgebra,
    abelian,
    builtin_algebra,
    c_compiler,
    compiled_kernel,
    filiform4,
    free_nilpotent,
    heisenberg3,
    kernel_cache_dir,
)
from nilwalk.filtration import WeightFiltration
from nilwalk.freealg import FreePoly, dynkin_product, evaluate_lie, product_support_size_part
from nilwalk.pathswap import BlockSystem, apply_operator, block_bracket_sides, sample_pairs, swap_operator


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
    # [e1,e2]=e3, [e1,e3]=e2 satisfies Jacobi but is not nilpotent
    with pytest.raises(ValueError):
        NilpotentAlgebra(3, 2, {(0, 1): {2: 1}, (0, 2): {1: 1}})
    # [e1,e2]=e3, [e3,e4]=e5 breaks Jacobi: [[e1,e2],e4] = -e5, the other two terms vanish
    with pytest.raises(ValueError, match=re.escape("Jacobi identity fails on basis triple (0,1,3)")):
        NilpotentAlgebra(5, 3, {(0, 1): {2: 1}, (2, 3): {4: 1}})


def _first_jacobi_failure(alg):
    """Lexicographically first basis triple i < j < k where nested brackets break Jacobi."""
    e = [alg.basis_vector(i) for i in range(alg.dim)]
    br = functools.partial(table_bracket, alg)
    for i, j, k in itertools.combinations(range(alg.dim), 3):
        terms = (br(br(e[i], e[j]), e[k]), br(br(e[j], e[k]), e[i]), br(br(e[k], e[i]), e[j]))
        if any(sum(t[l] for t in terms) for l in range(alg.dim)):
            return (i, j, k)
    return None


def test_jacobi_contraction_matches_nested_brackets():
    rng = random.Random(2024)
    failures = 0
    for _ in range(300):
        d = rng.randint(3, 6)
        brackets = {(i, j): {rng.randrange(d): F(rng.randint(-2, 2), rng.randint(1, 3))}
                    for i, j in itertools.combinations(range(d), 2) if rng.random() < 0.35}
        expected = _first_jacobi_failure(NilpotentAlgebra(d, 1, brackets, validate=False))
        try:
            NilpotentAlgebra(d, 1, brackets)
            found = None
        except ValueError as err:
            m = re.fullmatch(r"Jacobi identity fails on basis triple \((\d),(\d),(\d)\)", str(err))
            found = tuple(map(int, m.groups())) if m else None
        assert found == expected, brackets
        failures += expected is not None
    assert 50 < failures < 250  # both verdicts are exercised


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


def fractional_algebra():
    """Constants 2/3, 5/7 and -1/2, so the integer table has D = 42; class 4."""
    return NilpotentAlgebra(6, 4, {(0, 1): {2: F(2, 3)}, (0, 2): {3: F(5, 7)},
                                   (1, 2): {4: F(-1, 2)}, (0, 3): {5: 1}}, name="fractional")


EVALUATOR_ALGEBRAS = dict(GUARD_ALGEBRAS, fractional=fractional_algebra)


def table_bracket(alg, x, y):
    """[x, y] by a loop over ``alg.table`` in Fractions, independent of ``integer_table``."""
    out = [F(0)] * alg.dim
    for (i, j), comp in alg.table.items():
        w = F(x[i]) * F(y[j]) - F(x[j]) * F(y[i])
        for k, c in comp.items():
            out[k] += c * w
    return tuple(out)


def reference_evaluate(alg, poly, xs):
    """The Dynkin rule on Fraction vectors, through nested ``table_bracket``."""
    return evaluate_lie(poly, [tuple(F(c) for c in x) for x in xs],
                        functools.partial(table_bracket, alg),
                        alg.add_exact, alg.scale_exact, alg.zero_vector())


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


@pytest.mark.parametrize("name", sorted(EVALUATOR_ALGEBRAS))
def test_group_law_polynomials_equal_bch_exact(name):
    alg = EVALUATOR_ALGEBRAS[name]()
    bch = dynkin_product(2, alg.step)
    rng = random.Random(name)
    for _ in range(6):
        x, y = (tuple(F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(alg.dim))
                for _ in range(2))
        law = _law_value(alg.group_law, x, y)
        assert law == alg.bch_exact(x, y)
        assert law == reference_evaluate(alg, bch, [x, y])


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


@pytest.mark.parametrize("name", sorted(GUARD_ALGEBRAS))
def test_product_in_place_is_bit_identical(name):
    """out=x (or out=y) gets the bits of product(x, y): row-major and
    coordinate-major x, a full and a broadcast one-row y, one pass and more."""
    alg = GUARD_ALGEBRAS[name]()
    pm = alg.product_map()
    rng = np.random.default_rng(13)
    for n in (50, 2 * BLOCK_ROWS + 7):
        x = rng.uniform(-1, 1, (n, alg.dim))
        for y in (rng.uniform(-1, 1, (n, alg.dim)), rng.uniform(-1, 1, (1, alg.dim))):
            want = pm(x, y).tobytes()
            for a in (x.copy(), np.ascontiguousarray(x.T).T):
                assert pm(a, y, out=a) is a
                assert np.ascontiguousarray(a).tobytes() == want
            if len(y) == n:
                b = y.copy()
                pm(x, b, out=b)
                assert b.tobytes() == want


needs_compiler = pytest.mark.skipif(c_compiler() is None, reason="no C compiler on PATH")


def _copy(alg):
    """The same table in a new algebra, whose kernels are not built yet."""
    return NilpotentAlgebra(alg.dim, alg.step, alg.table, validate=False)


@needs_compiler
@pytest.mark.parametrize("name", sorted(GUARD_ALGEBRAS))
def test_compiled_kernel_has_the_numpy_kernels_bits(name):
    """Row-major and coordinate-major, out=x and out=y, a full, a one-row
    and a (dim,) y, one row and either side of BLOCK_ROWS: every output of
    either kernel is the numpy kernel's allocating output, byte for byte."""
    alg = GUARD_ALGEBRAS[name]()
    numpy_kernel, compiled = alg.product_kernels
    if alg.step == 1:  # x + y is one numpy call: nothing is compiled
        assert compiled is None and alg.product_map() is numpy_kernel
        return
    assert compiled is not None and alg.product_map() is compiled
    rng = np.random.default_rng(29)
    for n in (1, BLOCK_ROWS - 1, BLOCK_ROWS + 1):
        x, y = rng.uniform(-2, 2, (2, n, alg.dim))
        for y in (y, y[:1], y[0]):
            want = numpy_kernel(x, y).tobytes()
            assert compiled(x, y).tobytes() == want
            assert compiled(x[::-1], y).tobytes() == numpy_kernel(x[::-1], y).tobytes()
            assert compiled(x[0], y if y.ndim == 1 else y[0]).tobytes() == \
                numpy_kernel(x[0], y if y.ndim == 1 else y[0]).tobytes()
            for kernel in (numpy_kernel, compiled):
                for layout in (np.copy, lambda a: a.T.copy().T):
                    a = layout(x)
                    assert kernel(a, y, out=a) is a
                    assert np.ascontiguousarray(a).tobytes() == want
                    if y.shape == x.shape:
                        a, b = layout(x), layout(y)
                        assert kernel(a, b, out=b) is b
                        assert np.ascontiguousarray(b).tobytes() == want


@pytest.mark.parametrize("name", sorted(GUARD_ALGEBRAS))
def test_an_allocating_product_writes_a_new_c_ordered_array(name):
    """The one output rule: without out, either kernel returns a new
    C-contiguous array of the broadcast shape of x and y, with the bytes of
    the call that writes into a given out.  (n, d) by (n, d), (1, d) by
    (n, d) and back, and (d,) by (d,); x row-major and coordinate-major;
    one pass and more.  Only the numpy kernel runs without a compiler."""
    alg = GUARD_ALGEBRAS[name]()
    kernels = [k for k in alg.product_kernels if k is not None]
    assert len(kernels) == (2 if c_compiler() is not None and alg.step > 1 else 1)
    rng = np.random.default_rng(37)
    d = alg.dim
    for n in (5, BLOCK_ROWS + 1):
        for shapes in [((n, d), (n, d)), ((n, d), (1, d)), ((1, d), (n, d)), ((d,), (d,))]:
            x, y = (rng.uniform(-2, 2, shape) for shape in shapes)
            for x in (x, x.T.copy().T):
                for kernel in kernels:
                    out = np.empty(np.broadcast_shapes(*shapes))
                    assert kernel(x, y, out=out) is out
                    got = kernel(x, y)
                    assert got.shape == out.shape and got.flags.c_contiguous
                    assert not np.shares_memory(got, x) and not np.shares_memory(got, y)
                    assert got.tobytes() == out.tobytes()


@needs_compiler
@pytest.mark.parametrize("name", ["heisenberg3", "filiform4", "free(2,3)"])
def test_compiled_kernel_equals_bch_exact_where_floats_are_exact(name):
    """Zero tolerance.  The inputs are multiples of 3/8, so every monomial
    and every group sum is exact, and scaling a multiple of 3 by a
    coefficient with denominator 2^a or 3 * 2^a rounds to its exact value:
    the compiled output is float(bch_exact), and that float is exact."""
    alg = GUARD_ALGEBRAS[name]()
    compiled = alg.product_kernels[1]
    rng = random.Random(name + "-exact")
    for _ in range(40):
        x, y = ([F(3 * rng.randint(-24, 24), 8) for _ in range(alg.dim)] for _ in range(2))
        exact = alg.bch_exact(x, y)
        assert all(F(float(c)) == c for c in exact)
        got = compiled(np.array(x, dtype=float), np.array(y, dtype=float))
        assert got.tolist() == [float(c) for c in exact]


@pytest.fixture
def free23_product():
    """Inputs and the output bytes of free(2,3)'s product_map, built before
    any fallback: with a compiler, the compiled kernel's."""
    x, y = np.random.default_rng(31).uniform(-1, 1, (2, 500, 5))
    return x, y, _copy(free_nilpotent(2, 3)).product_map()(x, y).tobytes()


def test_numpy_kernel_runs_when_no_kernel_can_be_compiled(free23_product, numpy_fallback):
    x, y, want = free23_product
    alg = _copy(free_nilpotent(2, 3))
    numpy_kernel, compiled = alg.product_kernels
    assert compiled is None and alg.product_map() is numpy_kernel
    assert numpy_kernel(x, y).tobytes() == want


@needs_compiler
def test_kernel_cache_is_reused_and_a_truncated_object_is_rebuilt(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))

    def kernels(compiler=c_compiler):
        """filiform4's kernels built afresh, with nothing cached in process."""
        compiled_kernel.cache_clear()
        with monkeypatch.context() as m:
            m.setattr(algebra, "c_compiler", compiler)
            return _copy(filiform4()).product_kernels

    try:
        assert kernels()[1] is not None
        (cached,) = kernel_cache_dir().iterdir()
        whole = cached.read_bytes()
        assert kernels(lambda: None)[1] is not None  # a whole object needs no compiler
        for size in (len(whole) // 2, len(whole) - 1, 0):
            # a new file: cutting the loaded one in place would fault this process
            cut = tmp_path / "cut"
            cut.write_bytes(whole[:size])
            os.replace(cut, cached)
            assert kernels(lambda: None)[1] is None  # the cut object is not loaded
            numpy_kernel, compiled = kernels()  # it is built again
            assert list(kernel_cache_dir().iterdir()) == [cached] and cached.read_bytes() == whole
            x, y = np.random.default_rng(size).uniform(-1, 1, (2, 300, 4))
            assert compiled(x, y).tobytes() == numpy_kernel(x, y).tobytes()
    finally:
        compiled_kernel.cache_clear()


# -- the path: a whole walk in one call ------------------------------------------------


def path_cases(d, rng):
    """(buffer, incs) pairs: one step; one row across BLOCK_ROWS steps; a zero
    start; increments that are a strided view and coordinate-major; and a
    buffer that is the leading rows of a longer one.  Every other start is
    non-zero."""
    def walk(s, n, buffer_rows=None):
        buffer = np.zeros((buffer_rows or s + 1, n, d))[:s + 1]
        buffer[0] = rng.uniform(-2, 2, (n, d))
        return buffer, rng.uniform(-1, 1, (s, n, d))

    yield walk(1, 50)
    yield walk(BLOCK_ROWS + 1, 1)
    buffer, incs = walk(30, 7)
    buffer[0] = 0.0
    yield buffer, incs
    yield walk(25, 9)[0], rng.uniform(-1, 1, (50, 9, 2 * d))[::2, :, ::2]
    buffer, incs = walk(20, 6)
    yield buffer, np.ascontiguousarray(incs.transpose(2, 1, 0)).transpose(2, 1, 0)
    yield walk(12, 5, buffer_rows=41)


def check_path(path, numpy_kernel, d, seed):
    """path writes, into its buffer, the bytes of the numpy kernel's per-step loop."""
    for buffer, incs in path_cases(d, np.random.default_rng(seed)):
        want = np.array(buffer)
        for k in range(len(incs)):
            want[k + 1] = numpy_kernel(want[k], incs[k])
        assert path(buffer, incs) is buffer
        assert buffer.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(GUARD_ALGEBRAS))
def test_path_has_the_numpy_step_loops_bits(name, monkeypatch):
    """With a compiled kernel, each path is one call: its step loop never
    falls back to a product per step."""
    alg = GUARD_ALGEBRAS[name]()
    numpy_kernel, compiled = alg.product_kernels
    if compiled is not None:
        monkeypatch.setattr(algebra, "_step_loop", lambda *a: pytest.fail("a call per step"))
    check_path(alg.path_map(), numpy_kernel, alg.dim, 41)


@pytest.mark.parametrize("name", sorted(GUARD_ALGEBRAS))
def test_path_without_a_compiled_kernel_is_the_numpy_step_loop(name, numpy_fallback):
    alg = _copy(GUARD_ALGEBRAS[name]())
    numpy_kernel, compiled = alg.product_kernels
    assert compiled is None
    check_path(alg.path_map(), numpy_kernel, alg.dim, 43)


@pytest.mark.parametrize("name", ["heisenberg3", "filiform4", "free(2,3)"])
def test_path_equals_multi_product_exact_where_floats_are_exact(name):
    """Zero tolerance, on the path: the two layer-one coordinates of the
    start and of every increment are multiples of 3/8 and the others of 1/8,
    so, as in the one-product test above, every partial product is exact in
    binary64 and row k of the buffer is float(multi_product_exact) of the
    start and the first k increments."""
    alg = GUARD_ALGEBRAS[name]()
    rng = random.Random(name + "-path")
    s, n = 24, 3

    def point():
        return [F(3 * rng.randint(-8, 8) if i < 2 else rng.randint(-8, 8), 8)
                for i in range(alg.dim)]

    starts = [point() for _ in range(n)]
    incs = [[point() for _ in range(n)] for _ in range(s)]
    buffer = np.zeros((s + 1, n, alg.dim))
    buffer[0] = np.array(starts, dtype=float)
    alg.path_map()(buffer, np.array(incs, dtype=float))
    for k in range(s + 1):
        for r in range(n):
            exact = alg.multi_product_exact([starts[r]] + [inc[r] for inc in incs[:k]])
            assert all(F(float(c)) == c for c in exact)
            assert buffer[k, r].tolist() == [float(c) for c in exact]


# -- the integer Lie evaluator --------------------------------------------------------


def _mixed_vector(rng, dim):
    """Entries with unrelated denominators, plain ints and zeros."""
    return tuple(rng.choice((F(rng.randint(-9, 9), rng.randint(1, 12)), rng.randint(-3, 3), 0))
                 for _ in range(dim))


@pytest.mark.parametrize("name", sorted(EVALUATOR_ALGEBRAS))
def test_bracket_exact_matches_table_loop(name):
    alg = EVALUATOR_ALGEBRAS[name]()
    rng = random.Random("bracket-" + name)
    for _ in range(20):
        x, y = _mixed_vector(rng, alg.dim), _mixed_vector(rng, alg.dim)
        got = alg.bracket_exact(x, y)
        assert got == table_bracket(alg, x, y)
        assert all(type(c) is F for c in got)


def test_fractional_table_has_denominator_42():
    assert fractional_algebra().integer_table[0] == 42
    assert all(GUARD_ALGEBRAS[name]().integer_table[0] == 1 for name in GUARD_ALGEBRAS)


@pytest.mark.parametrize("name", sorted(EVALUATOR_ALGEBRAS))
def test_integer_evaluator_matches_fraction_reference(name):
    alg = EVALUATOR_ALGEBRAS[name]()
    rng = random.Random("evaluate-" + name)
    for n in (2, 3, 4):
        poly = dynkin_product(n, alg.step)
        for trial in range(3):
            xs = [_mixed_vector(rng, alg.dim) for _ in range(n)]
            if trial == 1:
                xs[rng.randrange(n)] = (0,) * alg.dim
            got = alg.evaluate_poly_exact(poly, xs)
            assert got == reference_evaluate(alg, poly, xs)
            assert all(type(c) is F for c in got)


def test_integer_evaluator_edge_inputs():
    alg = fractional_algebra()
    poly = dynkin_product(3, alg.step)
    zero = (0,) * alg.dim
    assert alg.evaluate_poly_exact(poly, [zero] * 3) == alg.zero_vector()
    assert alg.evaluate_poly_exact(FreePoly.zero(2, 4), [zero, zero]) == alg.zero_vector()
    ints = [(1, -2, 3, 0, 1, 0), (0, 4, -1, 2, 0, 5), (-3, 0, 0, 1, 1, 1)]
    assert alg.evaluate_poly_exact(poly, ints) == reference_evaluate(alg, poly, ints)
    with pytest.raises(DimensionMismatch):
        alg.evaluate_poly_exact(poly, [zero, zero, (0, 0)])
    with pytest.raises(ValueError):
        alg.evaluate_poly_exact(FreePoly.unit(2, 4), [zero, zero])


@pytest.mark.parametrize("a,k,nprime,name", [(2, 1, 2, "heisenberg3"), (2, 2, 1, "fractional"),
                                             (3, 1, 1, "free(3,3)"), (3, 1, 1, "fractional")])
def test_integer_evaluator_on_swap_pieces(a, k, nprime, name):
    """The element fact 3 evaluates: the swap operator on the degree-a,
    support-size-a piece inside large block j, on inputs that are zero left
    of the central block as fact 3 requires, and on unrestricted inputs."""
    alg = EVALUATOR_ALGEBRAS[name]()
    bs = BlockSystem(a, k, nprime)
    rng = random.Random(f"swap-{a}{k}{nprime}-{name}")
    piece = product_support_size_part(bs.n_indices, a, alg.step).degree_part(a)
    checked = 0
    for sigma, tau in sample_pairs(bs, limit=3):
        for j in range(nprime):
            if any(((i, j) in sigma.active) == ((i, j) in tau.active) for i in range(1, a)):
                continue
            moved = apply_operator(swap_operator(bs, sigma, tau), piece.support_within(bs.large_block(j)))
            left = {p for off in range(1, a) for p in bs.block_positions(j, -off)}
            xs = [(0,) * alg.dim if p in left else _mixed_vector(rng, alg.dim)
                  for p in range(bs.n_indices)]
            assert alg.evaluate_poly_exact(moved, xs) == reference_evaluate(alg, moved, xs)
            lhs, rhs = block_bracket_sides(bs, sigma, tau, j, alg, xs)
            assert lhs == rhs
            xs = [_mixed_vector(rng, alg.dim) for _ in range(bs.n_indices)]
            assert alg.evaluate_poly_exact(moved, xs) == reference_evaluate(alg, moved, xs)
            checked += 1
    assert checked >= 2


def test_bch_exact_matches_heisenberg_closed_form_at_random_rationals():
    h = heisenberg3()
    rng = random.Random(99)
    for _ in range(200):
        x, y = (tuple(F(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)) for _ in range(3))
                for _ in range(2))
        assert h.bch_exact(x, y) == heisenberg_closed_form(x, y)
