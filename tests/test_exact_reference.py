"""The integer-numerator engine against a naive Fraction reference.

The reference below keeps every coefficient as a ``Fraction`` in a plain
dict and builds the N-fold product by multiplying N exponential series,
not by the direct run formula, so it shares no arithmetic with
``nilwalk.freealg``.  Agreement is asserted at zero tolerance.
"""

import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from nilwalk.freealg import FreePoly, dynkin_product, full_support_block, periodize
from nilwalk.pathswap import BlockSystem, apply_operator, sample_pairs, swap_operator


def ref_add(p, q, sign=1):
    out = dict(p)
    for w, c in q.items():
        out[w] = out.get(w, F(0)) + sign * c
    return {w: c for w, c in out.items() if c}


def ref_mul(p, q, cap):
    out = {}
    for w1, c1 in p.items():
        for w2, c2 in q.items():
            if len(w1) + len(w2) <= cap:
                out[w1 + w2] = out.get(w1 + w2, F(0)) + c1 * c2
    return {w: c for w, c in out.items() if c}


def ref_product(n, cap):
    """log(exp(u_1) ... exp(u_n)) truncated at cap, from the series."""
    e = {b"": F(1)}
    for i in range(n):
        series, term = {}, F(1)
        for m in range(cap + 1):
            series[bytes([i]) * m] = term
            term /= m + 1
        e = ref_mul(e, series, cap)
    z = ref_add(e, {b"": F(1)}, -1)
    out, power = {}, {b"": F(1)}
    for k in range(1, cap + 1):
        power = ref_mul(power, z, cap)
        out = ref_add(out, {w: c * F((-1) ** (k + 1), k) for w, c in power.items()})
    return out


def ref_relabel_sum(block, maps, sign_of=lambda i: 1):
    """sum_i sign_of(i) * block with letter b -> maps[i][b]."""
    out = {}
    for i, m in enumerate(maps):
        for w, c in block.items():
            pw = bytes(m[b] for b in w)
            out[pw] = out.get(pw, F(0)) + sign_of(i) * c
    return {w: c for w, c in out.items() if c}


def random_poly(rng, n, cap, size=25):
    """Random words with random signed Fractions (colliding words add up)."""
    terms = {}
    for _ in range(size):
        word = bytes(rng.randrange(n) for _ in range(rng.randint(0, cap)))
        terms[word] = terms.get(word, F(0)) + F(rng.randint(-9, 9), rng.randint(1, 12))
    return {w: c for w, c in terms.items() if c}


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("s", range(1, 5))
def test_dynkin_product_matches_series_reference(n, s):
    got = dynkin_product(n, s)
    assert got.terms == ref_product(n, s)
    assert all(type(c) is F for c in got.terms.values())


def test_arithmetic_matches_reference_on_random_polys():
    rng = random.Random(7)
    for _ in range(40):
        n, cap = rng.randint(1, 4), rng.randint(1, 4)
        p, q = random_poly(rng, n, cap), random_poly(rng, n, cap)
        fp, fq = FreePoly(n, cap, p), FreePoly(n, cap, q)
        assert fp.terms == p
        assert (fp + fq).terms == ref_add(p, q)
        assert (fp - fq).terms == ref_add(p, q, -1)
        assert (fp * fq).terms == ref_mul(p, q, cap)
        c = F(rng.randint(-5, 5), rng.randint(1, 7))
        assert fp.scale(c).terms == {w: c * x for w, x in p.items() if c * x}
        assert (fp - fp).is_zero() and fp - fp == FreePoly.zero(n, cap)


@pytest.mark.parametrize("n,t", [(3, 2), (4, 2), (4, 3), (5, 3), (6, 4)])
def test_periodize_matches_reference(n, t):
    block = ref_product(t, 4)
    block = {w: c for w, c in block.items() if set(w) == set(range(t))}
    assert full_support_block(t, 4).terms == block
    subsets = list(combinations(range(n), t))
    assert periodize(full_support_block(t, 4), n).terms == ref_relabel_sum(block, subsets)
    # repeated and overlapping subsets merge coefficients
    rng = random.Random(n * 10 + t)
    picked = [rng.choice(subsets) for _ in range(2 * len(subsets))]
    assert periodize(full_support_block(t, 4), n, picked).terms == \
        ref_relabel_sum(block, picked)


@pytest.mark.parametrize("a,k,nprime", [(2, 1, 1), (2, 2, 1), (3, 1, 1), (2, 1, 2)])
def test_apply_operator_matches_reference(a, k, nprime):
    bs = BlockSystem(a, k, nprime)
    n = bs.n_indices
    rng = random.Random(100 * a + 10 * k + nprime)
    polys = [random_poly(rng, n, 4, size=60) for _ in range(3)] + [ref_product(n, 3)]
    ops = [swap_operator(bs, s, t) for s, t in sample_pairs(bs, limit=6)]
    for _ in range(6):
        ops.append([(rng.choice((-1, 1)), tuple(rng.sample(range(n), n)))
                    for _ in range(rng.randint(1, 5))])
    for terms in polys:
        poly = FreePoly(n, 4, terms)
        for op in ops:
            want = ref_relabel_sum(terms, [perm for _, perm in op], lambda i: op[i][0])
            assert apply_operator(op, poly).terms == want
