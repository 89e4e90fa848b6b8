"""Exact checks of the truncated free-algebra engine.

The two- and three-letter group products have small closed forms that the
tests pin down term by term; everything larger is cross-checked through
the periodization identity and the Lie-element criterion.
"""

from fractions import Fraction as F

import pytest

from nilwalk.freealg import (
    BudgetExceeded,
    FreePoly,
    bracketing_map,
    check_budget,
    dynkin_product,
    evaluate_lie,
    full_support_block,
    is_lie_element,
    left_bracket_word,
    periodize,
    product_degree_part,
    product_support_size_part,
    verify_periodization_identity,
)


def w(*letters):
    return bytes(letters)


def test_letter_and_arithmetic():
    u1 = FreePoly.letter(0, 2, 3)
    u2 = FreePoly.letter(1, 2, 3)
    p = u1 * u2 - u2 * u1
    assert p.terms == {w(0, 1): F(1), w(1, 0): F(-1)}
    assert (p - p).is_zero()
    assert p.scale(F(1, 2)).terms[w(0, 1)] == F(1, 2)


def test_truncation_drops_long_words():
    u1 = FreePoly.letter(0, 1, 2)
    cube = u1 * u1 * u1
    assert cube.is_zero()


def test_bracketing_on_words():
    # L(u1 u2) = u1u2 - u2u1
    p = FreePoly(2, 3, {w(0, 1): F(1)})
    assert bracketing_map(p).terms == {w(0, 1): F(1), w(1, 0): F(-1)}
    # L(u1) = u1
    single = FreePoly.letter(0, 2, 3)
    assert bracketing_map(single) == single
    # L(u1u2u3) = [[u1,u2],u3] = u1u2u3 - u2u1u3 - u3u1u2 + u3u2u1
    q = left_bracket_word(w(0, 1, 2), 3, 3)
    assert q.terms == {
        w(0, 1, 2): F(1), w(2, 1, 0): F(1),
        w(1, 0, 2): F(-1), w(2, 0, 1): F(-1),
    }


def test_two_letter_product_series():
    p = dynkin_product(2, 4)
    assert p.degree_part(1).terms == {w(0): F(1), w(1): F(1)}
    # quadratic part is half the commutator
    assert p.degree_part(2).terms == {w(0, 1): F(1, 2), w(1, 0): F(-1, 2)}
    # cubic part is the classical (1/12)([x,[x,y]] + [y,[y,x]])
    xxy = bracketing_map(FreePoly(2, 4, {w(0, 0, 1): F(1)}))  # [[u1,u1],..] vanishes
    assert xxy.is_zero()
    expected3 = (
        left_bracket_word(w(0, 1, 1), 2, 4).scale(F(1, 12))   # [[u1,u2],u2] = [y? no: see below
    )
    # [x,[x,y]] = -[[x,y],x] = left bracket of (0,1,0) negated
    lhs = p.degree_part(3)
    alt = left_bracket_word(w(0, 1, 0), 2, 4).scale(F(-1, 12)) + \
        left_bracket_word(w(1, 0, 1), 2, 4).scale(F(-1, 12))
    assert lhs == alt


def test_single_letter_product_is_letter():
    assert dynkin_product(1, 5) == FreePoly(1, 5, {w(0): F(1)})


def test_three_letter_cubic_full_support():
    p3 = dynkin_product(3, 3)
    got = p3.support_part([0, 1, 2]).degree_part(3)
    expected = left_bracket_word(w(0, 1, 2), 3, 3).scale(F(1, 6)) + \
        left_bracket_word(w(2, 1, 0), 3, 3).scale(F(1, 6))
    assert got == expected


def test_products_are_lie_elements():
    for n, s in [(2, 4), (3, 3), (4, 3)]:
        assert is_lie_element(dynkin_product(n, s))


@pytest.mark.parametrize("n", range(2, 7))
def test_periodization_identity(n):
    for t in range(1, min(n, 4) + 1):
        assert verify_periodization_identity(n, t, 4)


def test_periodization_identity_spot_check_larger():
    assert verify_periodization_identity(8, 2, 4)


def test_support_projections():
    p3 = dynkin_product(3, 3)
    # projecting to {1,3} keeps exactly the two-letter block on those letters
    proj = p3.support_part([0, 2])
    block = full_support_block(2, 3).relabel({0: 0, 1: 2}, 3)
    assert proj == block
    assert p3.support_part([]).is_zero() or p3.support_part([]).terms == {}
    assert p3.degree_part(1).terms == {w(0): F(1), w(1): F(1), w(2): F(1)}


def test_degree_parts_by_periodization():
    n, s = 5, 3
    full = dynkin_product(n, s)
    for r in range(1, s + 1):
        assert product_degree_part(n, r, s) == full.degree_part(r)
    for t in range(1, 4):
        assert product_support_size_part(n, t, s) == full.support_size_part(t)


def test_permute_action_consistency():
    p = dynkin_product(3, 3)
    perm = (2, 0, 1)
    moved = p.permute(perm)
    # evaluation of sigma R equals R on permuted inputs (scalar model algebra:
    # use the free algebra itself in a higher-letter host as bracket oracle)
    assert moved.degree_part(1).terms == {w(2): F(1), w(0): F(1), w(1): F(1)}
    # and the action is a module action: (sigma tau) R = sigma (tau R)
    tau = (1, 2, 0)
    comp = tuple(perm[tau[i]] for i in range(3))
    assert p.permute(tau).permute(perm) == p.permute(comp)


def test_permute_rejects_a_map_that_is_not_a_permutation():
    p = dynkin_product(3, 3)
    for bad in [(0, 0, 1), (0, 1), (0, 1, 2, 3), (1, 2, 3)]:
        with pytest.raises(ValueError):
            p.permute(bad)
    # the non-bijective map is relabel, which merges colliding words
    merged = FreePoly(2, 2, {w(0, 1): F(1), w(1, 0): F(2)}).relabel({0: 0, 1: 0}, 1)
    assert merged.terms == {w(0, 0): F(3)}


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        check_budget(50, 5, budget=10_000)
    with pytest.raises(BudgetExceeded):
        dynkin_product(40, 5, budget=100_000)


def test_dump_lines_canonical():
    p = dynkin_product(2, 2)
    lines = p.dump_lines()
    assert lines == ["1\t1/1", "2\t1/1", "1.2\t1/2", "2.1\t-1/2"]


def test_evaluate_lie_on_matrix_free_model():
    # evaluate on the free algebra itself: substituting the letters
    # reproduces the element (universal property, degree by degree)
    p = dynkin_product(2, 3)
    xs = [FreePoly.letter(0, 2, 3), FreePoly.letter(1, 2, 3)]
    val = evaluate_lie(
        p, xs,
        bracket=lambda a, b: a.bracket(b),
        add=lambda a, b: a + b,
        scale=lambda c, a: a.scale(c),
        zero=FreePoly.zero(2, 3),
    )
    assert val == p
