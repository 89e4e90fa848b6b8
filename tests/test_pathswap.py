"""Block-swap combinatorics, verified exactly in rational arithmetic."""

import random
from fractions import Fraction as F

import pytest

from nilwalk import pathswap
from nilwalk.algebra import free_nilpotent, heisenberg3
from nilwalk.freealg import DEFAULT_TERM_BUDGET, FreePoly
from nilwalk.pathswap import (
    BlockSystem,
    FElement,
    all_elements,
    apply_operator,
    block_bracket_sides,
    bracket_inputs,
    sample_pairs,
    swap_operator,
    verify_block_decoupling,
    verify_block_vanishing,
    verify_drawn_bracket_identity,
    verify_low_degree_annihilation,
    verify_system,
)

CONFIGS = [(2, 1, 1), (2, 1, 2), (2, 2, 1), (3, 1, 1)]


def test_block_geometry():
    bs = BlockSystem(3, 2, 2)
    assert bs.n_indices == 20
    # types mirror outward from each central block
    assert [bs.type_of(i) for i in range(10)] == [2, 2, 1, 1, 0, 0, 1, 1, 2, 2]
    assert list(bs.block_positions(1, 0)) == [14, 15]
    perm = bs.permutation(frozenset({(2, 0)}))
    # the two type-2 blocks of large block 0 swap, order preserved
    assert perm[0] == 8 and perm[1] == 9 and perm[8] == 0 and perm[9] == 1
    assert perm[4] == 4


def test_operator_expansion_shapes():
    bs = BlockSystem(3, 1, 1)
    ident = FElement(bs)
    full = FElement(bs, [(1, 0), (2, 0)])
    op = swap_operator(bs, ident, full)
    assert len(op) == 4  # 2^(a-1) signed permutations
    signs = sorted(s for s, _ in op)
    assert signs == [-1, -1, 1, 1]

    bs2 = BlockSystem(2, 1, 1)
    eps = FElement(bs2, [(1, 0)])
    op2 = swap_operator(bs2, FElement(bs2), eps)
    perms = {p for _, p in op2}
    assert (0, 1, 2) in perms and (2, 1, 0) in perms


def test_equal_elements_annihilate():
    bs = BlockSystem(2, 2, 2)
    sigma = FElement(bs, [(1, 0)])
    op = swap_operator(bs, sigma, sigma)
    mono = FreePoly(bs.n_indices, 3, {bytes([0, 5]): F(1)})
    assert apply_operator(op, mono).is_zero()


@pytest.mark.parametrize("a,k,nprime", CONFIGS)
def test_annihilation_and_decoupling_exhaustive(a, k, nprime):
    bs = BlockSystem(a, k, nprime)
    elems = list(all_elements(bs))
    assert len(elems) == 2 ** ((a - 1) * nprime)
    for sigma in elems:
        for tau in elems:
            assert verify_low_degree_annihilation(bs, sigma, tau, 4)
            assert verify_block_decoupling(bs, sigma, tau, 4)


@pytest.mark.parametrize("a,k,nprime", [(2, 1, 2), (2, 2, 1)])
def test_decoupling_fails_for_a_wrong_operator(a, k, nprime, monkeypatch):
    """Fact 2 can fail.  With the sign of the tau_1 terms flipped (the second
    half of the expansion) the operator is no longer a signed difference.
    (2,1,2) has one index per small block, so only the first clause, the
    split over large blocks, can catch it; (2,2,1) has one large block, so
    only the second clause, index sets meeting a small block twice, can."""
    bs = BlockSystem(a, k, nprime)
    pairs = [(s, t) for s in all_elements(bs) for t in all_elements(bs)]
    assert all(verify_block_decoupling(bs, s, t, 4) for s, t in pairs)

    true_operator = pathswap.swap_operator

    def flipped(system, sigma, tau):
        op = true_operator(system, sigma, tau)
        half = len(op) // 2
        return op[:half] + [(-sgn, perm) for sgn, perm in op[half:]]

    monkeypatch.setattr(pathswap, "swap_operator", flipped)
    assert not any(verify_block_decoupling(bs, s, t, 4) for s, t in pairs)


@pytest.mark.parametrize("a,k,nprime", [(2, 2, 2), (3, 1, 2), (3, 2, 1)])
def test_annihilation_and_decoupling_sampled(a, k, nprime):
    bs = BlockSystem(a, k, nprime)
    for sigma, tau in sample_pairs(bs, limit=10):
        assert verify_low_degree_annihilation(bs, sigma, tau, 4)
        assert verify_block_decoupling(bs, sigma, tau, 4)


def test_vanishing_when_components_agree():
    bs = BlockSystem(3, 1, 1)
    sigma = FElement(bs, [(1, 0)])
    tau = FElement(bs, [(1, 0), (2, 0)])  # both activate the type-1 swap
    assert verify_block_vanishing(bs, sigma, tau, 0, 4)
    with pytest.raises(ValueError):
        verify_block_vanishing(bs, FElement(bs), FElement(bs, [(1, 0), (2, 0)]), 0, 4)


def test_heisenberg_bracket_identity_hand_case():
    # a=2, N=3, inputs (0, x2, x3): the signed average evaluates to [x2, x3]
    bs = BlockSystem(2, 1, 1)
    h = heisenberg3()
    x2 = (F(1), F(2), F(0))
    x3 = (F(0), F(1), F(3))
    xs = [h.zero_vector(), x2, x3]
    lhs, rhs = block_bracket_sides(bs, FElement(bs), FElement(bs, [(1, 0)]), 0, h, xs)
    assert lhs == rhs == h.bracket_exact(x2, x3) == (0, 0, 1)
    # swapping sigma and tau flips the sign
    lhs2, rhs2 = block_bracket_sides(bs, FElement(bs, [(1, 0)]), FElement(bs), 0, h, xs)
    assert lhs2 == rhs2 == (0, 0, -1)


@pytest.mark.parametrize("a,k,nprime", [(2, 1, 1), (2, 2, 1), (3, 1, 1), (3, 1, 2)])
def test_bracket_identity_on_free_algebra(a, k, nprime):
    bs = BlockSystem(a, k, nprime)
    algebra = heisenberg3() if a == 2 else free_nilpotent(3, 3)
    rng = random.Random(100 * a + k)
    gens = bs.swaps()
    sigma = FElement(bs, [g for g in gens if rng.random() < 0.5])
    tau = FElement(bs, [g for g in gens if g not in sigma.active])
    assert verify_drawn_bracket_identity(bs, sigma, tau, algebra, rng, DEFAULT_TERM_BUDGET)


def test_bracket_identity_requires_zero_left_inputs():
    bs = BlockSystem(2, 1, 1)
    h = heisenberg3()
    xs = [(F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))]
    with pytest.raises(ValueError):
        block_bracket_sides(bs, FElement(bs), FElement(bs, [(1, 0)]), 0, h, xs)


def test_swap_parity():
    bs = BlockSystem(3, 2, 2)
    sigma = FElement(bs, [(1, 0), (2, 0), (1, 1)])
    assert sigma.swap_parity() == -1
    assert sigma.swap_parity(0) == 1  # two active swaps in large block 0
    assert sigma.swap_parity(1) == -1


def test_swap_operator_checks_both_elements_belong_to_the_system():
    bs = BlockSystem(2, 1, 1)
    other = BlockSystem(3, 1, 1)
    own = FElement(bs, [(1, 0)])
    with pytest.raises(ValueError, match="tau"):
        swap_operator(bs, own, FElement(other, [(1, 0)]))
    with pytest.raises(ValueError, match="sigma"):
        swap_operator(bs, FElement(other), own)
    # an equal system built separately is the same system
    assert len(swap_operator(bs, own, FElement(BlockSystem(2, 1, 1)))) == 2


@pytest.mark.parametrize("a,k,nprime,limit", [(4, 1, 1, 16), (4, 1, 2, 6)])
def test_block_swap_facts_at_a4(a, k, nprime, limit):
    bs = BlockSystem(a, k, nprime)
    # fact 3 needs class >= a: on free-nilpotent(2,4) both sides are nonzero
    pairs, _, algebra, facts = verify_system(bs, 4, limit, random.Random(40 + nprime),
                                             DEFAULT_TERM_BUDGET)
    assert pairs == limit and algebra == "free_nilpotent(2,4)"
    assert facts == (True, True, True)
    sigma = FElement(bs, [g for g in bs.swaps() if g[0] % 2 == 1])
    for j in range(nprime):
        shared = FElement(bs, sigma.active | {(2, j)})
        assert verify_block_vanishing(bs, sigma, shared, j, 4)


def test_bracket_side_vanishes_below_class_a():
    # the old fact-3 algebra for a = 4 has class 3: both sides are zero
    bs = BlockSystem(4, 1, 1)
    algebra = free_nilpotent(3, 3)
    gens = bs.swaps()
    sigma = FElement(bs, [g for g in gens if g[0] % 2 == 1])
    tau = FElement(bs, [g for g in gens if g[0] % 2 == 0])
    xs = bracket_inputs(bs, algebra, 0, random.Random(3))
    lhs, rhs = block_bracket_sides(bs, sigma, tau, 0, algebra, xs)
    assert not any(lhs) and not any(rhs)
