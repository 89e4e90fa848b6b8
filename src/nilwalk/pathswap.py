"""Block permutation groups and signed swap averages on the free algebra.

The index set [N] with N = k(2a-1)N' is cut into N' large blocks of
k(2a-1) consecutive indices, each subdivided into 2a-1 blocks of size k.
Within a large block the central block has type 0 and types grow outward
to a-1.  The generator eps(i,j) exchanges the two type-i blocks of large
block j, preserving order inside the blocks; all generators have disjoint
support, so the group F they generate is elementary abelian.

The operator of interest is the signed average

    A = (sigma_1 - tau_1)(sigma_2 - tau_2)...(sigma_{a-1} - tau_{a-1})

acting on the free algebra through letter permutation.  Three exact facts
about A drive the Fourier decay argument for random products, and this
module verifies each of them by direct symbolic computation:

  1. A kills every monomial whose support misses one of the types
     1..a-1, and kills the support-size-t and degree-t pieces of the
     group product for every t <= a-1.
  2. On the support-size-a piece, A sees each large block separately:
     the result equals the sum over large blocks of A applied to the
     part supported inside that block, and only index sets meeting each
     small block at most once contribute.
  3. With all variables to the left of the central block set to zero,
     A applied to the degree-a support-size-a piece evaluates to a sign
     times the left-nested bracket of the per-type block sums.

``verify_system`` is the one home of the protocol that ``nilwalk pathswap
verify`` runs; fact 3 draws its inputs again while the bracket side is zero,
and a block that never gets a nonzero side fails.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .freealg import (
    DEFAULT_TERM_BUDGET,
    FreePoly,
    check_budget,
    product_degree_part,
    product_support_size_part,
)

Swap = tuple[int, int]  # (type i >= 1, large block j)


@dataclass(frozen=True)
class BlockSystem:
    """Partition of [N], N = k(2a-1)n_prime, into typed blocks."""

    a: int
    k: int
    n_prime: int

    def __post_init__(self):
        if self.a < 2:
            raise ValueError("need bracket order a >= 2")
        if self.k < 1 or self.n_prime < 1:
            raise ValueError("block length and count must be positive")

    @property
    def n_indices(self) -> int:
        return self.k * (2 * self.a - 1) * self.n_prime

    def large_block(self, j: int) -> range:
        w = self.k * (2 * self.a - 1)
        return range(j * w, (j + 1) * w)

    def block_positions(self, j: int, offset: int) -> range:
        """Positions of the block at signed offset in [-(a-1), a-1] of large block j."""
        start = self.large_block(j).start + (self.a - 1 + offset) * self.k
        return range(start, start + self.k)

    def type_of(self, index: int) -> int:
        w = self.k * (2 * self.a - 1)
        b = (index % w) // self.k
        return abs(b - (self.a - 1))

    def swaps(self) -> list[Swap]:
        return [(i, j) for i in range(1, self.a) for j in range(self.n_prime)]

    def permutation(self, active: frozenset[Swap]) -> tuple[int, ...]:
        """The permutation of [N] given by composing the active generators."""
        perm = list(range(self.n_indices))
        for (i, j) in active:
            left = self.block_positions(j, -i)
            for p in left:
                q = p + 2 * i * self.k
                perm[p], perm[q] = perm[q], perm[p]
        return tuple(perm)


class FElement:
    """Element of F = F_1 x ... x F_{a-1}, stored by its active generators."""

    __slots__ = ("system", "active")

    def __init__(self, system: BlockSystem, active: Iterable[Swap] = ()):
        self.system = system
        self.active = frozenset(active)
        for (i, j) in self.active:
            if not (1 <= i < system.a and 0 <= j < system.n_prime):
                raise ValueError(f"generator ({i},{j}) outside the block system")

    def component(self, i: int) -> frozenset[Swap]:
        return frozenset(s for s in self.active if s[0] == i)

    def block_component(self, j: int) -> frozenset[Swap]:
        return frozenset(s for s in self.active if s[1] == j)

    def permutation(self) -> tuple[int, ...]:
        return self.system.permutation(self.active)

    def swap_parity(self, j: Optional[int] = None) -> int:
        """(-1)^(number of active swaps), restricted to large block j if given.

        This is the sign character of the elementary abelian group F, which
        is what multiplies the bracket identity below.  It agrees with the
        permutation sign exactly when the block length k is odd.
        """
        if j is None:
            return -1 if len(self.active) % 2 else 1
        return -1 if len(self.block_component(j)) % 2 else 1

    def __eq__(self, other):
        return isinstance(other, FElement) and self.active == other.active

    def __hash__(self):
        return hash(self.active)

    def __repr__(self):
        return f"FElement({sorted(self.active)})"


def all_elements(system: BlockSystem) -> Iterator[FElement]:
    gens = system.swaps()
    for r in range(len(gens) + 1):
        for combo in itertools.combinations(gens, r):
            yield FElement(system, combo)


def sample_pairs(system: BlockSystem, limit: int, seed: int = 20231215) -> list[tuple[FElement, FElement]]:
    """Deterministic list of (sigma, tau) pairs to exercise.

    Exhaustive when |F|^2 <= limit; otherwise a seeded sample topped up with
    the structured pairs (identity vs identity, identity vs everything-on,
    and the all-distinct pair used by the bracket identity).
    """
    gens = system.swaps()
    total = 4 ** len(gens)
    if total <= limit:
        elems = list(all_elements(system))
        return [(s, t) for s in elems for t in elems]
    rng = random.Random(seed)
    full = FElement(system, gens)
    ident = FElement(system)
    pairs = [(ident, ident), (ident, full), (full, ident)]
    while len(pairs) < limit:
        s = FElement(system, [g for g in gens if rng.random() < 0.5])
        t = FElement(system, [g for g in gens if rng.random() < 0.5])
        pairs.append((s, t))
    return pairs


# -- the signed average ----------------------------------------------------


def swap_operator(system: BlockSystem, sigma: FElement, tau: FElement) -> list[tuple[int, tuple[int, ...]]]:
    """Expansion of prod_i (sigma_i - tau_i) into signed permutations.

    Returns 2^(a-1) terms (sign, permutation); terms with equal permutations
    are not merged, matching the formal product.
    """
    for name, elem in (("sigma", sigma), ("tau", tau)):
        if elem.system != system:
            raise ValueError(f"{name} belongs to {elem.system}, not to {system}")
    terms: list[tuple[int, frozenset[Swap]]] = [(1, frozenset())]
    for i in range(1, system.a):
        si, ti = sigma.component(i), tau.component(i)
        new: list[tuple[int, frozenset[Swap]]] = []
        for sgn, acc in terms:
            new.append((sgn, acc | si))
            new.append((-sgn, acc | ti))
        terms = new
    return [(sgn, system.permutation(acc)) for sgn, acc in terms]


def apply_operator(op: Sequence[tuple[int, tuple[int, ...]]], poly: FreePoly) -> FreePoly:
    """The signed permutations of op acting on poly, summed."""
    return poly.permutation_sum(op)


# -- verification of the three block-swap facts ----------------------------


def _monomials_missing_type(system: BlockSystem, missing: int, max_len: int) -> list[FreePoly]:
    """A few monomials whose support avoids every type-``missing`` block."""
    n = system.n_indices
    allowed = [p for p in range(n) if system.type_of(p) != missing]
    out = []
    for length in range(1, min(max_len, 3) + 1):
        word = bytes(allowed[(7 * i) % len(allowed)] for i in range(length))
        out.append(FreePoly(n, max_len, {word: Fraction(1)}))
    return out


def verify_low_degree_annihilation(system: BlockSystem, sigma: FElement, tau: FElement,
                                   max_len: int, budget: int = DEFAULT_TERM_BUDGET) -> bool:
    """Fact 1: A kills type-missing monomials and all product pieces of order < a."""
    n = system.n_indices
    op = swap_operator(system, sigma, tau)
    for missing in range(1, system.a):
        for mono in _monomials_missing_type(system, missing, max_len):
            if not apply_operator(op, mono).is_zero():
                return False
    for t in range(1, system.a):
        if not apply_operator(op, product_support_size_part(n, t, max_len, budget)).is_zero():
            return False
        if not apply_operator(op, product_degree_part(n, t, max_len, budget)).is_zero():
            return False
    return True


def verify_block_decoupling(system: BlockSystem, sigma: FElement, tau: FElement,
                            max_len: int, budget: int = DEFAULT_TERM_BUDGET) -> bool:
    """Fact 2: A of the support-size-a piece splits over large blocks,
    and only index sets meeting each small block at most once matter.
    A is linear, so both are checked as A(piece - per_block) = 0 and
    A(per_block - spread) = 0.  The first difference is structurally zero
    when n' = 1 (one large block) and the second when k = 1 (one index per
    small block), so at k = 1, n' = 1 the fact holds for any operator."""
    n = system.n_indices
    op = swap_operator(system, sigma, tau)
    piece = product_support_size_part(n, system.a, max_len, budget)
    per_block = FreePoly.zero(n, max_len)
    spread = FreePoly.zero(n, max_len)
    for j in range(system.n_prime):
        block = piece.support_within(system.large_block(j))
        per_block = per_block + block
        k = system.k
        spread = spread + block.where(lambda w: len({p // k for p in set(w)}) == len(set(w)))
    return (apply_operator(op, piece - per_block).is_zero()
            and apply_operator(op, per_block - spread).is_zero())


def verify_block_vanishing(system: BlockSystem, sigma: FElement, tau: FElement, j: int,
                           max_len: int, budget: int = DEFAULT_TERM_BUDGET) -> bool:
    """Fact 3(i): if sigma and tau share a component on large block j, A kills
    everything supported inside that block."""
    shares = any(
        ((i, j) in sigma.active) == ((i, j) in tau.active)
        for i in range(1, system.a)
    )
    if not shares:
        raise ValueError("sigma and tau differ in every component on this block")
    n = system.n_indices
    op = swap_operator(system, sigma, tau)
    piece = product_support_size_part(n, system.a, max_len, budget)
    inside = piece.support_within(system.large_block(j))
    if not apply_operator(op, inside).is_zero():
        return False
    rng = random.Random(11 * j + 5)
    positions = list(system.large_block(j))
    for _ in range(3):
        word = bytes(rng.choice(positions) for _ in range(min(max_len, system.a)))
        mono = FreePoly(n, max_len, {word: Fraction(1)})
        if not apply_operator(op, mono).is_zero():
            return False
    return True


def block_bracket_sides(system: BlockSystem, sigma: FElement, tau: FElement, j: int,
                        algebra, xs: Sequence, budget: int = DEFAULT_TERM_BUDGET):
    """Both sides of fact 3(ii) evaluated on a nilpotent algebra.

    ``xs`` must assign an exact coordinate vector to every index of the
    system, with zero vectors strictly left of the central block of large
    block j.  Returns (lhs, rhs) as coordinate tuples.
    """
    a, n = system.a, system.n_indices
    for i in range(1, a):
        if ((i, j) in sigma.active) == ((i, j) in tau.active):
            raise ValueError("fact 3(ii) needs sigma, tau to differ in every component on block j")
    for off in range(-(a - 1), 0):
        for p in system.block_positions(j, off):
            if any(c != 0 for c in xs[p]):
                raise ValueError(f"index {p} lies left of the central block and must be zero")

    piece = product_support_size_part(n, a, algebra.step, budget).degree_part(a)
    inside = piece.support_within(system.large_block(j))
    op = swap_operator(system, sigma, tau)
    moved = apply_operator(op, inside)
    return algebra.evaluate_poly_exact(moved, xs), block_bracket_rhs(system, sigma, j, algebra, xs)


def block_bracket_rhs(system: BlockSystem, sigma: FElement, j: int, algebra, xs: Sequence):
    """Right side of fact 3(ii): the swap parity of sigma on large block j
    times the left-nested bracket of the per-type block sums."""
    zero = algebra.zero_vector()
    bars = []
    for t in range(system.a):
        total = zero
        offsets = (0,) if t == 0 else (-t, t)
        for off in offsets:
            for p in system.block_positions(j, off):
                total = algebra.add_exact(total, xs[p])
        bars.append(total)
    rhs = bars[0]
    for t in range(1, system.a):
        rhs = algebra.bracket_exact(rhs, bars[t])
    parity = FElement(system, sigma.block_component(j)).swap_parity()
    return algebra.scale_exact(parity, rhs)


def verify_block_bracket_identity(system: BlockSystem, sigma: FElement, tau: FElement, j: int,
                                  algebra, xs: Sequence, budget: int = DEFAULT_TERM_BUDGET) -> bool:
    lhs, rhs = block_bracket_sides(system, sigma, tau, j, algebra, xs, budget)
    return tuple(lhs) == tuple(rhs)


# draws of fact-3 inputs per large block before its check counts as vacuous
FACT3_DRAWS = 8


def bracket_inputs(system: BlockSystem, algebra, j: int, rng: random.Random) -> list:
    """Fact-3 inputs for large block j: zero left of its central block, random thirds elsewhere."""
    left = {p for off in range(1, system.a) for p in system.block_positions(j, -off)}
    return [algebra.zero_vector() if p in left
            else tuple(Fraction(rng.randint(-6, 6), 3) for _ in range(algebra.dim))
            for p in range(system.n_indices)]


def verify_drawn_bracket_identity(system: BlockSystem, sigma: FElement, tau: FElement,
                                  algebra, rng: random.Random, budget: int) -> bool:
    """Fact 3(ii) on every large block, on the first of ``FACT3_DRAWS`` draws
    of ``bracket_inputs`` whose bracket side is nonzero; a block whose every
    draw gives a zero side would compare zero with zero, so it fails."""
    for j in range(system.n_prime):
        draws = (bracket_inputs(system, algebra, j, rng) for _ in range(FACT3_DRAWS))
        xs = next((d for d in draws if any(block_bracket_rhs(system, sigma, j, algebra, d))), None)
        if not (xs and verify_block_bracket_identity(system, sigma, tau, j, algebra, xs, budget)):
            return False
    return True


def verify_system(system: BlockSystem, step: int, pair_limit: int, rng: random.Random,
                  budget: int) -> tuple[int, FreePoly, str, tuple[bool, bool, bool]]:
    """The three block-swap facts on ``system``, truncated at ``step``: the
    number of sigma/tau pairs facts 1 and 2 ran on, the support-size-a piece
    of the group product, the name of fact 3's algebra and the verdicts."""
    from .algebra import free_nilpotent, heisenberg3

    # an a-fold bracket vanishes below class a, so fact 3 needs class >= a
    a = system.a
    algebra = heisenberg3() if a == 2 else free_nilpotent(3 if a == 3 else 2, a)
    check_budget(system.n_indices, step, budget)
    pairs = sample_pairs(system, limit=pair_limit)
    ok1 = all(verify_low_degree_annihilation(system, s, t, step, budget) for s, t in pairs)
    piece = product_support_size_part(system.n_indices, a, step, budget)
    ok2 = all(verify_block_decoupling(system, s, t, step, budget) for s, t in pairs)
    sigma = FElement(system, [g for g in system.swaps() if g[0] % 2 == 1])
    tau = FElement(system, [g for g in system.swaps() if g[0] % 2 == 0])
    ok3 = verify_drawn_bracket_identity(system, sigma, tau, algebra, rng, budget)
    return len(pairs), piece, algebra.name, (ok1, ok2, ok3)
