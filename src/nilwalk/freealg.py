"""Truncated free associative algebra on N letters with exact coefficients.

Monomials are words over the letters (0-based, packed as ``bytes``), kept
only up to a length cap ``max_len``; coefficients are ``Fraction``.  The
cap turns the algebra into the universal envelope for nilpotency class
``max_len``: the N-fold group product in exponential coordinates is just

    prod(N) = log(exp(u_1) exp(u_2) ... exp(u_N)),

computed here by formal series arithmetic.  Its pieces by support size or
by monomial degree, the periodization that rebuilds the support pieces
from the small full-support blocks, and the left-bracketing map L all live
in this module.  Everything is exact; zero-coefficient terms are never
stored.

Evaluation on a concrete nilpotent Lie algebra goes through the classical
Dynkin idempotent: a Lie element of degree r equals (1/r) L(itself), so a
word w of length r contributes (c_w / r) times the left-nested bracket of
its letters.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Optional

Word = bytes

DEFAULT_TERM_BUDGET = 10_000_000


class BudgetExceeded(RuntimeError):
    """Raised when a symbolic computation would exceed the configured term budget."""


def estimated_word_count(n_letters: int, max_len: int) -> int:
    return sum(n_letters**r for r in range(1, max_len + 1))


def check_budget(n_letters: int, max_len: int, budget: int = DEFAULT_TERM_BUDGET) -> None:
    if estimated_word_count(n_letters, max_len) > budget:
        raise BudgetExceeded(
            f"truncated algebra on {n_letters} letters at length {max_len} "
            f"exceeds the term budget {budget}"
        )


class FreePoly:
    """Sparse element of the free associative algebra, truncated at max_len.

    ``terms`` maps words (bytes over range(n_letters), length <= max_len)
    to nonzero Fractions.  The empty word is the unit monomial; it shows
    up in intermediate exp/log arithmetic, never in group-product output.
    """

    __slots__ = ("n_letters", "max_len", "terms")

    def __init__(self, n_letters: int, max_len: int, terms: Optional[dict[Word, Fraction]] = None):
        self.n_letters = n_letters
        self.max_len = max_len
        self.terms: dict[Word, Fraction] = terms if terms is not None else {}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n_letters: int, max_len: int) -> "FreePoly":
        return cls(n_letters, max_len)

    @classmethod
    def unit(cls, n_letters: int, max_len: int) -> "FreePoly":
        return cls(n_letters, max_len, {b"": Fraction(1)})

    @classmethod
    def letter(cls, i: int, n_letters: int, max_len: int) -> "FreePoly":
        if not 0 <= i < n_letters:
            raise ValueError(f"letter index {i} out of range")
        return cls(n_letters, max_len, {bytes([i]): Fraction(1)})

    def copy(self) -> "FreePoly":
        return FreePoly(self.n_letters, self.max_len, dict(self.terms))

    # -- basic arithmetic ---------------------------------------------

    def _compat(self, other: "FreePoly") -> None:
        if self.n_letters != other.n_letters or self.max_len != other.max_len:
            raise ValueError("FreePoly shape mismatch")

    def __add__(self, other: "FreePoly") -> "FreePoly":
        self._compat(other)
        d = dict(self.terms)
        for w, c in other.terms.items():
            nc = d.get(w, Fraction(0)) + c
            if nc:
                d[w] = nc
            else:
                d.pop(w, None)
        return FreePoly(self.n_letters, self.max_len, d)

    def __sub__(self, other: "FreePoly") -> "FreePoly":
        self._compat(other)
        d = dict(self.terms)
        for w, c in other.terms.items():
            nc = d.get(w, Fraction(0)) - c
            if nc:
                d[w] = nc
            else:
                d.pop(w, None)
        return FreePoly(self.n_letters, self.max_len, d)

    def __neg__(self) -> "FreePoly":
        return FreePoly(self.n_letters, self.max_len, {w: -c for w, c in self.terms.items()})

    def scale(self, c) -> "FreePoly":
        c = Fraction(c)
        if c == 0:
            return FreePoly.zero(self.n_letters, self.max_len)
        return FreePoly(self.n_letters, self.max_len, {w: c * x for w, x in self.terms.items()})

    def __mul__(self, other: "FreePoly") -> "FreePoly":
        """Concatenation product, silently dropping words beyond max_len."""
        self._compat(other)
        d: dict[Word, Fraction] = {}
        cap = self.max_len
        for w1, c1 in self.terms.items():
            room = cap - len(w1)
            for w2, c2 in other.terms.items():
                if len(w2) > room:
                    continue
                w = w1 + w2
                nc = d.get(w, Fraction(0)) + c1 * c2
                if nc:
                    d[w] = nc
                else:
                    d.pop(w, None)
        return FreePoly(self.n_letters, self.max_len, d)

    def bracket(self, other: "FreePoly") -> "FreePoly":
        return self * other - other * self

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FreePoly)
            and self.n_letters == other.n_letters
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n_letters, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    # -- projections ---------------------------------------------------

    def degree_part(self, r: int) -> "FreePoly":
        """Part spanned by words of length exactly r."""
        return FreePoly(self.n_letters, self.max_len, {w: c for w, c in self.terms.items() if len(w) == r})

    def support_part(self, letters: Iterable[int]) -> "FreePoly":
        """Part spanned by words whose support is exactly the given set."""
        target = frozenset(letters)
        return FreePoly(
            self.n_letters, self.max_len,
            {w: c for w, c in self.terms.items() if frozenset(w) == target},
        )

    def support_size_part(self, t: int) -> "FreePoly":
        """Part spanned by words using exactly t distinct letters."""
        return FreePoly(
            self.n_letters, self.max_len,
            {w: c for w, c in self.terms.items() if len(set(w)) == t},
        )

    def support_within(self, letters: Iterable[int]) -> "FreePoly":
        allowed = frozenset(letters)
        return FreePoly(
            self.n_letters, self.max_len,
            {w: c for w, c in self.terms.items() if frozenset(w) <= allowed},
        )

    # -- symmetric group action ----------------------------------------

    def permute(self, perm: tuple[int, ...]) -> "FreePoly":
        """Apply a permutation to the letters: u_i -> u_{perm[i]}."""
        d: dict[Word, Fraction] = {}
        for w, c in self.terms.items():
            pw = bytes(perm[b] for b in w)
            nc = d.get(pw, Fraction(0)) + c
            if nc:
                d[pw] = nc
            else:
                d.pop(pw, None)
        return FreePoly(self.n_letters, self.max_len, d)

    def relabel(self, mapping: dict[int, int], n_letters: int) -> "FreePoly":
        """Inject into an algebra on n_letters letters via letter -> mapping[letter]."""
        d: dict[Word, Fraction] = {}
        for w, c in self.terms.items():
            pw = bytes(mapping[b] for b in w)
            nc = d.get(pw, Fraction(0)) + c
            if nc:
                d[pw] = nc
            else:
                d.pop(pw, None)
        return FreePoly(n_letters, self.max_len, d)

    # -- output ---------------------------------------------------------

    def dump_lines(self) -> list[str]:
        """Canonical diff-stable dump: one 'word<TAB>num/den' line per term."""
        def render(w: Word) -> str:
            return ".".join(str(b + 1) for b in w) if w else "1"
        rows = sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
        return [f"{render(w)}\t{c.numerator}/{c.denominator}" for w, c in rows]

    def __repr__(self):
        return f"FreePoly(n={self.n_letters}, cap={self.max_len}, terms={len(self.terms)})"


# -- left bracketing map -------------------------------------------------


def left_bracket_word(w: Word, n_letters: int, max_len: int) -> FreePoly:
    """Expansion of [[...[u_{w1},u_{w2}],...],u_{wr}] as an associative polynomial."""
    if not w:
        raise ValueError("empty word has no bracketing")
    acc = FreePoly.letter(w[0], n_letters, max_len)
    for b in w[1:]:
        acc = acc.bracket(FreePoly.letter(b, n_letters, max_len))
    return acc


def bracketing_map(p: FreePoly) -> FreePoly:
    """Linear extension of w -> left-nested bracket of the letters of w."""
    out = FreePoly.zero(p.n_letters, p.max_len)
    cache: dict[Word, FreePoly] = {}
    for w, c in p.terms.items():
        if not w:
            raise ValueError("constant term has no bracketing")
        lb = cache.get(w)
        if lb is None:
            lb = left_bracket_word(w, p.n_letters, p.max_len)
            cache[w] = lb
        out = out + lb.scale(c)
    return out


# -- the group product in the free algebra --------------------------------


def _exp_product(n_letters: int, max_len: int) -> FreePoly:
    """exp(u_1) exp(u_2) ... exp(u_N) truncated at max_len.

    Only nondecreasing words survive; the coefficient of a word is the
    product of 1/m! over its runs of equal letters.  Built directly rather
    than by multiplying N series.
    """
    terms: dict[Word, Fraction] = {b"": Fraction(1)}

    def extend(prefix: list[int], coeff: Fraction, last: int, run: int):
        for nxt in range(last, n_letters):
            new_run = run + 1 if nxt == last else 1
            c = coeff / new_run
            word = prefix + [nxt]
            terms[bytes(word)] = c
            if len(word) < max_len:
                extend(word, c, nxt, new_run)

    extend([], Fraction(1), 0, 0)
    # the initial call with last=0, run=0 never matches a previous letter
    return FreePoly(n_letters, max_len, terms)


def dynkin_product(n_letters: int, max_len: int, budget: int = DEFAULT_TERM_BUDGET) -> FreePoly:
    """The N-fold group product log(exp(u_1)...exp(u_N)) truncated at max_len.

    This is the unique Lie element whose evaluation on any nilpotent Lie
    algebra of class <= max_len is the product x_1 * ... * x_N in
    exponential coordinates.  Verified elsewhere against closed forms and
    against direct folding of the two-letter series.
    """
    if n_letters < 1 or max_len < 1:
        raise ValueError("need at least one letter and length 1")
    check_budget(n_letters, max_len, budget)
    e = _exp_product(n_letters, max_len)
    z = e - FreePoly.unit(n_letters, max_len)
    # log(1+z) = z - z^2/2 + z^3/3 - ...; z has valuation 1 so max_len terms suffice
    out = FreePoly.zero(n_letters, max_len)
    power = FreePoly.unit(n_letters, max_len)
    for k in range(1, max_len + 1):
        power = power * z
        out = out + power.scale(Fraction((-1) ** (k + 1), k))
    return out


def full_support_block(t: int, max_len: int, budget: int = DEFAULT_TERM_BUDGET) -> FreePoly:
    """The part of the t-fold product supported on all t letters.

    This is the building block that periodization replicates over all
    t-subsets of a larger index set.
    """
    return dynkin_product(t, max_len, budget).support_part(range(t))


def periodize(block: FreePoly, n_letters: int, subsets: Optional[Iterable[tuple[int, ...]]] = None) -> FreePoly:
    """Sum of order-preserving relabelings of a t-letter block into n letters.

    With the default subsets this is the periodization operator: the block
    (on letters 0..t-1) is substituted into every increasing t-subset of
    range(n_letters) and the copies are summed.
    """
    t = block.n_letters
    d: dict[Word, Fraction] = {}
    if subsets is None:
        subsets = combinations(range(n_letters), t)
    for I in subsets:
        if len(I) != t:
            raise ValueError("subset size must match block letters")
        for w, c in block.terms.items():
            pw = bytes(I[b] for b in w)
            nc = d.get(pw, Fraction(0)) + c
            if nc:
                d[pw] = nc
            else:
                d.pop(pw, None)
    return FreePoly(n_letters, block.max_len, d)


def product_support_size_part(n_letters: int, t: int, max_len: int,
                              budget: int = DEFAULT_TERM_BUDGET) -> FreePoly:
    """Support-size-t part of the N-fold product, built by periodization.

    Equivalent to dynkin_product(N, s).support_size_part(t) but without
    materializing the full product; the equivalence is checked exhaustively
    for small N in the test suite.
    """
    if t > n_letters or t > max_len:
        return FreePoly.zero(n_letters, max_len)
    if math.comb(n_letters, t) * (4**max_len) > budget:
        raise BudgetExceeded("periodized support part exceeds budget")
    return periodize(full_support_block(t, max_len, budget), n_letters)


def product_degree_part(n_letters: int, r: int, max_len: int,
                        budget: int = DEFAULT_TERM_BUDGET) -> FreePoly:
    """Degree-r part of the N-fold product via periodization over support sizes."""
    out = FreePoly.zero(n_letters, max_len)
    for t in range(1, r + 1):
        out = out + product_support_size_part(n_letters, t, max_len, budget).degree_part(r)
    return out


def verify_periodization_identity(n_letters: int, t: int, max_len: int,
                                  budget: int = DEFAULT_TERM_BUDGET) -> bool:
    """Exact check that the support-size-t part of the full product equals
    the periodization of the t-letter full-support block."""
    if t > min(n_letters, max_len):
        raise ValueError("need t <= min(N, cap)")
    full = dynkin_product(n_letters, max_len, budget)
    lhs = full.support_size_part(t)
    rhs = periodize(full_support_block(t, max_len, budget), n_letters)
    return lhs == rhs


# -- evaluation ------------------------------------------------------------


def evaluate_lie(poly: FreePoly, xs, bracket: Callable, add: Callable, scale: Callable, zero):
    """Evaluate a Lie element on concrete vectors.

    ``xs[i]`` replaces letter i; ``bracket``, ``add``, ``scale`` supply the
    target algebra's operations, ``zero`` its origin.  Only valid when
    ``poly`` lies in the image of the bracketing map (true for group
    products and everything derived from them by projections and
    permutations); the Dynkin idempotent then gives the word-by-word rule
    used here.
    """
    acc = zero
    cache: dict[Word, object] = {}
    for w, c in sorted(poly.terms.items(), key=lambda kv: (len(kv[0]), kv[0])):
        r = len(w)
        if r == 0:
            raise ValueError("constant terms cannot be evaluated as Lie elements")
        v = cache.get(w)
        if v is None:
            v = cache.get(w[:-1])
            if v is None:
                v = xs[w[0]]
                for b in w[1:]:
                    v = bracket(v, xs[b])
            else:
                v = bracket(v, xs[w[-1]])
            cache[w] = v
        acc = add(acc, scale(Fraction(c, r), v))
    return acc


def is_lie_element(poly: FreePoly) -> bool:
    """Dynkin-Specht-Wever test: each degree-r part satisfies L(p) = r p."""
    for r in range(1, poly.max_len + 1):
        part = poly.degree_part(r)
        if part.is_zero():
            continue
        if bracketing_map(part) != part.scale(r):
            return False
    return True
