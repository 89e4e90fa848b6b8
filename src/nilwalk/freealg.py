"""Truncated free associative algebra on N letters with exact coefficients.

Monomials are words over the letters (0-based, packed as ``bytes``), kept
only up to a length cap ``max_len``; coefficients are exact rationals,
stored as integer numerators over one common denominator.  The cap turns
the algebra into the universal envelope for nilpotency class ``max_len``:
the N-fold group product in exponential coordinates is just

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
from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterable, Optional, Sequence

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


def _lowest_terms(num: dict[Word, int], den: int) -> tuple[dict[Word, int], int]:
    """Drop zero numerators and cancel the common factor of num and den."""
    num = {w: c for w, c in num.items() if c}
    g = math.gcd(den, *num.values())
    if g > 1:
        num = {w: c // g for w, c in num.items()}
        den //= g
    return num, den


def _accumulate(acc: dict[Word, int], items: Iterable[tuple[Word, int]], factor: int = 1) -> None:
    """acc[w] += factor * c for every (w, c): the one merge loop of integer
    numerators.  Zeros stay until from_numerators drops them."""
    get = acc.get
    for w, c in items:
        acc[w] = get(w, 0) + factor * c


def _permutation_table(perm: Sequence[int], n_letters: int) -> bytes:
    """``bytes.translate`` table sending letter i to perm[i]; perm must be a
    permutation of range(n_letters)."""
    if sorted(perm) != list(range(n_letters)):
        raise ValueError(f"{tuple(perm)} is not a permutation of {n_letters} letters")
    return bytes(perm) + bytes(256 - n_letters)


def _translated_sum(poly: "FreePoly", n_letters: int,
                    tables: Iterable[tuple[int, bytes]]) -> "FreePoly":
    """sum of factor * (poly with its words translated by table) over the
    (factor, table) pairs: the words move and the integer numerators add
    over poly's denominator."""
    items = poly.num.items()
    acc: dict[Word, int] = {}
    for factor, table in tables:
        _accumulate(acc, ((w.translate(table), c) for w, c in items), factor)
    return FreePoly.from_numerators(n_letters, poly.max_len, acc, poly.den)


class FreePoly:
    """Sparse element of the free associative algebra, truncated at max_len.

    Coefficients are integer numerators ``num`` (word -> nonzero int) over
    one positive common denominator ``den``, in lowest terms, so sums,
    products and relabelings run on ints and build no Fraction.  ``terms``
    is the same element as a read-only word -> Fraction dict.  Words are
    bytes over range(n_letters) of length <= max_len; the empty word is the
    unit monomial, which shows up in intermediate exp/log arithmetic, never
    in group-product output.
    """

    __slots__ = ("n_letters", "max_len", "num", "den", "_terms")

    def __init__(self, n_letters: int, max_len: int, terms: Optional[dict[Word, Fraction]] = None):
        coeffs = {w: Fraction(c) for w, c in (terms or {}).items()}
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        self._set(n_letters, max_len,
                  *_lowest_terms({w: c.numerator * (den // c.denominator)
                                  for w, c in coeffs.items()}, den))

    def _set(self, n_letters: int, max_len: int, num: dict[Word, int], den: int) -> None:
        self.n_letters = n_letters
        self.max_len = max_len
        self.num = num
        self.den = den
        self._terms = None

    @classmethod
    def from_numerators(cls, n_letters: int, max_len: int, num: dict[Word, int],
                        den: int = 1) -> "FreePoly":
        """The element sum_w (num[w] / den) w; zeros and common factors are removed."""
        p = cls.__new__(cls)
        p._set(n_letters, max_len, *_lowest_terms(num, den))
        return p

    @property
    def terms(self) -> dict[Word, Fraction]:
        if self._terms is None:
            den = self.den
            self._terms = {w: Fraction(c, den) for w, c in self.num.items()}
        return self._terms

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n_letters: int, max_len: int) -> "FreePoly":
        return cls.from_numerators(n_letters, max_len, {})

    @classmethod
    def unit(cls, n_letters: int, max_len: int) -> "FreePoly":
        return cls.from_numerators(n_letters, max_len, {b"": 1})

    @classmethod
    def letter(cls, i: int, n_letters: int, max_len: int) -> "FreePoly":
        if not 0 <= i < n_letters:
            raise ValueError(f"letter index {i} out of range")
        return cls.from_numerators(n_letters, max_len, {bytes([i]): 1})

    def _like(self, num: dict[Word, int], den: int) -> "FreePoly":
        return FreePoly.from_numerators(self.n_letters, self.max_len, num, den)

    # -- basic arithmetic ---------------------------------------------

    def _compat(self, other: "FreePoly") -> None:
        if self.n_letters != other.n_letters or self.max_len != other.max_len:
            raise ValueError("FreePoly shape mismatch")

    def _combine(self, other: "FreePoly", sign: int) -> "FreePoly":
        """self + sign * other over the least common denominator."""
        self._compat(other)
        den = math.lcm(self.den, other.den)
        f = den // self.den
        acc = dict(self.num) if f == 1 else {w: f * c for w, c in self.num.items()}
        _accumulate(acc, other.num.items(), sign * (den // other.den))
        return self._like(acc, den)

    def __add__(self, other: "FreePoly") -> "FreePoly":
        return self._combine(other, 1)

    def __sub__(self, other: "FreePoly") -> "FreePoly":
        return self._combine(other, -1)

    def scale(self, c) -> "FreePoly":
        c = Fraction(c)
        return self._like({w: c.numerator * x for w, x in self.num.items()},
                          self.den * c.denominator)

    def __mul__(self, other: "FreePoly") -> "FreePoly":
        """Concatenation product, silently dropping words beyond max_len."""
        self._compat(other)
        by_len: dict[int, list[tuple[Word, int]]] = {}
        for w2, c2 in other.num.items():
            by_len.setdefault(len(w2), []).append((w2, c2))
        groups = sorted(by_len.items())
        acc: dict[Word, int] = {}
        cap = self.max_len
        for w1, c1 in self.num.items():
            room = cap - len(w1)
            for length, group in groups:
                if length > room:
                    break
                _accumulate(acc, ((w1 + w2, c2) for w2, c2 in group), c1)
        return self._like(acc, self.den * other.den)

    def bracket(self, other: "FreePoly") -> "FreePoly":
        return self * other - other * self

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FreePoly)
            and self.n_letters == other.n_letters
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.n_letters, self.den, frozenset(self.num.items())))

    def is_zero(self) -> bool:
        return not self.num

    def __len__(self) -> int:
        return len(self.num)

    # -- projections ---------------------------------------------------

    def where(self, keep: Callable[[Word], bool]) -> "FreePoly":
        """Part spanned by the words w with keep(w) true."""
        return self._like({w: c for w, c in self.num.items() if keep(w)}, self.den)

    def degree_part(self, r: int) -> "FreePoly":
        """Part spanned by words of length exactly r."""
        return self.where(lambda w: len(w) == r)

    def support_part(self, letters: Iterable[int]) -> "FreePoly":
        """Part spanned by words whose support is exactly the given set."""
        target = frozenset(letters)
        return self.where(lambda w: frozenset(w) == target)

    def support_size_part(self, t: int) -> "FreePoly":
        """Part spanned by words using exactly t distinct letters."""
        return self.where(lambda w: len(set(w)) == t)

    def support_within(self, letters: Iterable[int]) -> "FreePoly":
        allowed = frozenset(letters)
        return self.where(lambda w: frozenset(w) <= allowed)

    # -- symmetric group action ----------------------------------------

    def permute(self, perm: Sequence[int]) -> "FreePoly":
        """Apply a permutation to the letters: u_i -> u_{perm[i]}.

        A letter permutation is a bijection on words, so only the keys change.
        """
        table = _permutation_table(perm, self.n_letters)
        return self._like({w.translate(table): c for w, c in self.num.items()}, self.den)

    def permutation_sum(self, op: Iterable[tuple[int, Sequence[int]]]) -> "FreePoly":
        """sum of sign * self.permute(perm) over the (sign, perm) pairs of op."""
        n = self.n_letters
        return _translated_sum(self, n, [(sign, _permutation_table(perm, n)) for sign, perm in op])

    def relabel(self, mapping: dict[int, int], n_letters: int) -> "FreePoly":
        """Inject into an algebra on n_letters letters via letter -> mapping[letter]."""
        acc: dict[Word, int] = {}
        _accumulate(acc, ((bytes(mapping[b] for b in w), c) for w, c in self.num.items()))
        return FreePoly.from_numerators(n_letters, self.max_len, acc, self.den)

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
    than by multiplying N series, over the denominator max_len!, which every
    such product divides.
    """
    den = math.factorial(max_len)
    num: dict[Word, int] = {b"": den}
    # (word, numerator, last letter, length of its run); the empty word's run
    # of length 0 gives every first letter a run of 1
    stack = [(b"", den, 0, 0)]
    while stack:
        prefix, coeff, last, run = stack.pop()
        for nxt in range(last, n_letters):
            new_run = run + 1 if nxt == last else 1
            word = prefix + bytes([nxt])
            num[word] = coeff // new_run
            if len(word) < max_len:
                stack.append((word, num[word], nxt, new_run))
    return FreePoly.from_numerators(n_letters, max_len, num, den)


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


@lru_cache(maxsize=64)
def full_support_block(t: int, max_len: int, budget: int = DEFAULT_TERM_BUDGET) -> FreePoly:
    """The part of the t-fold product supported on all t letters.

    This is the building block that periodization replicates over all
    t-subsets of a larger index set.  It is built once per (t, max_len);
    callers must not modify the shared result.
    """
    return dynkin_product(t, max_len, budget).support_part(range(t))


def periodize(block: FreePoly, n_letters: int, subsets: Optional[Iterable[tuple[int, ...]]] = None) -> FreePoly:
    """Sum of order-preserving relabelings of a t-letter block into n letters.

    With the default subsets this is the periodization operator: the block
    (on letters 0..t-1) is substituted into every increasing t-subset of
    range(n_letters) and the copies are summed.
    """
    t = block.n_letters
    subsets = list(combinations(range(n_letters), t) if subsets is None else subsets)
    if any(len(I) != t for I in subsets):
        raise ValueError("subset size must match block letters")
    return _translated_sum(block, n_letters, [(1, bytes(I) + bytes(256 - t)) for I in subsets])


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
    used here.  Nothing in the package calls it: the exact evaluator is
    ``NilpotentAlgebra.evaluate_poly_exact``, and this generic form is the
    tests' Fraction reference for it.
    """
    acc = zero
    den = poly.den
    cache: dict[Word, object] = {}
    for w, c in sorted(poly.num.items(), key=lambda kv: (len(kv[0]), kv[0])):
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
        acc = add(acc, scale(Fraction(c, den * r), v))
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
