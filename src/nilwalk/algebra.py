"""Nilpotent Lie algebras given by structure constants, with two scalar modes.

An algebra is a rational structure-constant table c[i][j][k] with
[e_i, e_j] = sum_k c[i][j][k] e_k, validated for antisymmetry, the Jacobi
identity and the declared nilpotency class; the simply connected group is
identified with the algebra through exponential coordinates, so the group
law is the Baker-Campbell-Hausdorff polynomial truncated at the class.

Coordinates come in one of two modes, never mixed inside a computation:
exact tuples of Fractions (symbolic identities, zero tolerance) and numpy
float arrays (Monte Carlo, vectorized over leading axes).  The BCH
coefficients are not transcribed from a table: the two-letter group
product is generated once per nilpotency class by the free-algebra engine
and cached, which keeps a single source of truth for the series.  The
float mode evaluates the same series, expanded once per algebra into exact
polynomials in the coordinates of the two factors (``group_law``).

Exact mode takes and returns Fractions, but works on integers inside.
Each algebra caches its table as an integer tensor over one denominator
(``integer_table``), and that tensor, through ``_bracket_int``, is the
only code that applies structure constants: ``bracket_exact``, the
evaluator ``evaluate_poly_exact``, the nested basis brackets behind
``group_law`` and the brackets of ``weight_ideals`` all run on it, and
the Jacobi check in ``validate`` is one contraction of it.  Fractions
are built once per output coordinate or coefficient.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .freealg import FreePoly, dynkin_product
from .ratlinalg import Subspace, fracvec, solve_in_basis

ExactVector = tuple[Fraction, ...]
Monomial = tuple[int, ...]


# Rows per pass of the float group law, and replica-steps per block of the
# Cesaro walk: the temporaries of one pass stay in cache, which on large
# batches is several times faster than one pass.
BLOCK_ROWS = 4096


class DimensionMismatch(ValueError):
    pass


@lru_cache(maxsize=32)
def _bch_poly(step: int) -> FreePoly:
    return dynkin_product(2, step)


def _numerators(vecs: Sequence[Sequence[Fraction]]) -> tuple[int, list[tuple[int, ...]]]:
    """(q, ints): q is the lcm of every entry's denominator and ints[i] = q * vecs[i]."""
    q = math.lcm(*(c.denominator for v in vecs for c in v))
    return q, [tuple(c.numerator * (q // c.denominator) for c in v) for v in vecs]


def _bracket_int(entries, u: Sequence[int], v: Sequence[int], dim: int) -> list[int]:
    """[u, v] times D for integer vectors, from ``integer_table`` entries."""
    out = [0] * dim
    if any(u) and any(v):
        for i, j, comp in entries:
            w = u[i] * v[j] - u[j] * v[i]
            if w:
                for k, c in comp:
                    out[k] += c * w
    return out


class NilpotentAlgebra:
    """Immutable structure-constant algebra; safe to share across workers."""

    def __init__(self, dim: int, step: int, brackets: dict, name: str = "",
                 validate: bool = True):
        """brackets maps (i, j) with 0 <= i < j < dim to {k: coefficient}."""
        self.dim = int(dim)
        self.step = int(step)
        if self.dim < 1 or self.step < 1:
            raise ValueError("dim and step must be positive")
        table: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j), comp in brackets.items():
            if not (0 <= i < j < self.dim):
                raise ValueError(f"bracket key ({i},{j}) must satisfy 0 <= i < j < dim")
            entry = {int(k): Fraction(v) for k, v in comp.items() if Fraction(v) != 0}
            if any(not 0 <= k < self.dim for k in entry):
                raise ValueError("bracket component index out of range")
            if entry:
                table[(i, j)] = entry
        self.table = table
        self.name = name
        if validate:
            self.validate()

    # -- construction helpers -------------------------------------------

    def zero_vector(self) -> ExactVector:
        return tuple(Fraction(0) for _ in range(self.dim))

    def basis_vector(self, i: int) -> ExactVector:
        return tuple(Fraction(int(j == i)) for j in range(self.dim))

    # -- exact mode ------------------------------------------------------

    def add_exact(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> ExactVector:
        return tuple(a + b for a, b in zip(x, y))

    def scale_exact(self, c, x: Sequence[Fraction]) -> ExactVector:
        c = Fraction(c)
        return tuple(c * a for a in x)

    def bracket_exact(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> ExactVector:
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("coordinate length does not match the algebra")
        q, (u, v) = _numerators([x, y])
        D, entries = self.integer_table
        return tuple(Fraction(c, q * q * D) for c in _bracket_int(entries, u, v, self.dim))

    def bch_exact(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> ExactVector:
        """Group product x * y in exponential coordinates, exact."""
        return self.evaluate_poly_exact(_bch_poly(self.step), [x, y])

    def multi_product_exact(self, xs: Sequence[Sequence[Fraction]]) -> ExactVector:
        if not xs:
            raise ValueError("product of an empty sequence")
        acc = fracvec(xs[0])
        for x in xs[1:]:
            acc = self.bch_exact(acc, x)
        return acc

    def evaluate_poly_exact(self, poly: FreePoly, xs: Sequence[Sequence[Fraction]]) -> ExactVector:
        """Evaluate a Lie element of the free algebra on exact vectors.

        The Dynkin rule of ``evaluate_lie``, run on integers: with the
        inputs put over one denominator q, the left-nested bracket of a
        word of length r is an integer vector over q^r D^(r-1) (D is the
        denominator of ``integer_table``), left-nested prefixes are shared,
        and every word is added over den * lcm(1..s) * q^s * D^(s-1).  The
        d output Fractions are built once, at the end.
        """
        vecs = [fracvec(x) for x in xs]
        if any(len(v) != self.dim for v in vecs):
            raise DimensionMismatch("coordinate length does not match the algebra")
        if not poly.num:
            return self.zero_vector()
        if min(map(len, poly.num)) == 0:
            raise ValueError("constant terms cannot be evaluated as Lie elements")
        q, letters = _numerators(vecs)
        D, entries = self.integer_table
        s = max(map(len, poly.num))
        lcm_s = math.lcm(*range(1, s + 1))
        qD = q * D
        weight = [0] + [lcm_s // r * qD ** (s - r) for r in range(1, s + 1)]
        cache: dict[bytes, Sequence[int]] = {}

        def nested(w: bytes) -> Sequence[int]:
            v = cache.get(w)
            if v is None:
                v = cache[w] = (_bracket_int(entries, nested(w[:-1]), letters[w[-1]], self.dim)
                                if len(w) > 1 else letters[w[0]])
            return v

        acc = [0] * self.dim
        for w, c in poly.num.items():
            v = nested(w)
            if any(v):
                f = c * weight[len(w)]
                for k, vk in enumerate(v):
                    if vk:
                        acc[k] += f * vk
        den = poly.den * lcm_s * q ** s * D ** (s - 1)
        return tuple(Fraction(a, den) for a in acc)

    @cached_property
    def integer_table(self) -> tuple[int, tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]]:
        """(D, entries): D is the lcm of the constants' denominators and
        entries lists (i, j, ((k, D * c_ijk), ...)) for every nonzero
        [e_i, e_j] with i < j, so the table is the integer tensor over D."""
        D = math.lcm(*(c.denominator for comp in self.table.values() for c in comp.values()))
        return D, tuple((i, j, tuple((k, int(c * D)) for k, c in comp.items()))
                        for (i, j), comp in self.table.items())

    # -- the compiled group law ----------------------------------------------

    @cached_property
    def group_law(self) -> tuple[dict[Monomial, Fraction], ...]:
        """x * y expanded exactly into one polynomial per output coordinate.

        The variables are z = (x_0..x_{d-1}, y_0..y_{d-1}); a monomial is the
        sorted tuple of its variable indices.  The two-letter series is
        multilinear, so a word w of length r adds each nonzero left-nested
        basis bracket [..[e_i1, e_i2], .., e_ir] (integers over D^(r-1)) to
        the monomial z[w_1 d + i_1] ... z[w_r d + i_r], in integers over
        den * lcm(1..s) * D^(s-1) as in ``evaluate_poly_exact``: this is the
        law of ``bch_exact``.
        """
        d = self.dim
        poly = _bch_poly(self.step)
        D, entries = self.integer_table
        s = max(map(len, poly.num))
        lcm_s = math.lcm(*range(1, s + 1))
        units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
        nested = [[((i,), units[i]) for i in range(d)]]  # nested[r-1]: the nonzero length-r ones
        while len(nested) < s:
            nested.append([(t + (j,), v) for t, u in nested[-1] for j in range(d)
                           for v in [_bracket_int(entries, u, units[j], d)] if any(v)])
        acc: list[dict[Monomial, int]] = [{} for _ in range(d)]
        for w, c in poly.num.items():
            f = c * (lcm_s // len(w)) * D ** (s - len(w))
            for t, v in nested[len(w) - 1]:
                m = tuple(sorted(a * d + i for a, i in zip(w, t)))
                for k, vk in enumerate(v):
                    if vk:
                        acc[k][m] = acc[k].get(m, 0) + f * vk
        den = poly.den * lcm_s * D ** (s - 1)
        return tuple({m: Fraction(a, den) for m, a in p.items() if a} for p in acc)

    def product_map(self):
        """Vectorized group product for float arrays (..., dim).

        Evaluates ``group_law``, compiled once per algebra: out = x + y, then
        each coordinate adds its higher monomials, summed in groups of equal
        |coefficient| and scaled once per group.  Each monomial, and each
        prefix of one, is computed once per pass and shared by the
        coordinates; a pass takes at most BLOCK_ROWS rows.  ``out=`` may be x
        or y itself, with the same bits; in a coordinate-major array (the
        transpose of a (dim, n) buffer) each coordinate is contiguous.
        """
        return self._product_kernel

    @cached_property
    def _product_kernel(self):
        d = self.dim
        steps: dict[Monomial, tuple[Monomial, Monomial]] = {}  # m -> (prefix, last variable)
        plan = []  # (k, c, pos, neg): out[..., k] += c * (sum(pos) - sum(neg))
        for k, poly in enumerate(self.group_law):
            if {m: c for m, c in poly.items() if len(m) == 1} != {(k,): 1, (d + k,): 1}:
                raise RuntimeError("group law is not x + y to first order")
            groups: dict[Fraction, tuple[list, list]] = {}
            for m, c in sorted(poly.items()):
                if len(m) > 1:
                    for r in range(2, len(m) + 1):
                        steps.setdefault(m[:r], (m[:r - 1], m[r - 1:r]))
                    groups.setdefault(abs(c), ([], []))[c < 0].append(m)
            for c, (pos, neg) in groups.items():
                plan.append((k, float(c), pos, neg) if pos else (k, -float(c), neg, pos))
        variables = sorted({v for m in steps for v in m})

        def accumulate(out: np.ndarray, x: np.ndarray, y: np.ndarray, add: bool) -> None:
            val = {(v,): x[..., v] if v < d else y[..., v - d] for v in variables}
            for m, (prefix, last) in steps.items():
                val[m] = val[prefix] * val[last]
            if add:  # out may be x or y: it is written once every monomial is taken
                np.add(x, y, out=out)
            for k, c, pos, neg in plan:
                acc = val[pos[0]]
                for m in pos[1:]:
                    acc = acc + val[m]
                for m in neg:
                    acc = acc - val[m]
                out[..., k] += acc if c == 1.0 else c * acc

        def product(x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            y = np.asarray(y, dtype=float)
            add = out is not None
            out = out if add else x + y
            n = len(out) if out.ndim == 2 and plan else 0
            if n <= BLOCK_ROWS:
                if plan or add:
                    accumulate(out, x, y, add)
                return out
            for lo in range(0, n, BLOCK_ROWS):
                rows = slice(lo, lo + BLOCK_ROWS)
                accumulate(out[rows], *(a[rows] if a.ndim == 2 and len(a) == n else a
                                        for a in (x, y)), add)
            return out

        return product

    # -- series and validation ----------------------------------------------

    def descending_central_series(self) -> list[Subspace]:
        """[g, g^[i-1]] chain, starting at the full algebra, ending at zero:
        the weight ideals of the zero drift."""
        return weight_ideals(self, self.zero_vector())

    def validate(self) -> None:
        """Exact antisymmetry (by construction), Jacobi, and class check.

        Jacobi is trilinear, so it is checked on basis triples i < j < k by
        one contraction of the integer table: T(a, b, c) = [[e_a, e_b], e_c]
        for a < b, and J(i, j, k) = T(i, j, k) + T(j, k, i) - T(i, k, j).
        The first failing triple in lexicographic order is reported.
        """
        _, entries = self.integer_table
        ad: dict[int, list] = {}  # m -> [(c, ((l, D [e_m, e_c]_l), ...))], c on either side of m
        for i, j, comp in entries:
            ad.setdefault(i, []).append((j, comp))
            ad.setdefault(j, []).append((i, tuple((k, -c) for k, c in comp)))
        jac: dict[tuple[int, int, int], dict[int, int]] = {}
        for a, b, comp in entries:
            for m, c1 in comp:
                for c, comp2 in ad.get(m, ()):
                    if c == a or c == b:
                        continue
                    sign = -c1 if a < c < b else c1
                    out = jac.setdefault(tuple(sorted((a, b, c))), {})
                    for l, c2 in comp2:
                        out[l] = out.get(l, 0) + sign * c2
        failing = [t for t, out in jac.items() if any(out.values())]
        if failing:
            raise ValueError("Jacobi identity fails on basis triple ({},{},{})".format(*min(failing)))
        series = self.descending_central_series()
        actual_step = len(series) - 1  # g^[s+1] = 0 and g^[s] != 0
        if actual_step != self.step:
            raise ValueError(f"declared step {self.step} but central series gives {actual_step}")

    def __repr__(self):
        label = self.name or "algebra"
        return f"NilpotentAlgebra({label}, dim={self.dim}, step={self.step})"


def weight_ideals(algebra: NilpotentAlgebra, xbar: Sequence) -> list[Subspace]:
    """The decreasing ideals g^(1) >= g^(2) >= ... down to the zero space.

    g^(1) = g and g^(i+1) = [g, g^(i)] + [x, g^(i-1)] with g^(0) = g, for any
    representative x of the drift class; the output does not depend on the
    representative (checked in the tests).  The zero drift gives the
    descending central series.  The chain is nested, so above zero it can
    only end by standing still, which makes the table not nilpotent.
    A span does not change when its generators are scaled, so the brackets
    are taken on integer numerators with ``integer_table`` and never
    divided back.
    """
    d = algebra.dim
    _, entries = algebra.integer_table
    _, (x,) = _numerators([fracvec(xbar)])
    if len(x) != d:
        raise DimensionMismatch("drift length does not match the algebra")
    basis = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    chain = [Subspace.full(d)] * 2  # g^(0), g^(1)
    while chain[-1].dim > 0:
        top = _numerators(chain[-1].basis)[1]
        gens = [_bracket_int(entries, b, v, d) for b in basis for v in top]
        if any(x):  # the central series, validated on every build, skips these
            gens += [_bracket_int(entries, x, v, d) for v in _numerators(chain[-2].basis)[1]]
        chain.append(Subspace(d, [g for g in gens if any(g)]))
        if chain[-1] == chain[-2] == chain[-3]:
            raise ValueError("algebra is not nilpotent: central series stalls")
    return chain[1:]


# -- built-in algebras -------------------------------------------------------


def heisenberg3() -> NilpotentAlgebra:
    """R^3 with [e1, e2] = e3; the group law's third coordinate picks up
    half the signed area x1*y2 - x2*y1."""
    return NilpotentAlgebra(3, 2, {(0, 1): {2: 1}}, name="heisenberg3")


def abelian(dim: int) -> NilpotentAlgebra:
    return NilpotentAlgebra(dim, 1, {}, name=f"abelian{dim}")


def filiform4() -> NilpotentAlgebra:
    """Dim-4 filiform chain: [e1, e2] = e3, [e1, e3] = e4."""
    return NilpotentAlgebra(4, 3, {(0, 1): {2: 1}, (0, 2): {3: 1}}, name="filiform4")


@lru_cache(maxsize=8)
def free_nilpotent(generators: int, step: int) -> NilpotentAlgebra:
    """Free nilpotent algebra on g generators of class s (g <= 3, s <= 4).

    Realized inside the truncated free associative algebra: a basis of the
    Lie subalgebra generated by the letters is extracted degree by degree
    with exact rank decisions, and structure constants are read off by
    solving in that basis.  Dimensions match the Witt formula, which the
    tests pin down.
    """
    if not (1 <= generators <= 3 and 1 <= step <= 4):
        raise ValueError("free_nilpotent is built in only for g <= 3, s <= 4")
    letters = [FreePoly.letter(i, generators, step) for i in range(generators)]

    def poly_coords(p: FreePoly, words: list[bytes]) -> list[Fraction]:
        return [p.terms.get(w, Fraction(0)) for w in words]

    basis_polys: list[FreePoly] = []
    layer = list(letters)
    basis_polys.extend(layer)
    for r in range(2, step + 1):
        words_r = sorted({w for p in layer for u in letters for w in (p.bracket(u)).terms})
        candidates = [p.bracket(u) for p in layer for u in letters]
        chosen: list[FreePoly] = []
        space = Subspace(len(words_r), ())
        for cand in candidates:
            if cand.is_zero():
                continue
            v = poly_coords(cand, words_r)
            if not space.contains(v):
                space = space.spanned_with([v])
                chosen.append(cand)
        layer = chosen
        basis_polys.extend(layer)

    dim = len(basis_polys)
    degree_of = [max(len(w) for w in p.terms) for p in basis_polys]
    all_words = sorted({w for p in basis_polys for w in p.terms})
    rows = [tuple(poly_coords(p, all_words)) for p in basis_polys]

    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            if degree_of[i] + degree_of[j] > step:
                continue
            prod = basis_polys[i].bracket(basis_polys[j])
            if prod.is_zero():
                continue
            coeffs = solve_in_basis(rows, poly_coords(prod, all_words))
            if coeffs is None:
                raise RuntimeError("bracket left the candidate basis; construction is broken")
            entry = {k: c for k, c in enumerate(coeffs) if c != 0}
            if entry:
                brackets[(i, j)] = entry

    return NilpotentAlgebra(dim, step, brackets, name=f"free_nilpotent({generators},{step})")


BUILTIN_FACTORIES = {
    "heisenberg3": heisenberg3,
    "filiform4": filiform4,
}


def builtin_algebra(spec: str) -> NilpotentAlgebra:
    """Resolve names like heisenberg3, abelian(3), free-nilpotent(2,3)."""
    spec = spec.strip()
    if spec in BUILTIN_FACTORIES:
        return BUILTIN_FACTORIES[spec]()
    if spec.startswith("abelian(") and spec.endswith(")"):
        return abelian(int(spec[8:-1]))
    if spec.startswith("free-nilpotent(") and spec.endswith(")"):
        g, s = (int(t) for t in spec[15:-1].split(","))
        return free_nilpotent(g, s)
    raise ValueError(f"unknown builtin algebra {spec!r}")
