"""Drift-induced weight filtration, adapted bases, dilations, graded product.

Given a drift class Xbar in g/[g,g], the ideals

    g^(1) = g,   g^(i+1) = [g, g^(i)] + [x, g^(i-1)]   (x any representative)

decrease to zero no later than index 2s for a class-s algebra; with the
zero drift they reproduce the descending central series.  Choosing a
supplement m^(i) of g^(i+1) inside g^(i) for every i assigns each basis
direction a weight, and three derived gadgets drive everything downstream:

  * dilations D_r scaling weight-i components by r^i (det D_r = r^hom_dim),
  * the graded bracket [x, y]' = proj_(i+j) [x, y] on pure components,
    whose group product is the large-dilation limit of the original one,
  * the weight-raising operator ad_X followed by projection two layers
    down, whose exponential is an exact polynomial in t.

The supplement choice is the deterministic echelon-pivot complement: the
reduced-echelon basis rows of g^(i) whose pivots are not pivots of
g^(i+1).  All spans and ranks are exact rational computations.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .algebra import ExactVector, NilpotentAlgebra, weight_ideals
from .freealg import FreePoly
from .ratlinalg import Subspace, fracvec, invert_matrix, is_zero_vec, vec_mat


class WeightFiltration:
    """Weight filtration data for one algebra and one drift class."""

    def __init__(self, algebra: NilpotentAlgebra, xbar: Sequence):
        self.algebra = algebra
        self.xbar: ExactVector = fracvec(xbar)
        if len(self.xbar) != algebra.dim:
            raise ValueError("drift vector length does not match the algebra")
        ideals = weight_ideals(algebra, self.xbar)
        # pad with zero spaces so index i is valid for every i <= 2s
        zero = Subspace.zero(algebra.dim)
        while len(ideals) < 2 * algebra.step + 1:
            ideals.append(zero)
        self.ideals = ideals  # ideals[i-1] is g^(i)

        d = algebra.dim
        supplements: list[Subspace] = []
        adapted_rows: list = []
        weights: list[int] = []
        for i in range(1, 2 * algebra.step + 1):
            gi, gnext = self.ideal(i), self.ideal(i + 1)
            next_pivots = set(gnext.pivots)
            rows = [row for row, p in zip(gi.basis, gi.pivots) if p not in next_pivots]
            supplements.append(Subspace(d, rows))
            adapted_rows.extend(rows)
            weights.extend([i] * len(rows))
        if len(adapted_rows) != d:
            raise RuntimeError("supplements do not fill the algebra")
        self.supplements = supplements  # supplements[i-1] is m^(i)
        self.weights = tuple(weights)
        self.adapted_rows = tuple(adapted_rows)
        self.adapted_inv = tuple(invert_matrix(adapted_rows))
        self.hom_dim = sum(sp.dim for sp in self.ideals)

        # float forms of the basis change and the weights, for the Monte Carlo side
        self._A = np.array([[float(c) for c in row] for row in self.adapted_rows])
        self.adapted_inv_array = np.array([[float(c) for c in row] for row in self.adapted_inv])
        self.weights_array = np.array(self.weights, dtype=float)
        self._identity_basis = all(c == (i == j) for i, row in enumerate(self.adapted_rows)
                                   for j, c in enumerate(row))
        # every builtin's basis is a permutation (echelon-pivot supplements of coordinate
        # ideals are basis vectors); then x @ adapted_inv_array is x[..., adapted_perm]
        perm = self._A.argmax(axis=1)
        is_perm = not self._identity_basis and np.array_equal(self._A, np.eye(d)[perm])
        self.adapted_perm, self._from_perm = (perm, np.argsort(perm)) if is_perm else (None, None)

    # -- bookkeeping ----------------------------------------------------

    def ideal(self, i: int) -> Subspace:
        """g^(i); empty beyond the stored range."""
        if i < 1:
            raise ValueError("ideal index starts at 1")
        if i <= len(self.ideals):
            return self.ideals[i - 1]
        return Subspace.zero(self.algebra.dim)

    @property
    def max_weight(self) -> int:
        return max(self.weights)

    def layer_indices(self, i: int) -> list[int]:
        return [j for j, w in enumerate(self.weights) if w == i]

    @cached_property
    def drift_in_supplement(self) -> ExactVector:
        """The representative X of the drift class inside m^(1)."""
        c = self.to_adapted(self.xbar)
        c1 = tuple(x if self.weights[j] == 1 else Fraction(0) for j, x in enumerate(c))
        return self.from_adapted(c1)

    # -- exact coordinate changes ----------------------------------------

    def to_adapted(self, x: Sequence) -> ExactVector:
        return vec_mat(fracvec(x), self.adapted_inv)

    def from_adapted(self, c: Sequence) -> ExactVector:
        return vec_mat(fracvec(c), self.adapted_rows)

    def project(self, x: Sequence, i: int) -> ExactVector:
        """Component of x in m^(i), expressed in the original basis."""
        c = self.to_adapted(x)
        sel = tuple(v if self.weights[j] == i else Fraction(0) for j, v in enumerate(c))
        return self.from_adapted(sel)

    # -- float coordinate changes -----------------------------------------

    def to_adapted_float(self, x: np.ndarray) -> np.ndarray:
        """Adapted coordinates, ``x @ adapted_inv_array``: a gather of columns
        on a permutation basis, with the same bits, and C-contiguous either
        way; the input itself when the basis is the identity."""
        return self._change(x, self.adapted_perm, self.adapted_inv_array)

    def from_adapted_float(self, c: np.ndarray) -> np.ndarray:
        """Original coordinates, ``c @ A`` for the adapted rows A, in the
        layout and by the gather of ``to_adapted_float``."""
        return self._change(c, self._from_perm, self._A)

    def _change(self, x, perm, matrix) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self._identity_basis:
            return x
        # np.take, not x[..., perm], whose result keeps an F-ordered input's layout
        return x @ matrix if perm is None else np.take(x, perm, axis=-1)

    def layer_mask(self, i: int) -> np.ndarray:
        return self.weights_array == i

    # -- dilations -----------------------------------------------------------

    def dilate(self, r, x: Sequence) -> ExactVector:
        """D_r x = sum_i r^i x^(i), exact for rational r."""
        r = Fraction(r)
        if r <= 0:
            raise ValueError("dilation parameter must be positive")
        c = self.to_adapted(x)
        scaled = tuple(v * r ** self.weights[j] for j, v in enumerate(c))
        return self.from_adapted(scaled)

    # -- graded structure ------------------------------------------------------

    def graded_bracket(self, x: Sequence, y: Sequence) -> ExactVector:
        """Bilinear extension of [x, y]' = proj_(i+j)([x^(i), y^(j)])."""
        return self.from_adapted(self.graded_algebra.bracket_exact(self.to_adapted(x),
                                                                    self.to_adapted(y)))

    @cached_property
    def adapted_algebra(self) -> NilpotentAlgebra:
        """The same algebra expressed in the adapted basis (exact rebase).

        Products for Monte Carlo runs fold in these coordinates, where
        dilations are diagonal and layer projections are coordinate masks.
        """
        d = self.algebra.dim
        brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
        for i in range(d):
            for j in range(i + 1, d):
                br = self.algebra.bracket_exact(self.adapted_rows[i], self.adapted_rows[j])
                comp = self.to_adapted(br)
                entry = {k: c for k, c in enumerate(comp) if c != 0}
                if entry:
                    brackets[(i, j)] = entry
        return NilpotentAlgebra(d, self.algebra.step, brackets,
                                name=self.algebra.name + "-adapted")

    @cached_property
    def graded_algebra(self) -> NilpotentAlgebra:
        """The graded bracket as a structure-constant algebra on adapted coords:
        the adapted table, keeping component k of [a_i, a_j] when
        w_k = w_i + w_j.

        Construction revalidates Jacobi exactly, so building this object is
        itself a correctness check of the grading.
        """
        w = self.weights
        brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j), comp in self.adapted_algebra.table.items():
            entry = {k: c for k, c in comp.items() if w[k] == w[i] + w[j]}
            if entry:
                brackets[(i, j)] = entry
        d = self.algebra.dim
        return NilpotentAlgebra(d, _nilpotency_step(d, brackets), brackets,
                                name=self.algebra.name + "-graded")

    def graded_product(self, x: Sequence, y: Sequence) -> ExactVector:
        """Group product for the graded bracket (the large-dilation limit law)."""
        cx, cy = self.to_adapted(x), self.to_adapted(y)
        cz = self.graded_algebra.bch_exact(cx, cy)
        return self.from_adapted(cz)

    def conjugated_product(self, t, x: Sequence, y: Sequence) -> ExactVector:
        """D_{1/t}(D_t x * D_t y); converges to the graded product as t grows."""
        t = Fraction(t)
        return self.dilate(1 / t, self.algebra.bch_exact(self.dilate(t, x), self.dilate(t, y)))

    # -- the weight-raising operator -----------------------------------------

    @cached_property
    def ax_matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """Matrix (adapted coords, row-vector convention) of y -> proj_(i+2)[X, y]."""
        adapted = self.adapted_algebra
        X = self.to_adapted(self.drift_in_supplement)
        rows = []
        for j in range(adapted.dim):
            img = adapted.bracket_exact(X, adapted.basis_vector(j))
            target = self.weights[j] + 2
            rows.append(tuple(c if w == target else Fraction(0) for c, w in zip(img, self.weights)))
        return tuple(rows)

    def apply_ax(self, y: Sequence) -> ExactVector:
        return self.from_adapted(vec_mat(self.to_adapted(y), self.ax_matrix))

    @cached_property
    def ax_powers(self) -> list[tuple[tuple[Fraction, ...], ...]]:
        """[ax^k / k!] until the zero matrix; finite by nilpotency."""
        d = self.algebra.dim
        ident = tuple(tuple(Fraction(int(i == j)) for j in range(d)) for i in range(d))
        powers = [ident]
        cur = ident
        k = 1
        while True:
            cur = tuple(vec_mat(row, self.ax_matrix) for row in cur)
            if all(is_zero_vec(row) for row in cur):
                break
            powers.append(tuple(tuple(x / math.factorial(k) for x in row) for row in cur))
            k += 1
            if k > 2 * self.algebra.step + 1:
                raise RuntimeError("ad_X did not nilpotate within 2s steps")
        return powers

    def exp_ax(self, t) -> list[list[Fraction]]:
        """exp(t * ax) as an exact matrix polynomial evaluated at rational t."""
        t = Fraction(t)
        powers = self.ax_powers
        tk = [t ** k for k in range(len(powers))]
        return [list(vec_mat(tk, [mat[i] for mat in powers])) for i in range(self.algebra.dim)]

    def exp_ax_float(self, t: float) -> np.ndarray:
        d = self.algebra.dim
        out = np.zeros((d, d))
        tk = 1.0
        for k, mat in enumerate(self.ax_powers):
            if k > 0:
                tk *= t
            out += tk * np.array([[float(x) for x in row] for row in mat])
        return out

    def __repr__(self):
        dims = [s.dim for s in self.ideals if s.dim > 0]
        return f"WeightFiltration({self.algebra.name}, ideal dims={dims}, hom_dim={self.hom_dim})"


def _nilpotency_step(dim: int, brackets: dict) -> int:
    """Nilpotency class of a structure-constant table (for the graded algebra)."""
    probe = NilpotentAlgebra(dim, 1, brackets, validate=False)
    series = probe.descending_central_series()
    return max(1, len(series) - 1)


# -- bias extension -----------------------------------------------------------


class ExtendedAlgebra:
    """The drift extension g + R chi with chi acting like the drift vector.

    The underlying algebra is g plus one central coordinate f (the last
    one); chi = X + f carries weight 2 in the extended decomposition, and
    exponential-coordinate lifts of g-vectors are just "append 1".  The
    projection back to g (drop the last coordinate) is a group morphism
    and maps chi to X.
    """

    def __init__(self, base: WeightFiltration):
        self.base = base
        alg = base.algebra
        X = base.drift_in_supplement
        self.is_trivial = is_zero_vec(X)
        if self.is_trivial:
            self.algebra = alg
            self.chi_index = None
            self.X = alg.zero_vector()
            self.weights = base.weights
            self.adapted_rows = base.adapted_rows
            self.adapted_inv = base.adapted_inv
        else:
            d = alg.dim
            brackets = {
                (i, j): dict(comp) for (i, j), comp in alg.table.items()
            }
            ext = NilpotentAlgebra(d + 1, alg.step, brackets, name=alg.name + "-ext")
            self.algebra = ext
            self.chi_index = d
            self.X = X
            chi_row = tuple(list(X) + [Fraction(1)])
            rows = []
            weights = []
            inserted = False
            for row, w in zip(base.adapted_rows, base.weights):
                if w >= 3 and not inserted:
                    rows.append(chi_row)
                    weights.append(2)
                    inserted = True
                rows.append(tuple(list(row) + [Fraction(0)]))
                weights.append(w)
            if not inserted:
                rows.append(chi_row)
                weights.append(2)
            self.adapted_rows = tuple(rows)
            self.adapted_inv = tuple(invert_matrix(rows))
            self.weights = tuple(weights)

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def lift(self, x: Sequence) -> ExactVector:
        """x in g -> (x, 1); the drift moves into the weight-2 chi direction."""
        if self.is_trivial:
            return fracvec(x)
        return tuple(list(fracvec(x)) + [Fraction(1)])

    def project(self, x: Sequence) -> ExactVector:
        """Group morphism back to g: x + t*chi -> x + t*X (drop the last coord)."""
        v = fracvec(x)
        if self.is_trivial:
            return v
        return v[:-1]

    def bch_exact(self, x: Sequence, y: Sequence) -> ExactVector:
        return self.algebra.bch_exact(fracvec(x), fracvec(y))


# -- bi-graded evaluation -------------------------------------------------------


def bigraded_evaluate(poly: FreePoly, filtration: WeightFiltration, degree: int, wdegree: int,
                      xs: Sequence[Sequence]) -> ExactVector:
    """Evaluate the (degree, w-degree) component of a Lie element.

    Expands each input into weight components and keeps only the terms of
    the degree-``degree`` part whose assigned weights sum to ``wdegree``;
    scaling all inputs by D_r multiplies the value by r^wdegree.  Letter
    a*L + (i-1) of the relabelled element stands for x_a^(i), where L is
    the largest weight, and one ``evaluate_poly_exact`` call evaluates it.
    """
    L = filtration.max_weight
    part = poly.degree_part(degree)
    num: dict[bytes, int] = {}
    for w, c in part.num.items():
        for wts in itertools.product(range(1, L + 1), repeat=len(w)):
            if w and sum(wts) == wdegree:
                num[bytes(a * L + i - 1 for a, i in zip(w, wts))] = c
    layered = [filtration.project(x, i) for x in xs for i in range(1, L + 1)]
    relabelled = FreePoly.from_numerators(len(xs) * L, part.max_len, num, part.den)
    return filtration.algebra.evaluate_poly_exact(relabelled, layered)
