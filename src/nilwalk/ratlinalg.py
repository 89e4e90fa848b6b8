"""Exact linear algebra over the rationals.

Subspaces of Q^d are stored through reduced row echelon bases, so rank,
containment and equality questions are decided exactly.  ``rref`` is the
only elimination: solving in a basis and inverting a matrix both take the
rref of [rows | I], and ``vec_mat`` is the one row-vector-times-matrix
product.  Everything here runs on ``fractions.Fraction``; floating point
never enters.  The rest of the package leans on this for filtration
ideals, supplements and adapted bases, where a wrong rank decision would
silently corrupt weights.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

Vector = tuple[Fraction, ...]


def fracvec(v: Iterable) -> Vector:
    """Coerce a sequence of ints/Fractions/strings into a Fraction tuple."""
    return tuple(x if type(x) is Fraction else Fraction(x) for x in v)


def is_zero_vec(v: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in v)


def rref(rows: Iterable[Sequence[Fraction]]) -> list[Vector]:
    """Reduced row echelon form of the span of ``rows``.

    Returns a canonical basis: leading entries are 1, pivot columns are
    cleared above and below, rows sorted by pivot position, zero rows
    dropped.  Two iterables span the same subspace iff their rref lists
    are equal.
    """
    mat = [list(fracvec(r)) for r in rows]
    if not mat:
        return []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        if mat[r][c] != 1:
            inv = 1 / mat[r][c]
            mat[r] = [inv * x for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y if y else x for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]]


class Subspace:
    """A linear subspace of Q^d held in canonical rref form."""

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, vectors: Iterable[Sequence] = ()):
        self.ambient_dim = ambient_dim
        self.basis: tuple[Vector, ...] = tuple(rref([fracvec(v) for v in vectors]))
        piv = []
        for row in self.basis:
            for c, x in enumerate(row):
                if x != 0:
                    piv.append(c)
                    break
        self.pivots: tuple[int, ...] = tuple(piv)

    @classmethod
    def full(cls, d: int) -> "Subspace":
        eye = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
        return cls(d, eye)

    @classmethod
    def zero(cls, d: int) -> "Subspace":
        return cls(d, ())

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, v: Sequence) -> Vector:
        """Residual of v after elimination against the basis (zero iff v in span)."""
        w = list(fracvec(v))
        for row, p in zip(self.basis, self.pivots):
            if w[p] != 0:
                f = w[p]
                w = [a - f * b for a, b in zip(w, row)]
        return tuple(w)

    def contains(self, v: Sequence) -> bool:
        return is_zero_vec(self.reduce(v))

    def coordinates_of(self, v: Sequence) -> Optional[Vector]:
        """Coefficients of v in the rref basis, or None if v is outside."""
        w = list(fracvec(v))
        coeffs = []
        for row, p in zip(self.basis, self.pivots):
            c = w[p]
            coeffs.append(c)
            if c != 0:
                w = [a - c * b for a, b in zip(w, row)]
        if not is_zero_vec(w):
            return None
        return tuple(coeffs)

    def spanned_with(self, vectors: Iterable[Sequence]) -> "Subspace":
        return Subspace(self.ambient_dim, list(self.basis) + [fracvec(v) for v in vectors])

    def is_subspace_of(self, other: "Subspace") -> bool:
        return all(other.contains(row) for row in self.basis)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def vec_mat(v: Sequence[Fraction], rows: Sequence[Sequence[Fraction]]) -> Vector:
    """Row vector times matrix: sum_k v[k] * rows[k], exact."""
    return tuple(sum(a * b for a, b in zip(v, col)) for col in zip(*rows))


def _augmented_rref(rows: Sequence[Sequence]) -> tuple[list[Vector], list[Vector]]:
    """rref of [rows | I], split into the rref of the rows and, for each of
    its rows, the combination of the input rows that gives it."""
    n = len(rows)
    full = rref([*r, *(Fraction(int(i == j)) for j in range(n))] for i, r in enumerate(rows))
    d = len(full[0]) - n if full else 0
    echelon = [(row[:d], row[d:]) for row in full if not is_zero_vec(row[:d])]
    return [left for left, _ in echelon], [right for _, right in echelon]


def solve_in_basis(basis_rows: Sequence[Vector], v: Sequence) -> Optional[Vector]:
    """Express v as a combination of (not necessarily rref) basis rows.

    Reads v's coordinates in the rref of the rows and maps them back through
    the recorded combinations; returns None when v is not in the span.
    """
    v = fracvec(v)
    span, combos = _augmented_rref(basis_rows)
    coeffs = Subspace(len(v), span).coordinates_of(v)
    if coeffs is None:
        return None
    return vec_mat(coeffs, combos) if combos else (Fraction(0),) * len(basis_rows)


def invert_matrix(rows: Sequence[Sequence[Fraction]]) -> list[Vector]:
    """Exact inverse of a square rational matrix given as a list of rows."""
    span, combos = _augmented_rref(rows)
    if len(span) < len(rows):
        raise ValueError("matrix is singular")
    return combos
