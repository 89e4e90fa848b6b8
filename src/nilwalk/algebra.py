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

Float mode has one plan per algebra and two back ends that run it
(``product_kernels``).  The plan lists the monomials of ``group_law``,
each as a prefix times one variable, and per coordinate the groups of
monomials with equal |coefficient|.  The numpy kernel runs it as ufunc
passes of BLOCK_ROWS rows.  The compiled kernel is C emitted from the same
plan, one loop over rows with the same products, the same sums in the same
order and one multiplication per group, compiled with the system C
compiler under CFLAGS (no fast-math, no fused multiply-add) and called
through ctypes, which releases the interpreter lock.  Every operation
therefore rounds as in numpy, and the two give the same bits.  Both only
write into ``out``; for a call that passes none, ``_operands`` allocates a
new C-ordered array of the broadcast shape of x and y.  The shared
object is cached by the SHA-256 of its flags and source, in process and
under ``$XDG_CACHE_HOME/nilwalk`` (default ``~/.cache/nilwalk``), so a
machine compiles each kernel once.  The numpy kernel runs when there is no
compiler on PATH, the cache is unwritable, or the compile or the load
fails; the tests keep it as the compiled kernel's oracle.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import math
import os
import shutil
import struct
import tempfile
from fractions import Fraction
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from .freealg import FreePoly, dynkin_product
from .ratlinalg import Subspace, fracvec, solve_in_basis

ExactVector = tuple[Fraction, ...]
Monomial = tuple[int, ...]


# Rows per pass of the float group law, whose temporaries then stay in cache
# (unblocked, the numpy kernel ran 2.5-3x slower: heisenberg3 5.2 -> 12.9 and
# free(2,3) 25 -> 77 ns/row at 250k rows), and replica-steps per Cesaro block.
BLOCK_ROWS = 4096


def _operands(x, y, out):
    """x and y as float arrays, and out, or when it is None a new C-ordered
    array of their broadcast shape: the one output rule of both kernels."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if out is None:  # equal shapes, every allocating caller's, skip np.broadcast_shapes' 1.7 us
        out = np.empty(x.shape if x.shape == y.shape else np.broadcast_shapes(x.shape, y.shape))
    return x, y, out


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

        Evaluates ``group_law``, planned once per algebra: out = x + y, then
        each coordinate adds its higher monomials, summed in groups of equal
        |coefficient| and scaled once per group.  Each monomial, and each
        prefix of one, is computed once per row and shared by the
        coordinates.  ``out=`` may be x or y itself, with the same bits, and
        without it the product is a new C-ordered array; in a
        coordinate-major array (the transpose of a (dim, n) buffer) each
        coordinate is contiguous.  The compiled back end of
        ``product_kernels`` runs when there is one, else the numpy one; both
        give the same bits.
        """
        numpy_kernel, compiled = self.product_kernels
        return compiled or numpy_kernel

    @cached_property
    def product_kernels(self):
        """(numpy kernel, compiled kernel or None): two back ends of one plan.

        The compiled kernel is ``_c_source``'s C built by ``compiled_kernel``;
        it takes (n, dim), (1, dim) and (dim,) arrays of any strides and
        hands any other shape to the numpy kernel."""
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

        def accumulate(out: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
            val = {(v,): x[..., v] if v < d else y[..., v - d] for v in variables}
            for m, (prefix, last) in steps.items():
                val[m] = val[prefix] * val[last]
            np.add(x, y, out=out)  # out may be x or y: it is written once every monomial is taken
            for k, c, pos, neg in plan:
                acc = val[pos[0]]
                for m in pos[1:]:
                    acc = acc + val[m]
                for m in neg:
                    acc = acc - val[m]
                out[..., k] += acc if c == 1.0 else c * acc

        def product(x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
            x, y, out = _operands(x, y, out)
            n = len(out) if out.ndim == 2 and plan else 0
            if n <= BLOCK_ROWS:
                accumulate(out, x, y)
                return out
            for lo in range(0, n, BLOCK_ROWS):
                rows = slice(lo, lo + BLOCK_ROWS)
                accumulate(out[rows], *(a[rows] if a.ndim == 2 and len(a) == n else a
                                        for a in (x, y)))
            return out

        # an empty plan is x + y, one numpy call that a compiled kernel would only repeat
        fn = compiled_kernel(_c_source(d, steps, plan)) if plan else None
        return product, None if fn is None else _compiled_product(fn, d, product)

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


# -- the compiled back end of the float group law -------------------------------------

# no fast-math and no fused multiply-add: the compiled kernel rounds every
# operation as numpy does, so the two back ends give the same bits
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


def _c_source(d: int, steps: dict, plan: list) -> str:
    """The plan as one C loop over rows, in the numpy kernel's operation
    order: the same products, each group summed left to right, one
    multiplication by the group's coefficient (written exactly, in hex)
    and the groups added to x + y in plan order.  Every input of a row is
    read before its output is written, so out may be x or y."""
    name = {(v,): f"x{v}" if v < d else f"y{v - d}" for v in range(2 * d)}
    body = [f"const double x{k} = x[{k} * xc], y{k} = y[{k} * yc];" for k in range(d)]
    for i, (m, (prefix, last)) in enumerate(steps.items()):
        name[m] = f"m{i}"
        body.append(f"const double m{i} = {name[prefix]} * {name[last]};")
    body += [f"double o{k} = x{k} + y{k};" for k in range(d)]
    for k, c, pos, neg in plan:
        acc = " + ".join(name[m] for m in pos) + "".join(f" - {name[m]}" for m in neg)
        body.append(f"o{k} += {acc};" if c == 1.0 else f"o{k} += {c.hex()} * ({acc});")
    body += [f"o[{k} * oc] = o{k};" for k in range(d)]
    return ("#include <stddef.h>\n\n"
            "void nilwalk_product(const ptrdiff_t *arg)\n"
            "{\n"
            "    const ptrdiff_t n = arg[0], xr = arg[2], xc = arg[3], yr = arg[5], yc = arg[6],\n"
            "                    orow = arg[8], oc = arg[9];\n"
            "    const double *x = (const double *)arg[1], *y = (const double *)arg[4];\n"
            "    double *o = (double *)arg[7];\n"
            "    for (ptrdiff_t i = 0; i < n; i++, x += xr, y += yr, o += orow) {\n"
            + "".join(f"        {line}\n" for line in body) + "    }\n}\n")


def c_compiler() -> str | None:
    """The system C compiler on PATH, or None."""
    return shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")


def kernel_cache_dir() -> Path:
    """$XDG_CACHE_HOME/nilwalk, by default ~/.cache/nilwalk."""
    return Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache", "nilwalk")


def _whole_elf(data: bytes) -> bool:
    """Whether data is a 64-bit ELF object that reaches the end of its
    section header table, which the linker writes last: a file cut short
    fails, and is never handed to the loader."""
    if len(data) < 64 or data[:5] != b"\x7fELF\x02":
        return False
    order = "little" if data[5] == 1 else "big"
    shoff = int.from_bytes(data[0x28:0x30], order)
    entsize, count = (int.from_bytes(data[i:i + 2], order) for i in (0x3A, 0x3C))
    return 0 < shoff and shoff + entsize * count <= len(data)


def _build(source: str, path: Path):
    """Compile source into a temporary file beside path, load it, and
    rename it over path; None when any step fails."""
    import subprocess  # here, since only a cold cache pays for its import

    cc = c_compiler()
    if cc is None:
        return None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
        os.close(fd)
    except OSError:  # an unwritable cache
        return None
    try:
        done = subprocess.run([cc, *CFLAGS, "-x", "c", "-", "-o", tmp], input=source,
                              capture_output=True, text=True, timeout=300)
        if done.returncode != 0:
            return None
        lib = ctypes.CDLL(tmp)  # this file is what runs, whoever renames over path
        os.replace(tmp, path)
        return lib
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        with contextlib.suppress(FileNotFoundError):  # renamed, unless a step failed
            os.unlink(tmp)


@lru_cache(maxsize=64)
def compiled_kernel(source: str):
    """``nilwalk_product`` of the C source, compiled with CFLAGS, or None.

    The shared object is kept as <SHA-256 of CFLAGS and source>.so under
    ``kernel_cache_dir``, so a machine compiles each kernel once.  A whole
    cached object is loaded; a missing, truncated or unloadable one is
    built again through a temporary file and ``os.replace``, so no process
    or thread loads a half-written file.  None, and the numpy kernel runs,
    when there is no compiler, the cache is unwritable, or the compile or
    the load fails.  ctypes releases the interpreter lock during the call.
    """
    digest = hashlib.sha256("\0".join(CFLAGS + (source,)).encode()).hexdigest()
    path = kernel_cache_dir() / f"{digest}.so"
    lib = None
    try:
        if _whole_elf(path.read_bytes()):
            lib = ctypes.CDLL(str(path))
    except OSError:  # missing, unreadable or unloadable: built again
        pass
    if lib is None:
        lib = _build(source, path)
    if lib is None:
        return None
    fn = lib.nilwalk_product
    fn.argtypes = [ctypes.c_char_p]
    fn.restype = None
    return fn


# The kernel's one argument: n, then (address, row stride, column stride) of
# x, y and out, strides in doubles.  Packed, the call costs about 0.4 us, and
# with ten arguments converted by ctypes about 1.4 us, on a 2-core Xeon where
# the numpy kernel takes about 6 us for a 100-row heisenberg3 product.
_ARGS = struct.Struct("10n")


def _compiled_product(fn, d: int, fallback):
    """The product through fn on (n, d), (1, d) or (d,) float arrays of any
    strides; any other input goes to fallback, the numpy kernel."""

    def layout(a: np.ndarray, n: int):
        """(address, row stride, column stride), strides in doubles, or None."""
        if a.ndim == 2:
            (rows, cols), (r, c) = a.shape, a.strides
            if rows != n:
                if rows != 1:
                    return None
                r = 0  # one row broadcast over n
        elif a.ndim == 1:
            (cols,), (c,), r = a.shape, a.strides, 0
        else:
            return None
        if cols != d or (r | c) & 7:
            return None
        try:  # the cheap address of a C-contiguous, writable array
            address = ctypes.addressof(ctypes.c_double.from_buffer(a))
        except (TypeError, ValueError):  # read-only, not C-contiguous, or empty
            address = a.ctypes.data
        return address, r >> 3, c >> 3

    def product(x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        x, y, out = _operands(x, y, out)
        n = len(out) if out.ndim == 2 else 1
        lx, ly, lo = layout(x, n), layout(y, n), layout(out, n)
        if lx is None or ly is None or lo is None or out.dtype != np.float64 \
                or not out.flags.writeable:
            return fallback(x, y, out)
        fn(_ARGS.pack(n, *lx, *ly, *lo))
        return out

    return product


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
