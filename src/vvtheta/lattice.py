"""Even lattices presented by integer Gram matrices.

Conventions: a lattice of rank n is Z^n with a fixed basis; vectors are
coordinate columns with respect to that basis and the pairing of x and y is
x^T G y for the Gram matrix G.  Sublattices store their generators as vectors
in ambient coordinates.  All integer arithmetic is arbitrary precision.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from functools import cached_property
from operator import mul

import numpy as np

from . import exact
from .errors import (
    Degenerate,
    DegenerateSublattice,
    IncompatibleSublattices,
    NotEven,
    NotIntegral,
    NotPrimitive,
    NotSymmetric,
)


class Lattice:
    """An even non-degenerate lattice given by its Gram matrix.

    Equal Gram data make equal lattices: ``name`` is a label only."""

    def __init__(self, gram: tuple[tuple[int, ...], ...], rank: int, sig_plus: int,
                 sig_minus: int, name: str | None = None):
        self.gram = gram
        self.rank = rank
        self.sig_plus = sig_plus
        self.sig_minus = sig_minus
        self.name = name

    def _value(self) -> tuple:
        return (self.gram, self.rank, self.sig_plus, self.sig_minus)

    def __eq__(self, other):
        if other.__class__ is not Lattice:
            return NotImplemented
        return self is other or self._value() == other._value()

    @cached_property
    def _hash(self) -> int:
        return hash(self._value())

    def __hash__(self):
        return self._hash

    def gram_np(self) -> np.ndarray:
        return np.array(self.gram, dtype=float).reshape(self.rank, self.rank)

    def gram_rows(self) -> list[list[int]]:
        return [list(row) for row in self.gram]

    def pairing(self, x, y):
        """Exact pairing x^T G y for rational coordinate vectors."""
        gx = exact.mat_vec(self.gram_rows(), [Fraction(v) for v in y])
        return sum(Fraction(a) * b for a, b in zip(x, gx))

    def norm(self, x):
        return self.pairing(x, x)

    @property
    def signature(self) -> tuple[int, int]:
        return (self.sig_plus, self.sig_minus)

    def __repr__(self):
        label = self.name or f"rank{self.rank}"
        return f"Lattice({label}, sig=({self.sig_plus},{self.sig_minus}))"


def _int_entry(x) -> int:
    """x as an int if it is an exact integer: an int, or an integral
    Fraction or float; anything else, a bool included, raises NotIntegral."""
    if not isinstance(x, bool) and (
            isinstance(x, numbers.Integral) or (isinstance(x, Fraction) and x.denominator == 1)
            or (isinstance(x, float) and x.is_integer())):
        return int(x)
    raise NotIntegral(f"expected an integer entry, got {x!r}")


def _inertia(rows: list[list[int]]) -> tuple[int, int] | None:
    """(positive, negative) eigenvalue counts of a symmetric integer matrix,
    exactly, or None when it is singular.

    Sylvester's law of inertia, on a fraction-free symmetric elimination in
    Python ints.  A nonzero diagonal entry p is a 1x1 pivot: it counts by
    its sign, and the rest becomes |p| times its Schur complement,
    |p| A_ij - sign(p) A_ip A_jp.  Where the whole remaining diagonal is zero
    and some A_kl = b is not, the 2x2 pivot [[0, b], [b, 0]] counts once
    each way, and the rest becomes |b| A_ij - sign(b) (A_ik A_jl + A_il A_jk).
    A positive multiple keeps the inertia, and dividing out the entries' gcd
    keeps them small.
    """
    plus = minus = 0
    a = [list(row) for row in rows]
    while a:
        n = len(a)
        k = next((i for i in range(n) if a[i][i]), None)
        if k is not None:
            p = a[k][k]
            plus, minus = (plus + 1, minus) if p > 0 else (plus, minus + 1)
            sign, col = (1 if p > 0 else -1), a[k]
            rest = [i for i in range(n) if i != k]
            a = [[abs(p) * a[i][j] - sign * col[i] * col[j] for j in rest] for i in rest]
        else:
            pair = next(((i, j) for i in range(n) for j in range(i + 1, n) if a[i][j]), None)
            if pair is None:
                return None
            k, m = pair
            b = a[k][m]
            plus, minus = plus + 1, minus + 1
            sign, ck, cm = (1 if b > 0 else -1), a[k], a[m]
            rest = [i for i in range(n) if i not in pair]
            a = [[abs(b) * a[i][j] - sign * (ck[i] * cm[j] + cm[i] * ck[j]) for j in rest]
                 for i in rest]
        g = math.gcd(*(x for row in a for x in row))
        if g > 1:
            a = [[x // g for x in row] for row in a]
    return plus, minus


def construct_lattice(gram, name: str | None = None) -> Lattice:
    """Validate a square integer Gram matrix and build a Lattice.

    Raises NotIntegral / NotSymmetric / NotEven / Degenerate.  The signature
    and non-degeneracy are exact: the inertia of one fraction-free symmetric
    elimination in Python ints (_inertia), with no floats.
    """
    rows = [list(map(_int_entry, row)) for row in gram]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise NotSymmetric("gram matrix must be square")
    for i in range(n):
        for j in range(n):
            if rows[i][j] != rows[j][i]:
                raise NotSymmetric(f"gram[{i}][{j}] != gram[{j}][{i}]")
    for i in range(n):
        if rows[i][i] % 2 != 0:
            raise NotEven(f"diagonal entry gram[{i}][{i}] = {rows[i][i]} is odd")
    if n == 0:
        return Lattice(gram=(), rank=0, sig_plus=0, sig_minus=0, name=name)
    inertia = _inertia(rows)
    if inertia is None:
        raise Degenerate("gram matrix is singular")
    plus, minus = inertia
    return Lattice(gram=tuple(tuple(row) for row in rows), rank=n,
                   sig_plus=plus, sig_minus=minus, name=name)


def direct_sum(l1: Lattice, l2: Lattice, name: str | None = None) -> Lattice:
    """Block-diagonal orthogonal direct sum."""
    n1, n2 = l1.rank, l2.rank
    rows = []
    for i in range(n1):
        rows.append(list(l1.gram[i]) + [0] * n2)
    for i in range(n2):
        rows.append([0] * n1 + list(l2.gram[i]))
    return construct_lattice(rows, name=name)


def rescale(lat: Lattice, s: int, name: str | None = None) -> Lattice:
    """Multiply the Gram matrix by a nonzero integer s."""
    if s == 0:
        raise Degenerate("rescaling by 0")
    rows = [[s * x for x in row] for row in lat.gram]
    return construct_lattice(rows, name=name)


class Sublattice:
    """A primitive non-degenerate sublattice of an ambient lattice.

    ``basis`` lists the generator vectors as given (ambient integer
    coordinates); the induced Gram matrix makes the sublattice a Lattice in
    its own right.
    """

    def __init__(self, ambient: Lattice, basis: tuple[tuple[int, ...], ...],
                 lattice: Lattice):
        self.ambient = ambient
        self.basis = basis
        self.lattice = lattice

    def _value(self) -> tuple:
        return (self.ambient, self.basis, self.lattice)

    def __eq__(self, other):
        if other.__class__ is not Sublattice:
            return NotImplemented
        return self is other or self._value() == other._value()

    @cached_property
    def _hash(self) -> int:
        return hash(self._value())

    def __hash__(self):
        return self._hash

    @property
    def rank(self) -> int:
        return len(self.basis)

    def basis_matrix(self) -> list[list[int]]:
        """Ambient-by-rank matrix whose columns are the generators."""
        return exact.transpose([list(v) for v in self.basis])

    @cached_property
    def coords_projection(self) -> tuple[list[list[int]], int]:
        """(rows, den): the exact matrix (B^T G B)^{-1} B^T G of ``coords_of``
        as int rows over their least common denominator, made once."""
        btg = exact.mat_mul(exact.transpose(self.basis_matrix()), self.ambient.gram_rows())
        return exact.integer_rows(exact.mat_mul(exact.mat_inv(self.lattice.gram_rows()), btg))

    def coords_of(self, vec):
        """Sublattice coordinates of an ambient vector lying in the span, as
        Fractions.

        Solves B x = vec in the least-squares-free exact sense using the
        induced Gram matrix: x = (B^T G B)^{-1} B^T G vec, one int product
        over the denominators of the projection and of vec (each entry read
        by Fraction).
        """
        rows, den = self.coords_projection
        (v,), v_den = exact.integer_rows(
            [[x if type(x) is int or type(x) is Fraction else Fraction(x) for x in vec]])
        den *= v_den
        return [Fraction(sum(map(mul, row, v)), den) for row in rows]

    def embed(self, coords):
        """Ambient coordinates of a vector given in sublattice coordinates."""
        b = self.basis_matrix()
        return exact.mat_vec(b, [Fraction(c) for c in coords])

    def project_ambient(self, vec):
        """Orthogonal projection of an ambient vector onto the real span."""
        return self.embed(self.coords_of(vec))


def sublattice(ambient: Lattice, generators) -> Sublattice:
    """Build a primitive sublattice from integer generator vectors.

    The generators must be linearly independent (DegenerateSublattice
    otherwise) and span a primitive (saturated) sublattice, otherwise
    NotPrimitive is raised.  A non-integral entry raises NotIntegral.
    """
    gens = [tuple(map(_int_entry, g)) for g in generators]
    if not gens:
        raise DegenerateSublattice("empty generator list")
    if any(len(g) != ambient.rank for g in gens):
        raise IncompatibleSublattices("generator length does not match ambient rank")
    basis, primitive = exact.saturate_columns(gens)
    if len(basis) != len(gens):
        raise DegenerateSublattice("generators are linearly dependent")
    if not primitive:
        raise NotPrimitive("generators span a non-saturated sublattice")
    b = exact.transpose([list(v) for v in gens])
    induced = exact.mat_mul(exact.mat_mul(exact.transpose(b), ambient.gram_rows()), b)
    induced_int = [[int(x) for x in row] for row in induced]
    try:
        sub_lat = construct_lattice(induced_int)
    except Degenerate as exc:
        raise DegenerateSublattice(str(exc)) from exc
    return Sublattice(ambient=ambient, basis=tuple(gens), lattice=sub_lat)


def orthogonal_complement(ambient: Lattice, sub: Sublattice) -> Sublattice:
    """The primitive sublattice of all ambient vectors orthogonal to sub.

    Basis: saturated integer kernel of (G B)^T where B holds sub's
    generators as columns.
    """
    gb = exact.mat_mul(ambient.gram_rows(), sub.basis_matrix())
    kernel = exact.integer_kernel(exact.transpose(gb))
    if len(kernel) != ambient.rank - sub.rank:
        raise DegenerateSublattice("unexpected kernel rank; sublattice degenerate?")
    return sublattice(ambient, kernel)


class OverlatticeEmbedding:
    """An even overlattice big of small, with index |big/small|.

    ``glue`` expresses a basis of the big lattice in small-lattice
    coordinates (one column per big basis vector), so glue^{-1} is integral.
    ``glue_group`` is the isotropic subgroup of the small discriminant group
    corresponding to the overlattice.  overlattice_from_isotropic fills it
    in; elsewhere it is None (split_data's embeddings among them), and
    glue_map reads the subgroup off ``glue``.
    """

    def __init__(self, small: Lattice, big: Lattice, glue: tuple[tuple[Fraction, ...], ...],
                 index: int, glue_group: object | None = None):
        self.small = small
        self.big = big
        self.glue = glue
        self.index = index
        self.glue_group = glue_group

    def glue_rows(self) -> list[list[Fraction]]:
        return [list(row) for row in self.glue]

    def big_coords(self, small_coords):
        inv = exact.mat_inv(self.glue_rows())
        return exact.mat_vec(inv, [Fraction(x) for x in small_coords])


def embedding_matrix(small: Lattice, lifts) -> OverlatticeEmbedding:
    """Overlattice generated by small and the given rational lift vectors.

    ``lifts`` are vectors in small coordinates; the result records a basis of
    the generated module and validates that the overlattice is even.
    """
    n = small.rank
    cols = [[Fraction(int(i == j)) for i in range(n)] for j in range(n)]
    cols += [[Fraction(x) for x in v] for v in lifts]
    basis = exact.column_module_basis(cols)  # list of column vectors
    glue = exact.transpose(basis)
    gram = exact.mat_mul(exact.mat_mul(exact.transpose(glue), small.gram_rows()), glue)
    for i in range(n):
        for j in range(n):
            if gram[i][j].denominator != 1:
                raise NotEven("overlattice pairing is not integral")
        if (gram[i][i] / 2).denominator != 1:
            raise NotEven("overlattice has an odd vector")
    big = construct_lattice([[int(x) for x in row] for row in gram])
    det = abs(exact.mat_det(glue))
    if det.numerator != 1:
        raise Degenerate("glue determinant is not 1/index")
    return OverlatticeEmbedding(small=small, big=big,
                                glue=tuple(tuple(row) for row in glue),
                                index=det.denominator)
