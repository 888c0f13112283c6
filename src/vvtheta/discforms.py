"""Discriminant groups D = L*/L with their Q/Z quadratic and bilinear forms.

Elements are tuples of residues in Smith-normal-form coordinates (one entry
per elementary divisor > 1).  The forms are stored once as integers, the
level N and N q, N b on the generators, so every Q/Z value is an exact
integer sum mod N, a Fraction in [0, 1); nothing about the forms ever touches
floating point, so isotropy and orthogonality tests are exact.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction
from functools import cache, cached_property

import numpy as np

from . import exact
from .errors import (
    EnumerationCapExceeded,
    MismatchedSignature,
    NotInDual,
    NotIsotropic,
    NotSubgroup,
)
from .lattice import Lattice, OverlatticeEmbedding, embedding_matrix

#: cap on full enumeration of a discriminant group (Gauss sums, orthogonal
#: subgroups); raise it explicitly for larger desk experiments.
ENUM_CAP = 10_000

DiscElement = tuple  # tuple of int residues, one per elementary divisor


def two_pi_e(x) -> complex:
    """e(x) = exp(2*pi*i*x) for a rational or float argument."""
    if isinstance(x, Fraction):
        x = exact.mod1(x)
    return cmath.exp(2j * math.pi * float(x))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _object_rows(xs, k: int) -> np.ndarray:
    """Rows of k Smith coordinates as an array of Python ints, so products
    with the big integer matrices of the model cannot overflow."""
    return np.asarray(xs, dtype=np.int64).reshape(len(xs), k).astype(object)


@cache
def unit_roots(n: int) -> np.ndarray:
    """Read-only table of e(k/n) for k = 0..n-1, each computed by two_pi_e."""
    return _read_only(np.array([two_pi_e(Fraction(k, n)) for k in range(n)], dtype=complex))


class DiscriminantGroup:
    """The finite quadratic module L*/L of an even lattice."""

    def __init__(self, lattice: Lattice, elementary_divisors: tuple[int, ...],
                 generators: tuple[tuple[Fraction, ...], ...], order: int,
                 _dual_map: tuple[tuple[int, ...], ...],
                 _full_divisors: tuple[int, ...]):
        self.lattice = lattice
        self.elementary_divisors = elementary_divisors
        self.generators = generators  # dual vectors in L-coords
        self.order = order
        self._dual_map = _dual_map  # U G
        self._full_divisors = _full_divisors

    def _value(self) -> tuple:
        return (self.lattice, self.elementary_divisors, self.generators, self.order,
                self._dual_map, self._full_divisors)

    def __eq__(self, other):
        if other.__class__ is not DiscriminantGroup:
            return NotImplemented
        return self is other or self._value() == other._value()

    def __hash__(self):
        return hash(self._value())

    def zero(self) -> DiscElement:
        return (0,) * len(self.elementary_divisors)

    def add(self, x: DiscElement, y: DiscElement) -> DiscElement:
        return tuple((a + b) % d for a, b, d in zip(x, y, self.elementary_divisors))

    def neg(self, x: DiscElement) -> DiscElement:
        return tuple((-a) % d for a, d in zip(x, self.elementary_divisors))

    def scale(self, k: int, x: DiscElement) -> DiscElement:
        return tuple((k * a) % d for a, d in zip(x, self.elementary_divisors))

    def elements(self, cap: int | None = ENUM_CAP):
        """All elements, in lexicographic coordinate order."""
        if cap is not None and self.order > cap:
            raise EnumerationCapExceeded(
                f"|D| = {self.order} exceeds enumeration cap {cap}")
        return list(itertools.product(*(range(d) for d in self.elementary_divisors)))

    def index(self, x):
        """Position of x in elements(); for an (m x k) array, of each row."""
        out, cols = (np.zeros(len(x), np.int64), x.T) if isinstance(x, np.ndarray) else (0, x)
        for c, d in zip(cols, self.elementary_divisors):
            out = out * d + c % d
        return out

    @cached_property
    def _generator_matrix(self) -> tuple[np.ndarray, int]:
        """(num, den): the generators are the rows of num / den, num an array
        of Python ints."""
        num, den = exact.integer_rows(self.generators)
        return np.array(num, dtype=object).reshape(len(num), self.lattice.rank), den

    def dual_vectors(self, xs) -> list[list[Fraction]]:
        """Dual-lattice representatives of the rows of xs, in lattice coordinates:
        xs times the integer generator matrix, over its denominator."""
        num, den = self._generator_matrix
        return [[Fraction(v, den) for v in row]
                for row in (_object_rows(xs, len(num)) @ num).tolist()]

    def dual_vector(self, x: DiscElement) -> list[Fraction]:
        """A dual-lattice representative of x, in lattice coordinates."""
        return self.dual_vectors([x])[0]

    def from_dual(self, vec) -> DiscElement:
        """Coordinates of the class of a dual vector; NotInDual if outside L*."""
        return lift_map(self, [list(map(Fraction, vec))])((1,))

    @cached_property
    def level_forms(self) -> tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """(N, qN, bN): the level N and the forms on the generators, times N.

        qN[i] = N q(g_i) mod N and bN[i][j] = N b(g_i, g_j) mod N.  N is the
        lcm of their denominators, the least N with N q(x) integral for all x.
        """
        lat, gens = self.lattice, self.generators
        q = [exact.mod1(lat.norm(g) / 2) for g in gens]
        b = [[exact.mod1(lat.pairing(g, h)) for h in gens] for g in gens]
        n = math.lcm(*(x.denominator for x in q),
                     *(x.denominator for row in b for x in row))
        return (n, tuple(int(x * n) for x in q),
                tuple(tuple(int(x * n) for x in row) for row in b))

    def q(self, x: DiscElement) -> Fraction:
        """Quadratic form value in [0, 1): sum x_i^2 q(g_i) + x_i x_j b(g_i, g_j), i < j."""
        n, qn, bn = self.level_forms
        k = sum(c * c * qi for c, qi in zip(x, qn))
        for i, row in enumerate(bn):
            k += x[i] * sum(c * bij for c, bij in zip(x[i + 1:], row[i + 1:]))
        return Fraction(k % n, n)

    def b(self, x: DiscElement, y: DiscElement) -> Fraction:
        """Bilinear form value in [0, 1): sum x_i y_j b(g_i, g_j)."""
        n, _, bn = self.level_forms
        k = sum(c * sum(bij * e for bij, e in zip(row, y)) for c, row in zip(x, bn))
        return Fraction(k % n, n)

    # -- tables over all elements, in the order of elements() ----------------

    def element_array(self) -> np.ndarray:
        """elements() as the rows of an int64 array."""
        return np.array(self.elements(), dtype=np.int64).reshape(self.order, -1)

    def _form_arrays(self):
        """(N, U, B) with x U x^T = N q(x) and x B y^T = N b(x, y) mod N."""
        n, qn, bn = self.level_forms
        b = np.array(bn, dtype=np.int64).reshape(len(qn), len(qn))
        return n, np.triu(b, 1) + np.diag(np.array(qn, dtype=np.int64)), b

    @cached_property
    def q_table(self) -> np.ndarray:
        """N q(x) mod N for every element (read-only)."""
        n, u, _ = self._form_arrays()
        xs = self.element_array()
        return _read_only(((xs @ u.T) % n * xs).sum(axis=1) % n)

    @property
    def b_table(self) -> np.ndarray:
        """N b(x, y) mod N for every pair of elements, not kept (S is)."""
        n, _, b = self._form_arrays()
        xs = self.element_array()
        return ((xs @ b) % n @ xs.T) % n

    @cached_property
    def neg_table(self) -> np.ndarray:
        """Index of -x for every element x (read-only)."""
        return _read_only(self.index(-self.element_array()))

    @cached_property
    def weil_matrices(self) -> dict:
        """The Weil matrix S (under False) and its conjugate (under True),
        read-only, as weil._s_matrix builds them; T and Z are never kept."""
        return {}

    @cached_property
    def t_phases(self) -> dict:
        """T^n's phases e(n q(x)), read-only, keyed by (n mod N, dual); see weil."""
        return {}

    def element_order(self, x: DiscElement) -> int:
        return math.lcm(*(d // math.gcd(c, d) for c, d in zip(x, self.elementary_divisors)))

    def __repr__(self):
        divs = "x".join(f"Z/{d}" for d in self.elementary_divisors) or "0"
        return f"DiscriminantGroup({divs} of {self.lattice!r})"


_DISC_CACHE: dict[Lattice, DiscriminantGroup] = {}


def discriminant_group(lat: Lattice) -> DiscriminantGroup:
    """Compute L*/L via the Smith normal form of the Gram matrix.

    With U G V = D diagonal, the class of a dual vector nu corresponds to
    U (G nu) reduced mod the diagonal; the generator of the i-th cyclic
    factor lifts to G^{-1} U^{-1} e_i.
    """
    if lat in _DISC_CACHE:
        return _DISC_CACHE[lat]
    d, u, _v = exact.snf(lat.gram_rows())
    divisors = [abs(d[i][i]) for i in range(lat.rank)]
    lifts = exact.transpose(exact.mat_mul(exact.mat_inv(lat.gram_rows()),
                                          exact.mat_inv(u)))
    kept = [i for i, di in enumerate(divisors) if di > 1]
    group = DiscriminantGroup(
        lattice=lat,
        elementary_divisors=tuple(divisors[i] for i in kept),
        generators=tuple(tuple(lifts[i]) for i in kept),
        order=math.prod(divisors),
        _dual_map=tuple(map(tuple, exact.mat_mul(u, lat.gram_rows()))),
        _full_divisors=tuple(divisors),
    )
    _DISC_CACHE[lat] = group
    return group


class IsotropicSubgroup:
    def __init__(self, parent: DiscriminantGroup, generators: tuple[DiscElement, ...],
                 elements: tuple[DiscElement, ...]):
        self.parent = parent
        self.generators = generators
        self.elements = elements

    @property
    def order(self) -> int:
        return len(self.elements)


def check_isotropic(group: DiscriminantGroup, generators) -> IsotropicSubgroup:
    """Close the generators under addition and verify q vanishes throughout."""
    gens = []
    for g in generators:
        g = tuple(int(c) for c in g)
        if len(g) != len(group.elementary_divisors):
            raise NotSubgroup(f"element {g} has wrong coordinate arity")
        gens.append(tuple(c % d for c, d in zip(g, group.elementary_divisors)))
    elements = {group.zero()}
    for g in gens:  # add the multiples of each generator in turn
        elements = {group.add(x, group.scale(c, g))
                    for x in elements for c in range(group.element_order(g))}
    for h in elements:
        if group.q(h) != 0:
            raise NotIsotropic(f"element {h} has q = {group.q(h)}")
    return IsotropicSubgroup(parent=group, generators=tuple(gens),
                             elements=tuple(sorted(elements)))


def orthogonal_elements(group: DiscriminantGroup, elements) -> list[DiscElement]:
    """All x with b(x, h) = 0 for every given h, in the order of elements():
    one |D| x k integer product x bN h^T mod N, so memory stays O(|D|)."""
    n, _, b = group._form_arrays()
    hs = np.array([list(h) for h in elements], dtype=np.int64).reshape(
        len(elements), len(group.elementary_divisors))
    xs = group.element_array()
    return [tuple(x) for x in xs[~((xs @ b % n @ hs.T) % n).any(axis=1)].tolist()]


def orthogonal_subgroup(sub: IsotropicSubgroup) -> list[DiscElement]:
    """All x in the parent with b(x, h) = 0 for every h in the subgroup."""
    return orthogonal_elements(sub.parent, sub.generators)


def gauss_sum_residual(group: DiscriminantGroup, sig_plus: int, sig_minus: int) -> float:
    """Milgram residual |sum of e(q) over D - sqrt(|D|) e((b+ - b-)/8)|."""
    zeta = unit_roots(group.level_forms[0])
    total = sum(zeta[group.q_table].tolist())  # in element order
    return abs(total - math.sqrt(group.order) * two_pi_e(Fraction(sig_plus - sig_minus, 8)))


def gauss_sum_check(group: DiscriminantGroup, sig_plus: int, sig_minus: int,
                    tol: float = 1e-10) -> bool:
    """Milgram check: raise MismatchedSignature unless the residual is within tol."""
    residual = gauss_sum_residual(group, sig_plus, sig_minus)
    if residual > tol:
        raise MismatchedSignature(
            f"Gauss sum off by {residual} for signature ({sig_plus}, {sig_minus})")
    return True


def overlattice_from_isotropic(small: Lattice, sub: IsotropicSubgroup) -> OverlatticeEmbedding:
    """Even overlattice corresponding to an isotropic subgroup of D_small.

    The overlattice is generated by the lattice and dual-vector lifts of the
    subgroup generators; |D_big| = |D_small| / |H|^2.
    """
    group = sub.parent
    if group.lattice != small:
        raise NotSubgroup("subgroup does not live on the discriminant group of this lattice")
    emb = embedding_matrix(small, group.dual_vectors(sub.generators))
    if emb.index != sub.order:
        raise NotIsotropic("overlattice index does not match the subgroup order")
    return OverlatticeEmbedding(small=emb.small, big=emb.big, glue=emb.glue,
                                index=emb.index, glue_group=sub)


class GlueMap:
    """Index maps between D_small and D_big for an overlattice embedding.

    Read-only int64 arrays: ``domain`` is H-perp in element order, ``image``
    the class in D_big of each row, and row j of ``fibres`` the D_small
    indices, in element order, of the |H| elements over the j-th of D_big.
    """

    def __init__(self, embedding: OverlatticeEmbedding, small_disc: DiscriminantGroup,
                 big_disc: DiscriminantGroup, subgroup: IsotropicSubgroup,
                 domain: np.ndarray, image: np.ndarray, fibres: np.ndarray):
        self.embedding = embedding
        self.small_disc = small_disc
        self.big_disc = big_disc
        self.subgroup = subgroup
        self.domain = domain  # H-perp, in element order
        self.image = image    # its classes in D_big
        self.fibres = fibres  # |D_big| x |H| indices into D_small


def glue_map(emb: OverlatticeEmbedding) -> GlueMap:
    """Build the coset maps H-perp -> D_big for an overlattice embedding: the
    lift_map of g -> glue^-1 g on the generators of D_small, applied to H-perp.
    H is ``emb.glue_group``, or the image of the big lattice if that is None."""
    small_disc = discriminant_group(emb.small)
    big_disc = discriminant_group(emb.big)
    sub = emb.glue_group
    if sub is None:
        # glue group = image of the big lattice in D_small, generated by the
        # classes of the big basis vectors (the columns of glue)
        columns = lift_map(small_disc, exact.transpose(emb.glue_rows()))
        sub = check_isotropic(small_disc, columns.apply(np.eye(emb.small.rank, dtype=np.int64)))
    glue_inv = exact.mat_inv(emb.glue_rows())
    domain = np.array(orthogonal_subgroup(sub), dtype=np.int64)
    if len(domain) != big_disc.order * sub.order:
        raise NotIsotropic("orthogonal subgroup size does not match |D_big| * |H|")
    image = lift_map(big_disc, [exact.mat_vec(glue_inv, g)
                                for g in small_disc.generators]).apply(domain)
    # H-perp / H = D_big: a stable sort by class puts each fibre on one row
    fibres = small_disc.index(domain)[np.argsort(big_disc.index(image), kind="stable")]
    return GlueMap(embedding=emb, small_disc=small_disc, big_disc=big_disc, subgroup=sub,
                   domain=_read_only(domain), image=_read_only(image),
                   fibres=_read_only(fibres.reshape(big_disc.order, sub.order)))


def disc_product_iso(sum_disc: DiscriminantGroup,
                     left: DiscriminantGroup, right: DiscriminantGroup):
    """(combine, split_left, split_right): the lift maps between D_{L1 (+) L2}
    and D_{L1} x D_{L2}.

    The sum group must come from the block-diagonal Gram matrix of the two
    factors, in that order.  ``combine`` takes the concatenated coordinates
    (x, y); the split maps send an element of the sum to its two parts.
    """
    n1, n2 = left.lattice.rank, right.lattice.rank
    combine = lift_map(sum_disc, [list(g) + [0] * n2 for g in left.generators]
                       + [[0] * n1 + list(h) for h in right.generators])
    return (combine, lift_map(left, [g[:n1] for g in sum_disc.generators]),
            lift_map(right, [g[n1:] for g in sum_disc.generators]))


class _LiftMap:
    """x -> the class in ``target`` of the lift sum_k x_k lifts[k]: U G times
    that lift is matrix x / den, integral iff the lift is in the target's
    dual, and its kept rows mod the elementary divisors are the image."""

    def __init__(self, target: DiscriminantGroup, matrix: np.ndarray, den: int):
        self.target = target
        self.matrix = matrix  # n x k Python ints: den U G times the lifts as columns
        self.den = den

    def apply(self, xs) -> np.ndarray:
        """Images of the rows of an (m x k) array, as int64; NotInDual if a
        row lifts outside the target's dual lattice."""
        xs = _object_rows(xs, self.matrix.shape[1])
        ugv = xs @ self.matrix.T
        outside = (ugv % self.den != 0).any(axis=1)
        if outside.any():
            raise NotInDual(f"{xs[outside][0].tolist()} lifts outside the dual lattice "
                            f"of {self.target.lattice!r}")
        kept = np.array(self.target._full_divisors) > 1
        divisors = np.array(self.target.elementary_divisors, dtype=object)
        return (ugv[:, kept] // self.den % divisors).astype(np.int64)

    def __call__(self, x) -> DiscElement:
        return tuple(self.apply([x])[0].tolist())


def lift_map(target: DiscriminantGroup, lifts) -> _LiftMap:
    """The homomorphism sending the k-th generator of a source group to the
    class in ``target`` of lifts[k], a vector in target lattice coordinates.
    Only whole combinations must lie in the dual, so the domain may be a
    subgroup, such as H-perp for a glue map."""
    n = target.lattice.rank
    num, den = exact.integer_rows(lifts)
    num = np.array(num, dtype=object).reshape(len(num), n)
    return _LiftMap(target, np.array(target._dual_map, dtype=object).reshape(n, n) @ num.T, den)


def element_identification(source: DiscriminantGroup, target: DiscriminantGroup) -> _LiftMap:
    """x -> target.from_dual(source.dual_vector(x)) for two groups of the same
    dual lattice, such as those of L and L(-1)."""
    return lift_map(target, source.generators)
