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
from dataclasses import dataclass, field
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
from .lattice import Lattice, OverlatticeEmbedding, Sublattice, embedding_matrix

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


@cache
def unit_roots(n: int) -> np.ndarray:
    """Read-only table of e(k/n) for k = 0..n-1, each computed by two_pi_e."""
    return _read_only(np.array([two_pi_e(Fraction(k, n)) for k in range(n)], dtype=complex))


@dataclass(frozen=True)
class DiscriminantGroup:
    """The finite quadratic module L*/L of an even lattice."""

    lattice: Lattice
    elementary_divisors: tuple[int, ...]
    generators: tuple[tuple[Fraction, ...], ...]  # dual vectors in L-coords
    order: int
    _u_transform: tuple[tuple[int, ...], ...] = field(repr=False, default=())
    _full_divisors: tuple[int, ...] = field(repr=False, default=())

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

    def index(self, x: DiscElement) -> int:
        """Position of x in elements()."""
        out = 0
        for c, d in zip(x, self.elementary_divisors):
            out = out * d + c % d
        return out

    def dual_vector(self, x: DiscElement) -> list[Fraction]:
        """A dual-lattice representative of x, in lattice coordinates."""
        n = self.lattice.rank
        v = [Fraction(0)] * n
        for c, g in zip(x, self.generators):
            for i in range(n):
                v[i] += c * g[i]
        return v

    @cached_property
    def dual_vectors(self) -> tuple:
        """dual_vector(x) for every element, in elements() order (read-only)."""
        return tuple(tuple(self.dual_vector(x)) for x in self.elements())

    def from_dual(self, vec) -> DiscElement:
        """Coordinates of the class of a dual vector; NotInDual if outside L*."""
        vec = [Fraction(v) for v in vec]
        gv = exact.mat_vec(self.lattice.gram_rows(), vec)
        if not exact.is_integral(gv):
            raise NotInDual(f"vector {vec} does not pair integrally with the lattice")
        gv = [int(x) for x in gv]
        return tuple(sum(u * x for u, x in zip(row, gv)) % d
                     for row, d in zip(self._u_transform, self._full_divisors) if d > 1)

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

    @cached_property
    def b_table(self) -> np.ndarray:
        """N b(x, y) mod N for every pair of elements (read-only)."""
        n, _, b = self._form_arrays()
        xs = self.element_array()
        return _read_only(((xs @ b) % n @ xs.T) % n)

    @cached_property
    def neg_table(self) -> np.ndarray:
        """Index of -x for every element x (read-only)."""
        out = np.zeros(self.order, dtype=np.int64)
        for c, d in zip(self.element_array().T, self.elementary_divisors):
            out = out * d + (-c) % d
        return _read_only(out)

    @cached_property
    def weil_matrices(self) -> dict:
        """The Weil generator matrices built so far, read-only, keyed by
        (kind, reduced power, dual); filled by weil._generator_power."""
        return {}

    def element_order(self, x: DiscElement) -> int:
        out = 1
        for c, d in zip(x, self.elementary_divisors):
            out = out * (d // math.gcd(c, d)) // math.gcd(out, d // math.gcd(c, d))
        return out

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
    n = lat.rank
    if n == 0:
        group = DiscriminantGroup(lattice=lat, elementary_divisors=(), generators=(),
                                  order=1, _u_transform=(), _full_divisors=())
        _DISC_CACHE[lat] = group
        return group
    d, u, v = exact.snf(lat.gram_rows())
    divisors = [abs(d[i][i]) for i in range(n)]
    g_inv = exact.mat_inv(lat.gram_rows())
    u_inv = exact.mat_inv(exact.frac_matrix(u))
    gens = []
    kept = []
    for i in range(n):
        if divisors[i] > 1:
            col = [u_inv[r][i] for r in range(n)]
            gens.append(tuple(exact.mat_vec(g_inv, col)))
            kept.append(divisors[i])
    order = 1
    for di in divisors:
        order *= di
    group = DiscriminantGroup(
        lattice=lat,
        elementary_divisors=tuple(kept),
        generators=tuple(gens),
        order=order,
        _u_transform=tuple(tuple(int(x) for x in row) for row in u),
        _full_divisors=tuple(divisors),
    )
    _DISC_CACHE[lat] = group
    return group


def disc_eval(group: DiscriminantGroup, x: DiscElement, y: DiscElement):
    """(q(x), b(x, y)) as exact rationals in [0, 1)."""
    return group.q(x), group.b(x, y)


@dataclass(frozen=True)
class IsotropicSubgroup:
    parent: DiscriminantGroup
    generators: tuple[DiscElement, ...]
    elements: tuple[DiscElement, ...]

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
    frontier = [group.zero()]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = group.add(x, g)
            if y not in elements:
                elements.add(y)
                frontier.append(y)
                if len(elements) > group.order:
                    raise NotSubgroup("closure exceeded the group order")
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


def disc_projection(sub: Sublattice, vec) -> DiscElement:
    """Class in D_M of the orthogonal projection of a dual vector of L.

    The input is a rational vector in ambient coordinates that must lie in
    the ambient dual lattice; the output is its image under the projection
    L* -> M* -> D_M.
    """
    amb = sub.ambient
    vec = [Fraction(v) for v in vec]
    gv = exact.mat_vec(amb.gram_rows(), vec)
    if not exact.is_integral(gv):
        raise NotInDual("vector is not in the ambient dual lattice")
    coords = sub.coords_of(vec)  # projection in sublattice coordinates
    return discriminant_group(sub.lattice).from_dual(coords)


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
    lifts = [group.dual_vector(g) for g in sub.generators]
    emb = embedding_matrix(small, lifts)
    if emb.index != sub.order:
        raise NotIsotropic("overlattice index does not match the subgroup order")
    return OverlatticeEmbedding(small=emb.small, big=emb.big, glue=emb.glue,
                                index=emb.index, glue_group=sub)


@dataclass(frozen=True)
class GlueMap:
    """Index maps between D_small and D_big for an overlattice embedding.

    ``down`` sends each element of the orthogonal complement of the glue
    group to its class in D_big (exact index bookkeeping); the fiber over an
    element of D_big is a row of ``down_matrix``.
    """

    embedding: OverlatticeEmbedding
    small_disc: DiscriminantGroup
    big_disc: DiscriminantGroup
    subgroup: IsotropicSubgroup
    down: dict

    @property
    def glue_order(self) -> int:
        return self.subgroup.order

    @cached_property
    def down_matrix(self) -> np.ndarray:
        """The 0/1 matrix of ``down``: rows D_big, columns D_small (read-only)."""
        mat = np.zeros((self.big_disc.order, self.small_disc.order))
        for delta, gamma in self.down.items():
            mat[self.big_disc.index(gamma), self.small_disc.index(delta)] = 1.0
        return _read_only(mat)


def glue_map(emb: OverlatticeEmbedding, subgroup: IsotropicSubgroup | None = None) -> GlueMap:
    """Build the coset maps H-perp -> D_big for an overlattice embedding."""
    small_disc = discriminant_group(emb.small)
    big_disc = discriminant_group(emb.big)
    sub = subgroup if subgroup is not None else emb.glue_group
    if sub is None:
        # glue group = image of the big lattice in D_small, generated by the
        # classes of the big basis vectors (the columns of glue)
        gens = [small_disc.from_dual(col) for col in exact.transpose(emb.glue_rows())]
        sub = check_isotropic(small_disc, gens)
    glue_inv = exact.mat_inv(emb.glue_rows())
    down = {}
    for delta in orthogonal_subgroup(sub):
        nu_small = small_disc.dual_vector(delta)
        nu_big = exact.mat_vec(glue_inv, nu_small)
        gamma = big_disc.from_dual(nu_big)
        down[delta] = gamma
    if len(down) != big_disc.order * sub.order:
        raise NotIsotropic("orthogonal subgroup size does not match |D_big| * |H|")
    return GlueMap(embedding=emb, small_disc=small_disc, big_disc=big_disc,
                   subgroup=sub, down=down)


def disc_product_iso(sum_disc: DiscriminantGroup,
                     left: DiscriminantGroup, right: DiscriminantGroup):
    """combine/split functions between D_{L1 (+) L2} and D_{L1} x D_{L2}.

    The sum group must come from the block-diagonal Gram matrix of the two
    factors, in that order.  Both maps are group homomorphisms, so each is
    an integer matrix on Smith coordinates: the images of the generators,
    found once through their dual-vector lifts, summed with the input
    coordinates as weights, modulo the target's elementary divisors.
    """
    n1, n2 = left.lattice.rank, right.lattice.rank
    combine_pair = lift_map(sum_disc, [list(g) + [0] * n2 for g in left.generators]
                            + [[0] * n1 + list(h) for h in right.generators])
    split_left = lift_map(left, [g[:n1] for g in sum_disc.generators])
    split_right = lift_map(right, [g[n1:] for g in sum_disc.generators])

    def combine(x, y) -> DiscElement:
        return combine_pair(tuple(x) + tuple(y))

    def split(z: DiscElement):
        return split_left(z), split_right(z)

    return combine, split


def lift_map(target: DiscriminantGroup, lifts):
    """The homomorphism sending the k-th generator of a source group to the
    class of the dual vector lifts[k] in ``target``: the images are found once
    by from_dual, then summed with the coordinates as weights, mod the
    target's elementary divisors."""
    images = [target.from_dual(v) for v in lifts]

    def image(x: DiscElement) -> DiscElement:
        return tuple(sum(c * img[i] for c, img in zip(x, images)) % d
                     for i, d in enumerate(target.elementary_divisors))

    return image


def element_identification(source: DiscriminantGroup, target: DiscriminantGroup):
    """x -> target.from_dual(source.dual_vector(x)) for two groups of the same
    dual lattice, such as those of L and L(-1)."""
    return lift_map(target, source.generators)
