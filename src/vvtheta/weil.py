"""Weil representations of the metaplectic double cover of SL2(Z).

The representation acts on C[D] for a discriminant group D; basis vectors are
indexed by group elements.  General elements act through a generator word
(Euclidean reduction on the bottom row), with the square-root branch of a
product fixed exactly by a sign rule on the bottom rows.  Generator matrices
are lookups of N-th roots of unity at the group's integer level-N forms
(Scheithauer, IMRN 2009; Stromberg, Math. Z. 275, 2013).  Tensor factors carry
a ``dual`` flag; a dual axis is acted on by the conjugate matrices, which is
the same as using the rescaled lattice with inverted pairings.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .discforms import DiscriminantGroup, GlueMap, element_identification, two_pi_e, unit_roots
from .errors import IndexMismatch, VvthetaError


def _quarter_turns(c: int, d: int) -> int:
    """arg(c tau + d) in quarter turns, coarsely: 1 or -1 off the real axis
    (c > 0 or c < 0, tau in the upper half-plane), exactly 0 or 2 on it."""
    if c:
        return 1 if c > 0 else -1
    return 0 if d > 0 else 2


@dataclass(frozen=True)
class MetaplecticElement:
    """(A, phi) with A in SL2(Z) and phi(tau) = branch * principal sqrt(c tau + d)."""

    a: int
    b: int
    c: int
    d: int
    branch: int = 1  # +1 or -1

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise VvthetaError(f"matrix {self.matrix()} is not in SL2(Z)")
        if self.branch not in (1, -1):
            raise VvthetaError("branch must be +1 or -1")

    def matrix(self):
        return ((self.a, self.b), (self.c, self.d))

    def phi(self, tau: complex) -> complex:
        return self.branch * cmath.sqrt(self.c * tau + self.d)

    def act(self, tau: complex) -> complex:
        return (self.a * tau + self.b) / (self.c * tau + self.d)

    def act_pair(self, alpha, beta):
        """Column action on a vector pair: (a alpha + b beta, c alpha + d beta)."""
        new_alpha = [self.a * x + self.b * y for x, y in zip(alpha, beta)]
        new_beta = [self.c * x + self.d * y for x, y in zip(alpha, beta)]
        return new_alpha, new_beta

    def __mul__(self, other: "MetaplecticElement") -> "MetaplecticElement":
        a = self.a * other.a + self.b * other.c
        b = self.a * other.b + self.b * other.d
        c = self.c * other.a + self.d * other.c
        d = self.c * other.b + self.d * other.d
        # phi(tau) = phi_self(other tau) phi_other(tau).  The product of the
        # principal roots of z1 and z2 is the principal root of z1 z2 iff
        # arg z1 + arg z2 lies in (-pi, pi], else its negative.  That sum
        # minus arg(c tau + d) is 0 or +-4 quarter turns.  The coarse t below
        # misses it by less than 2 if one of the three lies on the real axis,
        # otherwise by less than 3 with t odd; so |t| >= 3 iff it is +-4.
        t = (_quarter_turns(self.c, self.d) + _quarter_turns(other.c, other.d)
             - _quarter_turns(c, d))
        branch = self.branch * other.branch * (-1 if abs(t) >= 3 else 1)
        return MetaplecticElement(a, b, c, d, branch)

    def inverse(self) -> "MetaplecticElement":
        # the branch of a product is linear in the branch of either factor
        inv = MetaplecticElement(self.d, -self.b, -self.c, self.a, 1)
        return MetaplecticElement(self.d, -self.b, -self.c, self.a, (self * inv).branch)


MP_IDENTITY = MetaplecticElement(1, 0, 0, 1, 1)
MP_T = MetaplecticElement(1, 1, 0, 1, 1)
MP_S = MetaplecticElement(0, -1, 1, 0, 1)
MP_Z = MetaplecticElement(-1, 0, 0, -1, 1)  # phi = i = principal sqrt(-1)


def mp_power(g: MetaplecticElement, k: int) -> MetaplecticElement:
    out = MP_IDENTITY
    base = g if k >= 0 else g.inverse()
    for _ in range(abs(k)):
        out = out * base
    return out


@dataclass(frozen=True)
class GeneratorWord:
    """A word in T^n, S, Z^k whose ordered product is a metaplectic element."""

    tokens: tuple[tuple[str, int], ...]

    def evaluate(self) -> MetaplecticElement:
        out = MP_IDENTITY
        for kind, n in self.tokens:
            if kind == "T":
                out = out * MetaplecticElement(1, n, 0, 1, 1)
            elif kind == "S":
                out = out * MP_S
            elif kind == "Z":
                out = out * mp_power(MP_Z, n % 4)
            else:
                raise VvthetaError(f"unknown token {kind}")
        return out

    def __len__(self):
        return len(self.tokens)


def word_decompose(g: MetaplecticElement) -> GeneratorWord:
    """Express g as a word in T^n, S and a trailing Z power.

    Euclidean reduction on the bottom row: repeatedly peel T^q S from the
    left, which at most halves |c|; the leftover upper-triangular part is a
    T power times a sign, and the branch is fixed by a final Z power.
    """
    tokens = []
    a, b, c, d = g.a, g.b, g.c, g.d
    while c != 0:
        # choose q with |a - qc| <= |c| / 2 so the recursion terminates
        q = round(Fraction(a, c))
        tokens.append(("T", q))
        tokens.append(("S", 1))
        # remaining element: S^{-1} T^{-q} (a b; c d) = (c, d; -(a-qc), -(b-qd))
        a, b, c, d = c, d, -(a - q * c), -(b - q * d)
    # now the matrix is (a, b; 0, d) with a = d = +-1; Z carries matrix -I
    if a == 1:
        if b != 0:
            tokens.append(("T", b))
    else:
        tokens.append(("Z", 1))
        if b != 0:
            tokens.append(("T", -b))
    word = GeneratorWord(tuple(tokens))
    got = word.evaluate()
    if got.matrix() != g.matrix():
        raise VvthetaError("word decomposition failed to reproduce the matrix")
    if got.branch != g.branch:
        word = GeneratorWord(tuple(tokens) + (("Z", 2),))
        got = word.evaluate()
    if (got.matrix(), got.branch) != (g.matrix(), g.branch):
        raise VvthetaError("word decomposition failed to reproduce the branch")
    return word


# ---------------------------------------------------------------------------
# generator matrices

def _generator_power(group: DiscriminantGroup, kind: str, n: int, dual: bool) -> np.ndarray:
    """Matrix of T^n, S or Z^n on C[D], rows and columns in element order.

    With zeta[k] = e(k/N) for the level N and the integer tables qN = N q and
    bN = N b: T^n = diag(zeta[n qN]), S = e((b- - b+)/8)/sqrt|D| zeta[-bN]
    and Z^n = e(n (b- - b+)/4) P^n, where P permutes x -> -x.  A dual axis
    takes the complex conjugate.  Each matrix is built once per group and
    reduced power (n mod N for T, mod 4 for Z) and kept read-only in
    ``group.weil_matrices``.
    """
    level = group.level_forms[0]
    if kind == "T":
        n %= level
    elif kind == "S":
        n = 1
    elif kind == "Z":
        n %= 4
    else:
        raise VvthetaError(f"unknown generator {kind}")
    key = (kind, n, dual)
    if key in group.weil_matrices:
        return group.weil_matrices[key]
    zeta = unit_roots(level)
    sig = group.lattice.sig_minus - group.lattice.sig_plus
    if kind == "T":
        mat = np.diag(zeta[n * group.q_table % level])
    elif kind == "S":
        mat = two_pi_e(Fraction(sig, 8)) / math.sqrt(group.order) \
            * zeta[-group.b_table % level]
    else:
        mat = np.zeros((group.order, group.order), dtype=complex)
        cols = np.arange(group.order)
        mat[group.neg_table if n % 2 else cols, cols] = two_pi_e(Fraction(n * sig, 4))
    mat = mat.conj() if dual else mat
    mat.flags.writeable = False
    group.weil_matrices[key] = mat
    return mat


def rho_generator(group: DiscriminantGroup, gen: str, dual: bool = False) -> np.ndarray:
    """Matrix of the representation on C[D] for a generator T, S or Z.

    With a ``dual`` axis the forms are negated and the signature swapped,
    which realizes the dual representation as conjugate matrices.
    """
    return _generator_power(group, gen, 1, dual)


def rho_matrix(group: DiscriminantGroup, g: MetaplecticElement, dual: bool = False) -> np.ndarray:
    """Full matrix of the representation at g, via its generator word."""
    out = np.eye(group.order, dtype=complex)
    for kind, power in word_decompose(g).tokens:
        out = out @ _generator_power(group, kind, power, dual)
    return out


# ---------------------------------------------------------------------------
# representation vectors

@dataclass(frozen=True)
class Axis:
    group: DiscriminantGroup
    dual: bool = False

    def __repr__(self):
        star = "*" if self.dual else ""
        return f"Axis(|D|={self.group.order}{star})"


class RepVector:
    """Finitely supported vector in a tensor product of group algebras C[D].

    Keys of ``coeffs`` are tuples of group-element coordinate tuples, one per
    axis.  Treated as immutable after construction.
    """

    def __init__(self, axes, coeffs=None):
        self.axes = tuple(axes)
        self.coeffs = dict(coeffs or {})
        for key in self.coeffs:
            if len(key) != len(self.axes):
                raise IndexMismatch(f"key {key} has arity {len(key)}, "
                                    f"expected {len(self.axes)}")
            for elt, ax in zip(key, self.axes):
                divs = ax.group.elementary_divisors
                if not isinstance(elt, tuple) or len(elt) != len(divs) \
                        or any(not (0 <= c < d) for c, d in zip(elt, divs)):
                    raise IndexMismatch(
                        f"component {elt} is not a reduced element of the axis group")

    @classmethod
    def basis_vector(cls, axes, key):
        return cls(axes, {tuple(key): 1.0 + 0j})

    def get(self, key) -> complex:
        return self.coeffs.get(tuple(key), 0j)

    def __add__(self, other):
        if self.axes != other.axes:
            raise IndexMismatch("adding vectors over different index spaces")
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0j) + v
        return RepVector(self.axes, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, factor: complex):
        return RepVector(self.axes, {k: factor * v for k, v in self.coeffs.items()})

    def tensor(self, other):
        out = {}
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                out[k1 + k2] = out.get(k1 + k2, 0j) + v1 * v2
        return RepVector(self.axes + other.axes, out)

    def norm_inf(self) -> float:
        return max((abs(v) for v in self.coeffs.values()), default=0.0)

    def __repr__(self):
        return f"RepVector(axes={list(self.axes)}, nnz={len(self.coeffs)})"


def rho_apply(g: MetaplecticElement, vec: RepVector) -> RepVector:
    """Apply the tensor-product representation at g to a vector.

    Each axis transforms under the Weil representation of its group (the
    conjugate representation on dual axes).
    """
    elements = [ax.group.elements() for ax in vec.axes]
    out = vec.coeffs
    for kind, power in reversed(word_decompose(g).tokens):
        for i, ax in enumerate(vec.axes):
            mat = _generator_power(ax.group, kind, power, ax.dual)
            new = {}
            for key, val in out.items():
                column = mat[:, ax.group.index(key[i])]
                for row in np.nonzero(np.abs(column) > 1e-16)[0]:
                    new_key = key[:i] + (elements[i][row],) + key[i + 1:]
                    new[new_key] = new.get(new_key, 0j) + column[row] * val
            out = new
    return RepVector(vec.axes, out)


# ---------------------------------------------------------------------------
# glue intertwiners and the pairing

def _locate_axis(vec: RepVector, group: DiscriminantGroup, axis: int | None) -> int:
    if axis is not None:
        return axis
    hits = [i for i, ax in enumerate(vec.axes) if ax.group == group]
    if len(hits) != 1:
        raise IndexMismatch(
            f"expected exactly one axis over |D|={group.order}, found {len(hits)}")
    return hits[0]


def up_arrow(gm: GlueMap, vec: RepVector, axis: int | None = None) -> RepVector:
    """C[D_big] -> C[D_small]: spread each basis vector over its glue fiber."""
    i = _locate_axis(vec, gm.big_disc, axis)
    new_axes = vec.axes[:i] + (Axis(gm.small_disc, vec.axes[i].dual),) + vec.axes[i + 1:]
    out = {}
    for key, val in vec.coeffs.items():
        for delta in gm.up[key[i]]:
            new_key = key[:i] + (delta,) + key[i + 1:]
            out[new_key] = out.get(new_key, 0j) + val
    return RepVector(new_axes, out)


def down_arrow(gm: GlueMap, vec: RepVector, axis: int | None = None) -> RepVector:
    """C[D_small] -> C[D_big]: collapse glue cosets, kill non-orthogonal indices."""
    i = _locate_axis(vec, gm.small_disc, axis)
    new_axes = vec.axes[:i] + (Axis(gm.big_disc, vec.axes[i].dual),) + vec.axes[i + 1:]
    out = {}
    for key, val in vec.coeffs.items():
        gamma = gm.down.get(key[i])
        if gamma is None:
            continue
        new_key = key[:i] + (gamma,) + key[i + 1:]
        out[new_key] = out.get(new_key, 0j) + val
    return RepVector(new_axes, out)


def down_matrix(gm: GlueMap) -> np.ndarray:
    """The 0/1 matrix of down_arrow, rows D_big and columns D_small in element
    order; up_arrow is its transpose."""
    mat = np.zeros((gm.big_disc.order, gm.small_disc.order))
    for delta, gamma in gm.down.items():
        mat[gm.big_disc.index(gamma), gm.small_disc.index(delta)] = 1.0
    return mat


def pair(u: RepVector, v: RepVector, groups=None):
    """Bilinear pairing contracting matching axes of u against v.

    For each group to contract, u must carry exactly one axis over it and v
    exactly one axis of the opposite duality; matching indices multiply and
    sum.  Defaults to contracting every group that admits such a match.
    Returns a scalar when no axes remain, otherwise a RepVector over the
    leftover axes (u's first, then v's).
    """
    if groups is None:
        groups = []
        for ax in u.axes:
            u_hits = [a for a in u.axes if a.group == ax.group]
            v_hits = [a for a in v.axes if a.group == ax.group and a.dual != ax.dual]
            if len(u_hits) == 1 and len(v_hits) == 1:
                groups.append(ax.group)
        if not groups:
            raise IndexMismatch("no contractible axes between the two vectors")
    u_idx, v_idx = [], []
    for group in groups:
        iu = [i for i, ax in enumerate(u.axes) if ax.group == group]
        if len(iu) != 1:
            raise IndexMismatch("ambiguous axis match for pairing")
        du = u.axes[iu[0]].dual
        iv = [i for i, ax in enumerate(v.axes)
              if ax.group == group and ax.dual != du]
        if len(iv) != 1:
            raise IndexMismatch("no unique complementary axis for pairing")
        u_idx.append(iu[0])
        v_idx.append(iv[0])
    u_rest = [i for i in range(len(u.axes)) if i not in u_idx]
    v_rest = [i for i in range(len(v.axes)) if i not in v_idx]
    out_axes = tuple(u.axes[i] for i in u_rest) + tuple(v.axes[i] for i in v_rest)
    v_by_match = {}
    for kv, cv in v.coeffs.items():
        v_by_match.setdefault(tuple(kv[i] for i in v_idx), []).append((kv, cv))
    out = {}
    for ku, cu in u.coeffs.items():
        for kv, cv in v_by_match.get(tuple(ku[i] for i in u_idx), ()):
            key = tuple(ku[i] for i in u_rest) + tuple(kv[i] for i in v_rest)
            out[key] = out.get(key, 0j) + cu * cv
    if not out_axes:
        return out.get((), 0j)
    return RepVector(out_axes, out)


def identity_vector(group: DiscriminantGroup) -> RepVector:
    """Sum of e_d (x) e*_d over D: the identity of End(C[D]) under duality."""
    axes = (Axis(group, dual=False), Axis(group, dual=True))
    return RepVector(axes, {(d, d): 1.0 + 0j for d in group.elements()})


def reindex_axis(vec: RepVector, axis_index: int, new_group: DiscriminantGroup,
                 new_dual: bool) -> RepVector:
    """Reindex one axis through the canonical element identification.

    Elements are matched by their dual-vector lifts (the underlying quotient
    sets agree); this is how a vector over the group of a rescaled lattice is
    viewed as a dual-axis vector over the original group.
    """
    mapping = element_identification(vec.axes[axis_index].group, new_group)
    new_axes = vec.axes[:axis_index] + (Axis(new_group, new_dual),) \
        + vec.axes[axis_index + 1:]
    out = {}
    for key, val in vec.coeffs.items():
        new_key = key[:axis_index] + (mapping(key[axis_index]),) + key[axis_index + 1:]
        out[new_key] = out.get(new_key, 0j) + val
    return RepVector(new_axes, out)
