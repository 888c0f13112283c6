"""Weil representations of the metaplectic double cover of SL2(Z).

The representation acts on C[D] for a discriminant group D; basis vectors are
indexed by group elements.  General elements act through a generator word
(Euclidean reduction on the bottom row), with the square-root branch of a
product fixed exactly by a sign rule on the bottom rows.  T^n and Z^n act
through the group's integer tables, and S, the one matrix kept, is N-th roots
of unity at N b (Scheithauer, IMRN 2009; Stromberg, Math. Z. 275, 2013).  A
dual axis is acted on by the conjugate action, the same as using the
rescaled lattice with inverted pairings.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .discforms import DiscriminantGroup, GlueMap, _read_only, two_pi_e, unit_roots
from .errors import IndexMismatch, VvthetaError


def _quarter_turns(c: int, d: int) -> int:
    """arg(c tau + d) in quarter turns, coarsely: 1 or -1 off the real axis
    (c > 0 or c < 0, tau in the upper half-plane), exactly 0 or 2 on it."""
    if c:
        return 1 if c > 0 else -1
    return 0 if d > 0 else 2


class MetaplecticElement:
    """(A, phi) with A in SL2(Z) and phi(tau) = branch * principal sqrt(c tau + d)."""

    def __init__(self, a: int, b: int, c: int, d: int, branch: int = 1):
        self.a = a
        self.b = b
        self.c = c
        self.d = d
        self.branch = branch  # +1 or -1
        if a * d - b * c != 1:
            raise VvthetaError(f"matrix {self.matrix()} is not in SL2(Z)")
        if branch not in (1, -1):
            raise VvthetaError("branch must be +1 or -1")

    def _value(self) -> tuple:
        return (self.a, self.b, self.c, self.d, self.branch)

    def __eq__(self, other):
        if other.__class__ is not MetaplecticElement:
            return NotImplemented
        return self._value() == other._value()

    def __hash__(self):
        return hash(self._value())

    def __repr__(self):
        return f"MetaplecticElement{self._value()}"

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


def _word_product(tokens) -> MetaplecticElement:
    """The ordered product of a word of (kind, n) tokens in T^n, S, Z^k."""
    out = MP_IDENTITY
    for kind, n in tokens:
        if kind == "T":
            out = out * MetaplecticElement(1, n, 0, 1, 1)
        elif kind == "S":
            out = out * MP_S
        elif kind == "Z":
            out = out * mp_power(MP_Z, n % 4)
        else:
            raise VvthetaError(f"unknown token {kind}")
    return out


def word_decompose(g: MetaplecticElement) -> tuple[tuple[str, int], ...]:
    """Express g as a word in T^n, S and a trailing Z power: a tuple of
    (kind, n) tokens whose ordered product is g.

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
    word = tuple(tokens)
    got = _word_product(word)
    if got.matrix() != g.matrix():
        raise VvthetaError("word decomposition failed to reproduce the matrix")
    if got.branch != g.branch:
        word += (("Z", 2),)
        got = _word_product(word)
    if (got.matrix(), got.branch) != (g.matrix(), g.branch):
        raise VvthetaError("word decomposition failed to reproduce the branch")
    return word


# ---------------------------------------------------------------------------
# the generator action

def _s_matrix(group: DiscriminantGroup, dual: bool) -> np.ndarray:
    """S = e((b- - b+)/8)/sqrt|D| zeta[-bN], zeta[k] = e(k/N) at the level N,
    conjugated on a dual axis: the one Weil matrix, built once per group and
    duality and kept read-only in ``group.weil_matrices``."""
    mats = group.weil_matrices
    if dual not in mats:
        level = group.level_forms[0]
        sig = group.lattice.sig_minus - group.lattice.sig_plus
        mat = two_pi_e(Fraction(sig, 8)) / math.sqrt(group.order) \
            * unit_roots(level)[-group.b_table % level]
        mats[dual] = _read_only(mat.conj() if dual else mat)
    return mats[dual]


def _token_action(group: DiscriminantGroup, dual: bool, kind: str, n: int,
                  arr: np.ndarray, i: int) -> np.ndarray:
    """arr with T^n, S or Z^n applied along its dimension i, indexed by D in
    element order: T^n multiplies the entry at x by zeta[n qN(x)], Z^n takes
    the entry at -x when n is odd and multiplies by e(n (b- - b+)/4), and S
    is _s_matrix.  A dual axis takes the complex conjugate of each."""
    if kind == "S":
        return (arr.swapaxes(i, -1) @ _s_matrix(group, dual).T).swapaxes(i, -1)
    if kind == "T":
        level = group.level_forms[0]
        key = (n % level, dual)
        if key not in group.t_phases:
            phase = unit_roots(level)[key[0] * group.q_table % level]
            group.t_phases[key] = _read_only(phase.conj() if dual else phase)
        return arr * group.t_phases[key].reshape((-1,) + (1,) * (arr.ndim - i - 1))
    if kind == "Z":
        phase = unit_roots(4)[n * (group.lattice.sig_minus - group.lattice.sig_plus) % 4]
        arr = arr.take(group.neg_table, axis=i) if n % 2 else arr
        return arr * (phase.conjugate() if dual else phase)
    raise VvthetaError(f"unknown generator {kind}")


def rho_generator(group: DiscriminantGroup, gen: str, dual: bool = False) -> np.ndarray:
    """Matrix of the representation on C[D] for a generator T, S or Z.

    With a ``dual`` axis the forms are negated and the signature swapped,
    which realizes the dual representation as conjugate matrices.
    """
    return _token_action(group, dual, gen, 1, np.eye(group.order, dtype=complex), 0)


def rho_matrix(group: DiscriminantGroup, g: MetaplecticElement, dual: bool = False) -> np.ndarray:
    """Full matrix of the representation at g: its word acting on the identity."""
    out = np.eye(group.order, dtype=complex)
    for kind, power in reversed(word_decompose(g)):
        out = _token_action(group, dual, kind, power, out, 0)
    return out


# ---------------------------------------------------------------------------
# representation vectors

class Axis:
    def __init__(self, group: DiscriminantGroup, dual: bool = False):
        self.group = group
        self.dual = dual

    def __eq__(self, other):
        if other.__class__ is not Axis:
            return NotImplemented
        return self.dual == other.dual and self.group == other.group

    def __hash__(self):
        return hash((self.group, self.dual))

    def __repr__(self):
        star = "*" if self.dual else ""
        return f"Axis(|D|={self.group.order}{star})"


def _key_index(axes, key) -> tuple:
    """Array index of a key of reduced element tuples, validated in one pass."""
    if len(key) != len(axes):
        raise IndexMismatch(f"key {key} has arity {len(key)}, expected {len(axes)}")
    out = []
    for elt, ax in zip(key, axes):
        divs = ax.group.elementary_divisors
        if not isinstance(elt, tuple) or len(elt) != len(divs):
            raise IndexMismatch(f"component {elt} has the wrong arity for its axis")
        pos = 0
        for c, d in zip(elt, divs):
            if not 0 <= c < d:
                raise IndexMismatch(f"component {elt} is not reduced modulo {divs}")
            pos = pos * d + c
        out.append(pos)
    return tuple(out)


class RepVector:
    """Vector in C[D_1] (x) ... (x) C[D_k]: a dense ``array`` of shape (|D_1|, ...,
    |D_k|), each dimension in its group's element order.  The constructor
    validates each key of ``coeffs`` (a reduced element tuple per axis); ``coeffs``
    reads back the nonzero entries, computed once: treat the vector as immutable."""

    def __init__(self, axes, coeffs=None):
        self.axes = tuple(axes)
        self.array = np.zeros([ax.group.order for ax in self.axes], dtype=complex)
        for key, val in (coeffs or {}).items():
            self.array[_key_index(self.axes, tuple(key))] = val

    @classmethod
    def from_array(cls, axes, array) -> "RepVector":
        """The vector with this dense array (not copied)."""
        out = cls.__new__(cls)
        out.axes, out.array = tuple(axes), np.asarray(array, dtype=complex)
        if out.array.shape != tuple(ax.group.order for ax in out.axes):
            raise IndexMismatch(f"array shape {out.array.shape} does not match {out.axes}")
        return out

    @classmethod
    def basis_vector(cls, axes, key):
        return cls(axes, {tuple(key): 1.0 + 0j})

    @cached_property
    def coeffs(self) -> MappingProxyType:
        elements = [ax.group.elements() for ax in self.axes]
        return MappingProxyType({tuple(e[i] for e, i in zip(elements, idx)):
                                 complex(self.array[idx])
                                 for idx in zip(*np.nonzero(self.array))})

    def get(self, key) -> complex:
        return complex(self.array[_key_index(self.axes, tuple(key))])

    def __add__(self, other):
        if self.axes != other.axes:
            raise IndexMismatch("adding vectors over different index spaces")
        return RepVector.from_array(self.axes, self.array + other.array)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, factor: complex):
        return RepVector.from_array(self.axes, factor * self.array)

    def tensor(self, other):
        return RepVector.from_array(self.axes + other.axes,
                                    np.multiply.outer(self.array, other.array))

    def norm_inf(self) -> float:
        return float(np.abs(self.array).max())

    def __repr__(self):
        return f"RepVector(axes={list(self.axes)}, nnz={np.count_nonzero(self.array)})"


def rho_apply(g: MetaplecticElement, vec: RepVector) -> RepVector:
    """Apply the tensor-product representation at g to a vector.

    Each axis transforms under the Weil representation of its group (the
    conjugate representation on dual axes): each token of g's word, last
    first, acts along every axis, as in rho_matrix.
    """
    arr = vec.array
    for kind, power in reversed(word_decompose(g)):
        for i, ax in enumerate(vec.axes):
            arr = _token_action(ax.group, ax.dual, kind, power, arr, i)
    return RepVector.from_array(vec.axes, arr)


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
    """C[D_big] -> C[D_small]: spread each basis vector over its glue fibre,
    one scatter through ``gm.fibres``; indices off H-perp stay zero."""
    i = _locate_axis(vec, gm.big_disc, axis)
    head, shape = (slice(None),) * i, vec.array.shape
    out = np.zeros(shape[:i] + (gm.small_disc.order,) + shape[i + 1:], dtype=complex)
    out[head + (gm.fibres,)] = vec.array[head + (slice(None), None)]
    axes = vec.axes[:i] + (Axis(gm.small_disc, vec.axes[i].dual),) + vec.axes[i + 1:]
    return RepVector.from_array(axes, out)


def down_arrow(gm: GlueMap, vec: RepVector, axis: int | None = None) -> RepVector:
    """C[D_small] -> C[D_big]: sum each glue fibre, one ``take`` of
    ``gm.fibres``; indices off H-perp are dropped."""
    i = _locate_axis(vec, gm.small_disc, axis)
    axes = vec.axes[:i] + (Axis(gm.big_disc, vec.axes[i].dual),) + vec.axes[i + 1:]
    return RepVector.from_array(axes, vec.array.take(gm.fibres, axis=i).sum(axis=i + 1))


def pair(u: RepVector, v: RepVector, groups):
    """Bilinear pairing contracting the axes of u and v over ``groups``.

    For each group to contract, u must carry exactly one axis over it and v
    exactly one axis of the opposite duality (IndexMismatch otherwise);
    matching indices multiply and sum.  Returns a scalar when no axes
    remain, otherwise a RepVector over the leftover axes (u's first, then
    v's).
    """
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
    out_axes = tuple(ax for i, ax in enumerate(u.axes) if i not in u_idx) \
        + tuple(ax for i, ax in enumerate(v.axes) if i not in v_idx)
    # what np.tensordot does, without its argument checks: the contracted
    # axes to the end of u and the front of v, then one np.dot
    u_rest = [i for i in range(u.array.ndim) if i not in u_idx]
    v_rest = [i for i in range(v.array.ndim) if i not in v_idx]
    size = math.prod(u.array.shape[i] for i in u_idx)
    out_shape = [u.array.shape[i] for i in u_rest] + [v.array.shape[i] for i in v_rest]
    out = np.dot(u.array.transpose(u_rest + u_idx).reshape(-1, size),
                 v.array.transpose(v_idx + v_rest).reshape(size, -1)).reshape(out_shape)
    if not out_axes:
        return complex(out)
    return RepVector.from_array(out_axes, out)


def identity_vector(group: DiscriminantGroup) -> RepVector:
    """Sum of e_d (x) e*_d over D: the identity of End(C[D]) under duality."""
    axes = (Axis(group, dual=False), Axis(group, dual=True))
    return RepVector.from_array(axes, np.eye(group.order, dtype=complex))
