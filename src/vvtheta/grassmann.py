"""Orthogonal splittings of L_R and polynomials adapted to them.

A Grassmannian point is a splitting L_R = v+ (+) v- into a positive and a
negative definite subspace.  Its spanning data is read as exact rationals
(exact.rational), and its norm forms, derived from the Gram data of the span
of v+, are exact: int rows d Q+- from one fraction-free elimination, with
no Fraction matrix in between; the orthonormalized adapted basis (used only
to evaluate polynomials) is floating point.  Polynomials live in the
adapted coordinates of a specific point: the first block of variables spans
v+, the second v-.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from operator import mul

import numpy as np

from . import exact
from .errors import (
    IncompatibleSublattices,
    MismatchedSignature,
    NonHomogeneousPolynomial,
    NotPositiveDefiniteSpan,
    WrongDimension,
)
from .lattice import Lattice, Sublattice


class VectorPair:
    """Two vectors of L_R organized as a column pair (alpha; beta).

    Each entry is read by exact.rational when the pair is made, so a
    VectorPair is exact and as_pair hands it on as it is.  ``key`` is every
    entry's (numerator, denominator), alpha first, made with the pair: the
    pair's part of the key of a table in GrassmannPoint.tables
    (theta.ThetaFamily).
    """

    def __init__(self, alpha, beta):
        self.alpha = tuple(map(exact.rational, alpha))
        self.beta = tuple(map(exact.rational, beta))
        self.key = tuple(x.as_integer_ratio() for x in self.alpha + self.beta)

    @classmethod
    def zero(cls, rank: int):
        """The zero pair of a rank, made once per rank."""
        pair = _ZERO_PAIRS.get(rank)
        if pair is None:
            pair = _ZERO_PAIRS[rank] = cls((Fraction(0),) * rank, (Fraction(0),) * rank)
        return pair

    @cached_property
    def integer_rows(self) -> tuple:
        """((A, a), (B, b)): alpha = A / a and beta = B / b, int rows over
        their least common denominators, read off ``key``."""
        n = len(self.alpha)
        return tuple(_ratio_row(self.key[i:i + n]) for i in (0, n))


def _ratio_row(ratios) -> tuple:
    """(row, den): the int row over the least common denominator of the
    (numerator, denominator) ratios."""
    den = math.lcm(1, *[q for _p, q in ratios])
    return [p * (den // q) for p, q in ratios], den


#: VectorPair.zero's pairs, by rank
_ZERO_PAIRS: dict = {}


def as_pair(pair, rank: int) -> VectorPair:
    """The shift pair as a VectorPair: None is zero, a VectorPair is itself,
    and (alpha, beta) is read entry by entry."""
    if pair is None:
        return VectorPair.zero(rank)
    alpha, beta = (pair.alpha, pair.beta) if isinstance(pair, VectorPair) else pair
    if len(alpha) != rank or len(beta) != rank:
        raise WrongDimension("vector pair does not match the lattice rank")
    return pair if isinstance(pair, VectorPair) else VectorPair(alpha, beta)


class GrassmannPoint:
    """A splitting v = v+ (+) v- of L_R, with its norm forms as int rows.

    ``integer_forms`` is (d, N+, N-): N+- / d are the Gram matrices
    Q+- = P+-^T G P+- of the plus and minus norms, with d the least
    denominator, so N+ + N- = d G and N+ - N- = d times the majorant.  They
    come from the span of v+ in Python ints (_span_forms) unless the caller
    passes them.  ``majorant_np`` is the majorant in floats, each entry the
    correctly rounded (N+ - N-)_ij / d.

    The caller guarantees rational orthogonal spans with orthonormal
    ``adapted`` blocks.  ``same_majorant`` is a point with the same
    majorant (swap_blocks_point): its float majorant, elimination levels,
    count_shell and the majorant part of build_data are read, not remade.

    ``tables`` holds the term tables built on the point (theta.ThetaFamily),
    so they live as long as the point does.
    """

    def __init__(self, lattice: Lattice, span_plus, span_minus,
                 adapted: np.ndarray, integer_forms=None,
                 same_majorant: "GrassmannPoint | None" = None):
        self.lattice = lattice
        self.span_plus = [tuple(map(Fraction, v)) for v in span_plus]  # may be empty
        self.span_minus = [tuple(map(Fraction, v)) for v in span_minus]
        self.adapted = adapted          # n x n float, +block then -block columns
        self.integer_forms = integer_forms or _span_forms(self.span_plus, lattice.gram_rows())[1]
        self.same_majorant = same_majorant
        self.tables = {}
        if same_majorant is not None:
            self.majorant_np = same_majorant.majorant_np
        else:
            d, n_plus, n_minus = self.integer_forms
            # int true division rounds once, as float(Fraction) does
            self.majorant_np = np.array(
                [[(p - m) / d for p, m in zip(rp, rm)] for rp, rm in zip(n_plus, n_minus)]
            ) if lattice.rank else np.zeros((0, 0))

    @property
    def dim_plus(self) -> int:
        return len(self.span_plus)

    @property
    def dim_minus(self) -> int:
        return len(self.span_minus)

    @cached_property
    def majorant_levels(self) -> tuple:
        """((A_0, c_0), ..., (A_n, c_n)): A_i / c_i is the Schur complement of the
        integer majorant N+ - N- on coordinates 0..n-1-i.

        Fraction-free Gaussian elimination from the last coordinate: before
        the gcd, c_i is the trailing principal minor of order i and A_i is c_i
        times the Schur complement of the trailing i x i block, so A_0 = N+ - N-,
        c_0 = 1 and the pivot A_i[-1, -1] is c_{i+1}; every quotient is exact
        (Bareiss, Math. Comp. 22, 1968).  Each level is then divided by the
        gcd of c_i and the entries of A_i; object arrays of Python ints.
        """
        if self.same_majorant is not None:
            return self.same_majorant.majorant_levels
        _d, n_plus, n_minus = self.integer_forms
        levels = [([[p - m for p, m in zip(rp, rm)] for rp, rm in zip(n_plus, n_minus)], 1)]
        for _ in range(self.lattice.rank):
            a, c = levels[-1]
            last = a[-1]
            levels.append(([[(last[-1] * x - row[-1] * y) // c for x, y in zip(row, last[:-1])]
                            for row in a[:-1]], last[-1]))
        reduced = []
        for a, c in levels:
            g = math.gcd(c, *(x for row in a for x in row))
            reduced.append((np.array([[x // g for x in row] for row in a],
                                     dtype=object).reshape(len(a), len(a)), c // g))
        return tuple(reduced)

    @cached_property
    def build_data(self) -> "PointBuildData":
        """The point-only integer data of a term-table build, made once."""
        return PointBuildData(self)

    @cached_property
    def count_shell(self) -> tuple | None:
        """shell_count_weights of the float majorant, made once."""
        if self.same_majorant is not None:
            return self.same_majorant.count_shell
        return shell_count_weights(self.majorant_np)

    def adapted_coords(self, vec) -> np.ndarray:
        """Coordinates w.r.t. the orthonormalized adapted basis (floats)."""
        v = np.array([float(x) for x in vec])
        g = self.lattice.gram_np()
        t = self.adapted.T @ (g @ v)
        t[self.dim_plus:] *= -1.0
        return t

    def __repr__(self):
        return f"GrassmannPoint(dim+={self.dim_plus}, dim-={self.dim_minus})"


#: the largest int64
_INT64_MAX = int(np.iinfo(np.int64).max)


def _carry_weights(levels, i) -> tuple:
    """(u, v) with u p Q_i = u (p x + b)^2 + v Q_{i+1} for a node of level i.

    x is the node's last coordinate W_{n-1-i}, Q_i = W_h^T A_i W_h its form
    value on the head W_h = (W_0, ..., W_{n-1-i}), Q_{i+1} its parent's,
    p = A_i[-1, -1] and b = A_i[-1, :-1] . (W_0, ..., W_{n-2-i}).  The Schur
    identity p Q_i = (p x + b)^2 + (c_i p / c_{i+1}) Q_{i+1} holds whatever
    common factor GrassmannPoint.majorant_levels divided out of a level.
    Taking it times c_{i+1} / gcd(c_{i+1}, c_i p) makes u and v coprime
    integers.
    """
    (form, c), c_up = levels[i], levels[i + 1][1]
    weight = c * int(form[-1, -1])
    h = math.gcd(c_up, weight)
    return c_up // h, weight // h


class PointBuildData:
    """What an exact term-table build reads of its point alone.

    Every field depends on the splitting only, not on a shift pair or a
    bound, so GrassmannPoint.build_data makes it once and every table on the
    point reuses it (theta._IntegerForms does the pair and bound work).

    - ``d``, ``abs_forms``: the d of integer_forms and the entrywise
      absolute values |N+|, |N-|, each as one row-major list of ints.
    - ``exact_form``: (sign, support, form) for the one of N+ (sign +1) and
      N- (sign -1) with fewer nonzero entries: the coordinates its nonzero
      entries read, and its block on them, int64 where every entry fits.

    The rest reads the majorant N_maj = N+ - N- alone, so a point with a
    ``same_majorant`` takes it from that point's build data, with no
    elimination of its own:

    - ``inverse_diagonal``: (p_i, q) with (N_maj^-1)_ii = p_i / q, from one
      integer elimination of N_maj (exact.inverse_diagonal).
    - ``levels64``: the int64 copy of each level of majorant_levels (None
      where an entry does not fit), and ``largest`` each level's greatest
      |entry|.
    - ``steps``: per level i < n, (u, v, |A_i[-1]|, r) with (u, v) the carry
      weights (_carry_weights), the last row's absolute values as ints and
      r = c_i / (c_{i+1} p) as a float, the walk's interval factor.
    """

    def __init__(self, point: GrassmannPoint):
        n = point.lattice.rank
        d, n_plus, n_minus = point.integer_forms
        self.d = d
        self.abs_forms = tuple([abs(x) for row in form for x in row] for form in (n_plus, n_minus))
        nonzero = [sum(map(bool, (x for row in form for x in row)))
                   for form in (n_plus, n_minus)]
        sign, form = (1, n_plus) if nonzero[0] <= nonzero[1] else (-1, n_minus)
        support = [i for i in range(n) if any(form[i])]
        block = [[form[i][j] for j in support] for i in support]
        first = support[0] if support else 0
        # a run of coordinates is read as a slice, a view of the rows
        index = (slice(first, first + len(support))
                 if support == list(range(first, first + len(support)))
                 else np.array(support, dtype=np.intp))
        self.exact_form = (sign, index, np.array(block, dtype=_int_dtype(block)).reshape(
            len(support), len(support)))
        if point.same_majorant is not None:
            same = point.same_majorant.build_data
            self.inverse_diagonal, self.largest, self.levels64, self.steps = (
                same.inverse_diagonal, same.largest, same.levels64, same.steps)
            return
        self.inverse_diagonal = exact.inverse_diagonal(
            [[p - m for p, m in zip(rp, rm)] for rp, rm in zip(n_plus, n_minus)])
        levels = point.majorant_levels
        self.largest = tuple(max(map(abs, a.flat), default=0) for a, _c in levels)
        self.levels64 = tuple(a.astype(np.int64) if top <= _INT64_MAX else None
                              for (a, _c), top in zip(levels, self.largest))
        self.steps = tuple((*_carry_weights(levels, i), [abs(x) for x in a[-1].tolist()],
                            float(c) / (float(levels[i + 1][1]) * float(a[-1, -1])))
                           for i, (a, c) in enumerate(levels[:n]))


def _int_dtype(rows):
    """int64 when every entry of the int rows fits, else object (Python ints)."""
    return np.int64 if all(abs(x) <= _INT64_MAX for row in rows for x in row) else object


def shell_count_weights(q: np.ndarray) -> tuple | None:
    """(binomials, volume) for counting lattice points by majorant shells,
    None at rank 0.

    A ball q(x) <= s^2 holds at most V_n (s + rho)^n / covol points, with
    rho half the sum of the cell edge lengths sqrt(q_ii) and covol =
    sqrt(det q), so the shell density is volume (s + rho)^(n-1) with
    ``volume`` = V_n n / covol; ``binomials`` lists the (binomial, rho
    power) pairs of (s + rho)^(n-1).
    """
    n = q.shape[0]
    if n == 0:
        return None
    det = float(np.linalg.det(q))
    covol = math.sqrt(max(det, 1e-300))
    rho = 0.5 * sum(math.sqrt(q[i, i]) for i in range(n))
    vol_n = math.pi ** (n / 2) / math.gamma(n / 2 + 1)
    return [(math.comb(n - 1, k), rho ** (n - 1 - k)) for k in range(n)], vol_n * n / covol


def _span_forms(span, g) -> tuple:
    """(C, (d, N+, N-)) for the splitting whose v+ is spanned by the rows B
    of ``span``, over the Gram rows g; raises NotPositiveDefiniteSpan unless
    B G B^T is positive definite.

    Each row of B is scaled to integers: Q+ = C^T (C B^T)^-1 C with C = B G
    does not change under a change of basis of the span.  C and P = C B^T
    are int products, and one fraction-free elimination of P gives its
    determinant p, the int rows p P^-1 and the definiteness test
    (exact.definite_inverse).  Then N+ = C^T (p P^-1) C and N- = p G - N+
    are p Q+-, and dividing p, N+ and N- by their gcd leaves the least d.
    """
    n = len(g)
    if not span:
        return [], (1, [[0] * n for _ in range(n)], [list(row) for row in g])
    b = [exact.integer_rows([v])[0][0] for v in span]
    c = [[sum(map(mul, row, col)) for col in g] for row in b]  # G is symmetric
    p = [[sum(map(mul, row, v)) for v in b] for row in c]
    inverse = exact.definite_inverse(p)
    if inverse is None:
        if exact.mat_det(p) == 0:
            raise NotPositiveDefiniteSpan(
                "the span has a singular Gram matrix: the vectors are dependent, "
                "or they span an isotropic or degenerate subspace")
        raise NotPositiveDefiniteSpan("span is not positive definite")
    det, adj = inverse
    c_cols = list(zip(*c))
    adj_c_cols = list(zip(*[[sum(map(mul, row, col)) for col in c_cols] for row in adj]))
    n_plus = [[sum(map(mul, ci, acj)) for acj in adj_c_cols] for ci in c_cols]
    h = math.gcd(det, *(x for row in n_plus for x in row))
    d = det // h
    n_plus = [[x // h for x in row] for row in n_plus]
    n_minus = [[d * x - y for x, y in zip(rg, rp)] for rg, rp in zip(g, n_plus)]
    return c, (d, n_plus, n_minus)


def _gram_schmidt_block(lattice: Lattice, vectors, sign: int) -> np.ndarray:
    """Orthonormalize under sign * (.,.)_G, assumed positive definite there."""
    g = lattice.gram_np()
    out = []
    for v in vectors:
        w = np.array([float(x) for x in v])
        for b in out:
            w = w - sign * float(b @ g @ w) * b
        nrm = sign * float(w @ g @ w)
        if nrm <= 0:
            raise NotPositiveDefiniteSpan("Gram-Schmidt hit a non-definite direction")
        out.append(w / math.sqrt(nrm))
    return np.array(out).T if out else np.zeros((lattice.rank, 0))


def make_grassmann_point(lattice: Lattice, span_plus) -> GrassmannPoint:
    """Build the splitting with v+ spanned by the given vectors.

    The vectors must span a positive definite subspace of dimension exactly
    sig_plus; v- is computed as the orthogonal complement, which on a
    nondegenerate lattice then has dimension sig_minus and is negative
    definite (Sylvester's law of inertia).  Each entry is read by
    exact.rational, so the integer norm forms are exact; the products of
    _span_forms serve the definiteness check, the complement and the forms.
    """
    n = lattice.rank
    span_plus = [list(v) for v in span_plus]
    if len(span_plus) != lattice.sig_plus:
        raise WrongDimension(
            f"need {lattice.sig_plus} spanning vectors for v+, got {len(span_plus)}")
    if any(len(v) != n for v in span_plus):
        raise WrongDimension("spanning vector length does not match the rank")
    span_plus = [[exact.rational(x) for x in v] for v in span_plus]
    c_plus, forms = _span_forms(span_plus, lattice.gram_rows())
    # v- = kernel of B+^T G (all vectors orthogonal to v+)
    span_minus = exact.rational_kernel(c_plus) if span_plus else exact.identity(n)
    plus_cols = _gram_schmidt_block(lattice, span_plus, +1)
    minus_cols = _gram_schmidt_block(lattice, span_minus, -1)
    adapted = np.hstack([plus_cols, minus_cols]) if n else np.zeros((0, 0))
    return GrassmannPoint(lattice, span_plus, span_minus, adapted, forms)


def swap_blocks_point(point: GrassmannPoint, neg_lattice: Lattice) -> GrassmannPoint:
    """The same splitting viewed on the rescaled lattice with -G.

    v- becomes the positive block, with forms (d, -N-, -N+), and the
    majorant (N+ - N-) / d is the point's own, so its majorant data are
    read from the point (GrassmannPoint's ``same_majorant``), with no
    elimination.  The adapted basis is reused with its blocks reordered so
    polynomial coordinates stay literally comparable.  Raises
    MismatchedSignature unless ``neg_lattice`` has Gram matrix exactly -G.
    """
    if neg_lattice.gram != tuple(tuple(-x for x in row) for row in point.lattice.gram):
        raise MismatchedSignature("swap_blocks_point needs the lattice with Gram matrix -G")
    d, n_plus, n_minus = point.integer_forms
    forms = (d, [[-x for x in row] for row in n_minus], [[-x for x in row] for row in n_plus])
    adapted = np.hstack([point.adapted[:, point.dim_plus:],
                         point.adapted[:, :point.dim_plus]]) \
        if point.lattice.rank else point.adapted
    return GrassmannPoint(neg_lattice, point.span_minus, point.span_plus, adapted, forms, point)


def direct_sum_grassmann(m_sub: Sublattice, mperp_sub: Sublattice,
                         u: GrassmannPoint, u_perp: GrassmannPoint) -> GrassmannPoint:
    """Splitting of L from splittings of a sublattice and its complement.

    v+ = u+ (+) u_perp+ and v- = u- (+) u_perp-, in ambient coordinates.  The
    adapted basis concatenates the lifted adapted bases blockwise (u's plus
    variables first, then u_perp's, same for minus), which fixes the variable
    order for product polynomials.  The forms come from the lifted span of
    v+, as for any span (_span_forms).
    """
    if m_sub.ambient != mperp_sub.ambient:
        raise IncompatibleSublattices("sublattices have different ambients")
    if u.lattice != m_sub.lattice or u_perp.lattice != mperp_sub.lattice:
        raise IncompatibleSublattices("Grassmannian points do not match the sublattices")
    amb = m_sub.ambient
    bm = m_sub.basis_matrix()
    bp = mperp_sub.basis_matrix()

    def lift(basis, vecs):
        return [tuple(exact.mat_vec(basis, list(map(Fraction, v)))) for v in vecs]

    span_plus = lift(bm, u.span_plus) + lift(bp, u_perp.span_plus)
    span_minus = lift(bm, u.span_minus) + lift(bp, u_perp.span_minus)
    bm_np = np.array([[float(x) for x in row] for row in bm]) if m_sub.rank else \
        np.zeros((amb.rank, 0))
    bp_np = np.array([[float(x) for x in row] for row in bp]) if mperp_sub.rank else \
        np.zeros((amb.rank, 0))
    cols = []
    for j in range(u.dim_plus):
        cols.append(bm_np @ u.adapted[:, j])
    for j in range(u_perp.dim_plus):
        cols.append(bp_np @ u_perp.adapted[:, j])
    for j in range(u.dim_minus):
        cols.append(bm_np @ u.adapted[:, u.dim_plus + j])
    for j in range(u_perp.dim_minus):
        cols.append(bp_np @ u_perp.adapted[:, u_perp.dim_plus + j])
    adapted = np.array(cols).T if cols else np.zeros((amb.rank, 0))
    return GrassmannPoint(amb, span_plus, span_minus, adapted)


# ---------------------------------------------------------------------------
# polynomials in adapted coordinates

class Polynomial:
    """Complex polynomial in the adapted coordinates of a splitting.

    Monomial keys are exponent tuples over all nvars_plus + nvars_minus
    variables (plus block first).
    """

    def __init__(self, nvars_plus: int, nvars_minus: int, monomials):
        self.nvars_plus = nvars_plus
        self.nvars_minus = nvars_minus
        self.monomials = {tuple(k): complex(v) for k, v in monomials.items()
                          if complex(v) != 0}
        nv = nvars_plus + nvars_minus
        for k in self.monomials:
            if len(k) != nv or any(e < 0 for e in k):
                raise NonHomogeneousPolynomial(f"bad exponent tuple {k}")

    @property
    def nvars(self) -> int:
        return self.nvars_plus + self.nvars_minus

    def is_zero(self) -> bool:
        return not self.monomials

    def evaluate(self, coords) -> complex:
        total = 0j
        for expo, coeff in self.monomials.items():
            term = coeff
            for e, t in zip(expo, coords):
                if e:
                    term *= t ** e
            total += term
        return total

    def laplacian(self) -> "Polynomial":
        out = {}
        for expo, coeff in self.monomials.items():
            for i, e in enumerate(expo):
                if e >= 2:
                    new = list(expo)
                    new[i] = e - 2
                    key = tuple(new)
                    out[key] = out.get(key, 0j) + coeff * e * (e - 1)
        return Polynomial(self.nvars_plus, self.nvars_minus, out)

    def scale(self, factor: complex) -> "Polynomial":
        return Polynomial(self.nvars_plus, self.nvars_minus,
                          {k: factor * v for k, v in self.monomials.items()})

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.monomials)
        for k, v in other.monomials.items():
            out[k] = out.get(k, 0j) + v
        return Polynomial(self.nvars_plus, self.nvars_minus, out)

    def multiply(self, other: "Polynomial") -> "Polynomial":
        out = {}
        for k1, v1 in self.monomials.items():
            for k2, v2 in other.monomials.items():
                key = tuple(a + b for a, b in zip(k1, k2))
                out[key] = out.get(key, 0j) + v1 * v2
        return Polynomial(self.nvars_plus, self.nvars_minus, out)

    def conjugate(self) -> "Polynomial":
        return Polynomial(self.nvars_plus, self.nvars_minus,
                          {k: v.conjugate() for k, v in self.monomials.items()})

    @cached_property
    def _value(self) -> tuple:
        # what equality compares: the type, the bidegree of a homogeneous
        # polynomial, the block sizes and the monomials; none is mutated
        return (type(self), getattr(self, "degrees", None), self.nvars_plus,
                self.nvars_minus, frozenset(self.monomials.items()))

    @cached_property
    def _hash(self) -> int:
        return hash(self._value)

    @cached_property
    def series(self) -> tuple:
        """laplacian_series of the polynomial, made once."""
        return tuple(laplacian_series(self))

    @cached_property
    def read_coordinates(self) -> frozenset:
        """The coordinates some monomial reads (a nonzero exponent), made once."""
        return frozenset(i for expo in self.monomials for i, e in enumerate(expo) if e)

    @cached_property
    def is_real(self) -> bool:
        """Whether every coefficient is real, made once."""
        return all(c.imag == 0 for c in self.monomials.values())

    @cached_property
    def abs_terms(self) -> list:
        """(|c|, degree) of every monomial c t^expo, made once."""
        return [(abs(coeff), sum(expo)) for expo, coeff in self.monomials.items()]

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self is other or self._value == other._value

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Polynomial({len(self.monomials)} monomials over {self.nvars} vars)"


class HomogeneousPolynomial(Polynomial):
    """Polynomial with fixed bidegree (m+, m-) across the two blocks."""

    def __init__(self, degrees, nvars_plus, nvars_minus, monomials):
        super().__init__(nvars_plus, nvars_minus, monomials)
        self.degrees = (int(degrees[0]), int(degrees[1]))
        for expo in self.monomials:
            dp = sum(expo[:nvars_plus])
            dm = sum(expo[nvars_plus:])
            if (dp, dm) != self.degrees:
                raise NonHomogeneousPolynomial(
                    f"monomial {expo} has bidegree ({dp},{dm}), expected {self.degrees}")

    def conjugate(self) -> "HomogeneousPolynomial":
        return HomogeneousPolynomial(self.degrees, self.nvars_plus, self.nvars_minus,
                                     {k: v.conjugate() for k, v in self.monomials.items()})

    def scale(self, factor: complex) -> "HomogeneousPolynomial":
        return HomogeneousPolynomial(self.degrees, self.nvars_plus, self.nvars_minus,
                                     {k: factor * v for k, v in self.monomials.items()})


def constant_poly(nvars_plus: int, nvars_minus: int, value=1.0) -> HomogeneousPolynomial:
    key = (0,) * (nvars_plus + nvars_minus)
    return HomogeneousPolynomial((0, 0), nvars_plus, nvars_minus, {key: value})


def coordinate_poly(nvars_plus: int, nvars_minus: int, index: int) -> HomogeneousPolynomial:
    """The linear polynomial t_index in adapted coordinates."""
    key = [0] * (nvars_plus + nvars_minus)
    key[index] = 1
    degrees = (1, 0) if index < nvars_plus else (0, 1)
    return HomogeneousPolynomial(degrees, nvars_plus, nvars_minus, {tuple(key): 1.0})


def laplacian_series(poly: Polynomial) -> list[Polynomial]:
    """[p, Lap p / (1! ), Lap^2 p / 2!, ...] until zero; for 1/y expansions."""
    out = [poly]
    term = poly
    fact = 1.0
    j = 0
    while True:
        term = term.laplacian()
        j += 1
        fact *= j
        if term.is_zero():
            break
        out.append(term.scale(1.0 / fact))
    return out


def block_swapped_poly(poly: Polynomial) -> Polynomial:
    """Reindex monomials when the plus and minus blocks trade places."""
    out = {}
    np_, nm = poly.nvars_plus, poly.nvars_minus
    for expo, coeff in poly.monomials.items():
        out[expo[np_:] + expo[:np_]] = coeff
    if isinstance(poly, HomogeneousPolynomial):
        return HomogeneousPolynomial((poly.degrees[1], poly.degrees[0]), nm, np_, out)
    return Polynomial(nm, np_, out)


def lift_product(p_u: Polynomial, p_uperp: Polynomial) -> Polynomial:
    """Product polynomial on the direct-sum splitting.

    Variable order matches direct_sum_grassmann: plus block is (u plus vars,
    u_perp plus vars), minus block is (u minus vars, u_perp minus vars).
    """
    ap, am = p_u.nvars_plus, p_u.nvars_minus
    bp, bm = p_uperp.nvars_plus, p_uperp.nvars_minus
    out = {}
    for k1, v1 in p_u.monomials.items():
        for k2, v2 in p_uperp.monomials.items():
            key = k1[:ap] + k2[:bp] + k1[ap:] + k2[bp:]
            out[key] = out.get(key, 0j) + v1 * v2
    if isinstance(p_u, HomogeneousPolynomial) and isinstance(p_uperp, HomogeneousPolynomial):
        degrees = (p_u.degrees[0] + p_uperp.degrees[0],
                   p_u.degrees[1] + p_uperp.degrees[1])
        return HomogeneousPolynomial(degrees, ap + bp, am + bm, out)
    return Polynomial(ap + bp, am + bm, out)

