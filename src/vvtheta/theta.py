"""Truncated Siegel theta functions and the mixed two-lattice theta.

Sums run over dual-lattice cosets, truncated by the positive definite
majorant: a vector enters iff majorant(lambda + beta) <= 2 * bound, so both
q-exponents of an included term are at most the bound.  Enumeration is one
level-synchronous Fincke-Pohst walk over all cosets of a sum: each level
extends every surviving partial vector in one numpy batch and keeps a node
iff an exact integer test on the Bareiss-eliminated majorant says some
extension can meet the bound, so no vector is lost to rounding.  The
omitted mass is bounded by a one-dimensional integral against shell
volumes (the ``tail_estimate``).  Splittings and shift vectors are exact
rationals (exact.rational), so term data keeps exact exponents and
identities between two constructions can be checked coefficientwise, not
just numerically.  Every sum is one TermTable of numpy arrays (int64
numerators for the exact data), built once and evaluated over many tau in
one batch.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from functools import cache, cached_property
from operator import mul

import numpy as np

from . import exact
from .discforms import (
    DiscriminantGroup,
    disc_product_iso,
    discriminant_group,
    element_identification,
    glue_map,
)
from .errors import (
    BoundTooLarge,
    DuplicateCosetKey,
    NegativeBound,
    NonHomogeneousPolynomial,
    ParseError,
    TauNotInUpperHalfPlane,
    VectorNotInComplement,
)
from .grassmann import (
    GrassmannPoint,
    HomogeneousPolynomial,
    VectorPair,
    as_pair,
    block_swapped_poly,
    direct_sum_grassmann,
    lift_product,
    swap_blocks_point,
)
from .lattice import (
    Lattice,
    OverlatticeEmbedding,
    Sublattice,
    direct_sum,
    orthogonal_complement,
    rescale,
)
from .weil import (
    Axis,
    MetaplecticElement,
    RepVector,
    _product_tail,
    down_arrow,
    identity_vector,
    pair as rep_pair,
    rho_apply,
    up_arrow,
)

TWO_PI = 2.0 * math.pi
_EIGHT_PI = 8.0 * math.pi
_SQRT_PI = math.sqrt(math.pi)

#: default cap on the nodes of one level of the enumeration walk
#: (overridden by $THETA_MAX_VECTORS)
DEFAULT_MAX_VECTORS = 200_000


def _max_vectors() -> int:
    """$THETA_MAX_VECTORS as a count; ParseError unless it is a non-negative
    decimal integer."""
    raw = os.environ.get("THETA_MAX_VECTORS")
    if raw is None:
        return DEFAULT_MAX_VECTORS
    if not (raw.isascii() and raw.isdigit()):
        raise ParseError("THETA_MAX_VECTORS must be a non-negative decimal integer, "
                         f"got {raw!r}")
    return int(raw)


# ---------------------------------------------------------------------------
# lattice point enumeration

#: the signs of the two ends of a walk interval (_fincke_pohst)
_SIGNS = np.array([[-1.0], [1.0]])


def _fincke_pohst(levels, steps, bounds, scale, offsets: np.ndarray, box):
    """Every W = scale * m + offsets[:, k] (m integral) with W^T A_0 W <= bounds[0].

    Returns ``(coset, rows, value)``: the vectors W as the columns of the
    (n x N) array ``rows``, the index k of each one's offset and its value
    W^T A_0 W, ordered by k, then by W_0, W_1, ..., W_{n-1}.
    ``levels[i] = (A_i, c_i)`` with A_i / c_i the Schur complement of
    A_0 / c_0 on the leading coordinates W_h = (W_0, ..., W_{n-1-i})
    (GrassmannPoint.majorant_levels), so the least value of W^T A_0 W / c_0
    over the trailing coordinates is W_h^T A_i W_h / c_i.  ``bounds[i]`` is
    c_i T.  A level's data is int64 or Python ints (an object array), so its
    test is exact.  ``steps`` is the point's PointBuildData.steps, and
    ``offsets`` (n x k) and ``box`` (2 x n x k) hold one row per coordinate,
    so a level reads its coordinate's rows, not a 2-D gather.

    The walk is Fincke-Pohst, one level at a time: it starts at coordinate 0
    and extends every surviving partial vector at once, in order, keeping a
    node of level i iff W_h^T A_i W_h <= bounds[i].  That test is exact, so
    no extension of a dropped node is a member, and level 0 is the
    membership test itself.  A node's value is carried down from its
    parent's by the Schur identity (grassmann._carry_weights), so its
    children are the x with
    A_i[-1, -1] (x + b / A_i[-1, -1])^2 <= c_i (bounds[i+1] - Q) / c_{i+1},
    b = A_i[-1, :-1] . W_h and Q the parent's form value.  Floats compute
    that interval from those exact integers, and it is widened by one
    integer on each side and clipped to ``box`` (per coordinate, minus the
    least and the greatest m of each offset), so floats only propose
    children: the interval is nonempty over the reals and inside the box's
    reach, so its ends are off by a few ulps of numbers below 2^33, far less
    than the widening.  Raises
    BoundTooLarge before a level would hold more than $THETA_MAX_VECTORS
    nodes.  Partial vectors are (k x nodes) arrays, so every numpy loop runs
    over the nodes, and a level makes a fixed number of numpy calls: one
    cumsum gives the number of candidates and each parent's first slot, a
    candidate's W is its parent's base plus scale times its slot, and the
    parents' data reach their candidates by one repeat each.  The first
    level's parents are the k cosets with no coordinates yet, so b and Q are
    0 there: its interval is -offset +- one float, with no product, gather
    or carried value, and the same bits.
    """
    n, k = offsets.shape
    cap = _max_vectors()
    if bounds[n] < 0:
        k = 0
    # row 0 holds each node's coset, the rows after it its coordinates so far
    nodes = np.arange(k)[None, :]
    value = np.zeros(k, dtype=levels[n][0].dtype)
    for i in range(n - 1, -1, -1):
        form = levels[i][0]
        pivot = form[-1, -1]
        u, v, _row, ratio = steps[i]
        col = n - 1 - i
        if col:
            coset = nodes[0]
            # the parent level may hold the other integer type (_IntegerForms)
            if value.dtype != form.dtype:
                value = value.astype(form.dtype)
            lin = form[-1, :-1] @ nodes[1:]
            off = offsets[col].take(coset)
            clip = box[:, col].take(coset, axis=1)
            # each int, int64 or Python, is cast to float inside the ufunc, as
            # astype(float) would cast it
            mid = np.divide(lin, -float(pivot), dtype=float, casting="unsafe") - off
            half = np.sqrt(np.multiply(bounds[i + 1] - value, ratio, dtype=float,
                                       casting="unsafe"))
            # both ends at once, the lower one negated: -(mid - half) is
            # half - mid, bit for bit
            ends = _SIGNS * mid + half
        else:
            off, clip = offsets[0, :k], box[:, 0, :k]
            # -0.0 - off is -off and float(Q) = 0.0, so the same floats
            ends = math.sqrt(float(max(bounds[n], 0)) * ratio) - _SIGNS * off
        # one floor gives -(least m) + 1 and (greatest m) + 1, each widened,
        # then clipped
        reach = np.minimum(np.floor(ends / scale).astype(np.int64) + 1, clip)
        counts = np.maximum(reach[1] + reach[0] + 1, 0)
        ends = counts.cumsum()
        total = int(ends[-1]) if len(ends) else 0
        if total > cap:
            raise BoundTooLarge(
                f"enumeration level {i} would hold {total} > {cap} nodes; "
                "raise THETA_MAX_VECTORS or lower the bound")
        # the candidate in slot s has m = s - (ends - counts) - reach[0]: its
        # parent's least m, plus its place among the parent's candidates
        x = ((scale * (counts - ends - reach[0]) + off).repeat(counts)
             + np.arange(0, scale * total, scale))
        t = pivot * (x if x.dtype == form.dtype else x.astype(form.dtype))
        if col:
            t += lin.repeat(counts)
        # u = 1 on most levels (grassmann._carry_weights)
        square = t * t if u == 1 else u * t * t
        if col:
            square += (v * value).repeat(counts)
        square //= u * pivot
        keep = (square <= bounds[i]).nonzero()[0]
        value = square.take(keep)
        nodes = np.concatenate((nodes.repeat(counts, axis=1), x[None])).take(keep, axis=1)
    return nodes[0].copy(), nodes[1:], value


#: exact term arithmetic runs in int64 only when every numerator it can form
#: is at most this; otherwise BoundTooLarge is raised before enumerating (a
#: level of the walk that could pass it runs on Python ints instead)
INT64_SAFE = 2 ** 62


def _lin(x: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """x_r^T mat for every column x_r of the (k x N) array x, as (m x N).

    Each output is accumulated from zero one coordinate of x at a time, in
    coordinate order.  Unlike a BLAS product, a column's result never depends
    on which other columns share the batch, so a vector gets the same floats
    in every table.
    """
    out = np.zeros((mat.shape[1], x.shape[1]), dtype=np.result_type(x, mat))
    for i in range(mat.shape[0]):
        out += mat[i][:, None] * x[i]
    return out


def _quad(x: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """x_r^T mat x_r for every column x_r of the integer (int64 or Python-int)
    array x, in three numpy calls at any rank.  Integer sums are exact, so
    their order moves nothing; the caller keeps every partial sum inside
    int64 (_IntegerForms bounds x^T |mat| x).  A float or complex x or mat
    raises TypeError: their sums would depend on numpy's order."""
    if x.dtype.kind not in "iO" or mat.dtype.kind not in "iO":
        raise TypeError(f"_quad sums integers only, not {x.dtype} and {mat.dtype}")
    return (mat @ x * x).sum(axis=0)


class _Cosets:
    """The cosets of one theta sum and what a term-table build reads of them
    alone, made once per discriminant group (_siegel_cosets) or splitting
    (SplitData.mixed_cosets), as GrassmannPoint.build_data is per point.

    ``keys`` are the cosets' keys, sorted (DuplicateCosetKey if two are
    equal), and coset k is C_k / ``denominator``, the int rows C_k over the
    coset vectors' least common denominator.  ``array`` holds the C_k
    coordinate-major in int64 (None past INT64_SAFE, where every build
    raises), ``largest`` is their greatest |entry| and ``ranges`` each
    coordinate's least and greatest entry.  The steps of a build
    (_IntegerForms) read, with X_k = G C_k and q_k = C_k . X_k: ``deltas``
    and ``x_deltas``, the C_k - C_0 and X_k - X_0 for k >= 1, ``x0`` = X_0,
    ``norm_deltas`` the q_k - q_0, ``x_step`` the gcd of the X_k - X_0
    entries and ``form_step`` = gcd(G_ii, 2 G_ij).  A theta builder also
    gives the evaluator's ``axes`` and the tail's ``translates``, the number
    of classes a coset's certificate counts for.
    """

    def __init__(self, lat: Lattice, cosets, axes=None, translates=None):
        cosets = sorted(cosets, key=lambda coset: coset[0])
        for (key, _c), (next_key, _d) in zip(cosets, cosets[1:]):
            if key == next_key:
                raise DuplicateCosetKey(f"two cosets of one theta sum under the key {key}")
        n = lat.rank
        self.rank = n
        self.gram = lat.gram
        self.axes, self.translates = axes, translates
        self.keys = tuple(key for key, _c in cosets)
        rows, self.denominator = exact.integer_rows([vec for _k, vec in cosets])
        self.largest = max((abs(x) for row in rows for x in row), default=0)
        self.ranges = [(min(col), max(col)) for col in zip(*rows)] if rows else [(0, 0)] * n
        self.array = (np.array(rows, dtype=np.int64).reshape(len(rows), n).T.copy()
                      if self.largest <= INT64_SAFE else None)
        xs = [[sum(map(mul, g, c)) for g in self.gram] for c in rows]
        norms = [sum(map(mul, c, x)) for c, x in zip(rows, xs)]
        c0, self.x0, q0 = (rows[0], xs[0], norms[0]) if rows else ([0] * n, [0] * n, 0)
        self.deltas = [[a - b for a, b in zip(c, c0)] for c in rows[1:]]
        self.x_deltas = [[a - b for a, b in zip(x, self.x0)] for x in xs[1:]]
        self.norm_deltas = [q - q0 for q in norms[1:]]
        self.x_step = math.gcd(*(x for row in self.x_deltas for x in row))
        g = self.gram
        self.form_step = math.gcd(*(g[i][i] for i in range(n)),
                                  *(2 * g[i][j] for i in range(n) for j in range(i)))


class _IntegerForms:
    """The int64 data that keeps one table build exact, set up in Python ints.

    Every shifted vector w = coset + m + beta is W / D with W integral (D the
    common denominator of the cosets and beta), and P+-^T G P+- = N+- / d
    (GrassmannPoint.integer_forms).  Then a = W^T N+ W / (2 d D^2), b likewise
    with N-, membership is W^T N_maj W <= T = floor(2 bound d D^2) with
    N_maj = N+ - N-, and for alpha = A / Da the phase (lam + beta/2, alpha) is
    (2W - D beta) . (G A) / (2 D Da).  ``levels`` and ``bounds`` are the
    Bareiss elimination of N_maj and its per-level bounds c_i T for the walk.

    A member has |W_i| <= w_max_i = isqrt(T (N_maj^-1)_ii); the walk's box
    keeps every W inside that range.  Construction bounds every numerator
    the table can form from it, and raises BoundTooLarge if one could pass
    INT64_SAFE, before any vector is enumerated.  A level of the walk whose
    numbers could pass it (large projection denominators make c_i T grow
    with the level) runs on Python ints instead, so its test stays exact.

    Whatever depends on the point alone (|N+-|, the diagonal of N_maj^-1,
    the levels with their int64 copies, largest entries and carry weights,
    and the sparser exact form) is the point's PointBuildData, and whatever
    depends on the cosets alone is their _Cosets, each made once; the pair's
    int rows come with the VectorPair.  A build does only the work of its
    shift pair and bound: with W = s_k + D m, s_k = t C_k + D beta and
    t = D / denominator, it also finds the steps of the phase and the
    frequency numerators from the s_k alone.
    """

    def __init__(self, cosets: _Cosets, point: GrassmannPoint, pair: VectorPair, bound):
        n = cosets.rank
        data = point.build_data
        d = data.d
        (int_alpha, da), (int_beta, db) = pair.integer_rows
        # D = lcm(denominator, db); with beta = 0, D is the cosets' and t = 1
        big_d = math.lcm(cosets.denominator, db)
        t = big_d // cosets.denominator
        shifted = any(int_beta)
        d_beta = [b * (big_d // db) for b in int_beta] if shifted else [0] * n
        # the bound is the binary number it is: a float's ratio is exact
        num, den = (bound if type(bound) in (float, int) else Fraction(bound)).as_integer_ratio()
        threshold = 2 * num * d * big_d * big_d // den
        w_max = [math.isqrt(max(threshold * p // q, 0)) for p, q in data.inverse_diagonal]
        gram = cosets.gram
        g_alpha = [sum(map(mul, row, int_alpha)) for row in gram] if any(int_alpha) else None

        # the quadratic forms, the phase, 2W - D beta, t C and the offsets s_k,
        # whose largest |entry| is at a coordinate's least or greatest C_k
        twice = [2 * w + abs(b) for w, b in zip(w_max, d_beta)]
        squares = [x * y for x in w_max for y in w_max]
        largest = max([sum(map(mul, squares, form)) for form in data.abs_forms] + twice
                      + [t * cosets.largest, 0,
                         sum(map(mul, twice, map(abs, g_alpha))) if g_alpha else 0]
                      + ([abs(t * c + b) for (low, high), b in zip(cosets.ranges, d_beta)
                          for c in (low, high)] if shifted else []))
        if largest > INT64_SAFE:
            raise BoundTooLarge(
                f"exact theta terms could need integers up to {largest} > 2^62 "
                f"(shift denominator {big_d}, projection denominator {d}); "
                "lower the bound or simplify the shift vectors")

        self.d = d
        self.denominator = big_d
        self.alpha_denominator = da
        self.exact_form = data.exact_form
        self.steps = data.steps
        # None when beta = 0: the offsets are the cosets' own rows
        self.d_beta = np.array(d_beta, dtype=np.int64) if shifted else None
        # a phase numerator is 2 W . (G A) - D beta . (G A), so any two differ
        # by a multiple of 2 D gcd(G A) or of 2 (s_k - s_0) . (G A) =
        # 2 t (C_k - C_0) . (G A); with alpha = 0 (g_alpha None) every one is 0
        self.g_alpha = self.beta_phase = None
        self.phase_step = 0
        if g_alpha:
            self.g_alpha = np.array(g_alpha, dtype=np.int64)
            self.beta_phase = sum(map(mul, d_beta, g_alpha))
            self.phase_step = math.gcd(
                2 * big_d * math.gcd(*g_alpha),
                *[2 * t * sum(map(mul, c, g_alpha)) for c in cosets.deltas])
        # a + b numerators are d W^T G W with W^T G W = Q(s_k) + 2 D m . (G s_k)
        # + D^2 Q(m), Q(m) a multiple of gcd(G_ii, 2 G_ij), G s_k = t X_k + G D beta
        # and Q(s_k) - Q(s_0) = t^2 (q_k - q_0) + 2 t (X_k - X_0) . D beta: so any
        # two differ by a multiple of d times the gcd of those terms
        beta_dot = (lambda v: sum(map(mul, v, d_beta))) if shifted else (lambda v: 0)
        self.freq_step = d * math.gcd(
            big_d * big_d * cosets.form_step, 2 * big_d * t * cosets.x_step,
            *[2 * big_d * (t * x + beta_dot(row)) for x, row in zip(cosets.x0, gram)],
            *[t * t * q + 2 * t * beta_dot(x)
              for q, x in zip(cosets.norm_deltas, cosets.x_deltas)])
        # coordinate-major, one row per coordinate, as the walk reads them;
        # |t C| <= largest, so no product overflows
        self.shifts = (cosets.array * t + self.d_beta[:, None] if shifted
                       else cosets.array)
        levels = point.majorant_levels
        self.bounds = [c * threshold for _a, c in levels]
        # a level runs in int64 when its entries, its bound and the walk's
        # numbers fit: b and t = p x + b are at most e, then u t^2 + v Q with
        # the parent's Q <= bounds[i+1] (grassmann._carry_weights), and u p;
        # otherwise it keeps Python ints, so every test of the walk stays exact
        self.levels = []
        for i, (a, c) in enumerate(levels):
            level_max = max(abs(self.bounds[i]), data.largest[i])
            if i < n:
                u, v, last, _ratio = data.steps[i]
                e = sum(map(mul, last, w_max))
                level_max = max(level_max, u * e * e + v * self.bounds[i + 1], u * last[-1])
            self.levels.append((data.levels64[i] if level_max <= INT64_SAFE else a, c))
        # minus the least and the greatest m_i with |D m_i + shift_i| <= w_max_i
        w = np.array(w_max, dtype=np.int64)[:, None]
        self.box = (w + _PLUS_MINUS * self.shifts) // big_d


#: the box's two sides, (w + s) // D and (w - s) // D (_IntegerForms)
_PLUS_MINUS = np.array([1, -1]).reshape(2, 1, 1)


# ---------------------------------------------------------------------------
# the term table and its evaluation

def _fraction_map(num, den: int) -> dict:
    """Fraction(x, den) for each distinct integer x in ``num``."""
    return {x: Fraction(x, den) for x in set(np.ravel(num).tolist())}


#: work arrays of one TermTable.evaluate chunk hold about this many complex
#: entries (128 KiB), so a chunk's arrays stay in cache
_EVAL_CHUNK = 2 ** 13


class TermTable:
    """Every summand of one truncated theta sum, as numpy arrays.

    Row r is the vector lambda_r of class ``keys[key_index[r]]``; rows are
    sorted by key, then by vector, and every key has at least one row, so
    each key's rows are one contiguous segment.  The row's vector, exponents
    and phase are exact: ``vectors`` / ``vector_den``, ``a_num`` /
    ``ab_den``, ``b_num`` / ``ab_den`` and ``phase_num`` / ``phase_den``
    (int64 numerators, Python-int denominators); ``phase_step`` divides
    ``phase_den`` and the difference of any two phase numerators, and
    ``freq_step`` the difference of any two frequency numerators
    a_num + b_num (1 says nothing more).  Key k's rows are ``starts[k]`` up
    to ``starts[k + 1]``.
    ``poly[r, j]`` multiplies y^{-j} and already contains the
    (-1/(8 pi))^j / j! factor of the Gaussian smoothing operator.  ``a - b``
    is half the majorant (>= 0), ``a + b`` half the norm: the row's
    frequency in x.  The first ``evaluate`` groups the rows by their exact
    frequency numerator and folds the phase into the coefficients
    (_factors); the table keeps them for every later call.  A build knows
    both steps from its shifts and the starts from its coset counts
    (build_term_table), so a fresh table reads none of them off its rows.
    """

    def __init__(self, keys: tuple, key_index: np.ndarray, vectors: np.ndarray,
                 vector_den: int, a_num: np.ndarray, b_num: np.ndarray, ab_den: int,
                 phase_num: np.ndarray, phase_den: int, poly: np.ndarray,
                 prefactor_exponent: Fraction, phase_step: int, freq_step: int,
                 starts: np.ndarray):
        self.keys = keys
        self.key_index = key_index
        self.vectors = vectors
        self.vector_den = vector_den
        self.a_num = a_num
        self.b_num = b_num
        self.ab_den = ab_den
        self.phase_num = phase_num
        self.phase_den = phase_den
        self.phase_step = phase_step
        self.freq_step = freq_step
        self.starts = starts
        self.poly = poly
        self.prefactor_exponent = prefactor_exponent
        self._power = float(prefactor_exponent)

    def __len__(self) -> int:
        return self.key_index.shape[0]

    def rows_within(self, bound) -> int:
        """The number of rows with a - b (half the majorant) at most
        ``bound``, counted exactly."""
        # b - a >= -floor(bound ab_den), in int64: a >= 0 >= b (_factors)
        threshold = math.floor(Fraction(bound) * self.ab_den)
        return int(np.count_nonzero(self.b_num - self.a_num >= -min(threshold, 2 ** 63 - 1)))

    def vector_tuples(self) -> list[tuple]:
        """Every row's vector lambda, as a tuple of Fractions."""
        rows = self.vectors.tolist()
        frac = _fraction_map(rows, self.vector_den)
        return [tuple(frac[x] for x in row) for row in rows]

    def q_series(self) -> dict:
        """Exact-exponent q-series of every key of a positive definite table,
        as {key index: {exponent: coefficient}}.

        The exponent of a row is half its norm, (a_num + b_num) / ab_den; a
        coefficient sums the rows' poly[:, 0] in row order, and zero sums are
        dropped.
        """
        num = self.a_num + self.b_num
        frac = _fraction_map(num, self.ab_den)
        out: dict = {}
        for k, x, c in zip(self.key_index.tolist(), num.tolist(), self.poly[:, 0].tolist()):
            if c != 0:
                series = out.setdefault(k, {})
                e = frac[x]
                series[e] = series.get(e, 0j) + c
        return {k: {e: c for e, c in series.items() if c != 0} for k, series in out.items()}

    @cached_property
    def _factors(self) -> tuple:
        """The tau-independent factors of evaluate, made on its first call.

        Returns ``(coeff, rate, omega, group, starts, power)``.  ``coeff[j]``
        is ``poly[:, j] e(-phase)``, e(t) = exp(2 pi i t), with the phase
        reduced mod 1 exactly, and ``rate`` is -2 pi (a - b).  The rows are
        grouped by the exact numerator a_num + b_num of their frequency
        (_distinct, by counting in steps of ``freq_step``): ``omega`` holds
        2 pi i (a + b) once per distinct numerator, ascending, and
        ``group[r]`` is row r's entry.  ``starts`` are the key segments'
        first rows and ``power`` is the float prefactor exponent.  e(-phase)
        takes one exp per row, or one per residue mod ``phase_step`` when
        the reduced phase numerators take few enough values (_phase_wave),
        with the same bits either way.
        """
        # a >= 0 >= b, each at most INT64_SAFE in size, so a + b and b - a fit int64
        distinct, group = _distinct(self.a_num + self.b_num, self.freq_step)
        # every numerator is at most INT64_SAFE, so past it |phase| < 1 already
        phase_num = (self.phase_num % self.phase_den if self.phase_den <= INT64_SAFE
                     else self.phase_num)
        wave = _phase_wave(phase_num, self.phase_den, self.phase_step)
        scale = TWO_PI / self.ab_den
        return (np.multiply(self.poly.T, wave, order="C"), (self.b_num - self.a_num) * scale,
                distinct * (1j * scale), group, self.starts, self._power)

    def evaluate(self, taus) -> np.ndarray:
        """Theta components at each tau, y^prefactor_exponent included.

        Returns a (len(keys), len(taus)) complex array.  Row r contributes
        (sum_j e^(y rate[r]) y^-j coeff[j, r]) e^(x omega[group[r]]) from
        the factors of _factors, each product taken left to right: a chunk
        of taus takes one real np.exp per row, one complex np.exp per
        distinct frequency and one np.add.reduceat over the key segments,
        which keeps a key's first row and adds numpy's pairwise sum of the
        rest.  A chunk's work arrays hold about _EVAL_CHUNK entries; taus
        that fit one chunk come back as its sums, transposed, with no
        output array or loop.
        """
        return self._sums(np.asarray(taus, dtype=complex).reshape(-1)).T

    def _sums(self, taus: np.ndarray) -> np.ndarray:
        """evaluate's values, transposed: the (len(taus), len(keys)) sums
        at a 1-D complex array of taus, one _chunk at a time."""
        step = max(1, _EVAL_CHUNK // max(len(self), 1))
        if len(taus) <= step:
            return self._chunk(taus)
        out = np.empty((len(taus), len(self.keys)), dtype=complex)
        for lo in range(0, len(taus), step):
            out[lo:lo + step] = self._chunk(taus[lo:lo + step])
        return out

    def _chunk(self, taus: np.ndarray) -> np.ndarray:
        """The (len(taus), len(keys)) sums of evaluate for one chunk; y^0
        is 1, so a prefactor exponent of 0 multiplies by nothing."""
        coeff, rate, omega, group, starts, power = self._factors
        x, y = taus.real[:, None], taus.imag[:, None]
        decay = np.exp(y * rate)
        values = decay * coeff[0]
        for j in range(1, len(coeff)):
            values += decay * y ** -j * coeff[j]
        values *= np.exp(x * omega).take(group, axis=1)
        sums = np.add.reduceat(values, starts, axis=1)
        if power:
            sums *= y ** power
        return sums


#: _distinct counts into slots while they number at most this many per row,
#: or at most _SLOTS_FREE in all, and sorts past that
_SLOTS_PER_ROW = 4
_SLOTS_FREE = 2 ** 13


def _distinct(num: np.ndarray, step: int) -> tuple:
    """``(values, index)``: the distinct integers of the int64 array ``num``,
    ascending, and each entry's place among them, as np.unique(num,
    return_inverse=True) gives them.

    ``step`` divides every difference of the entries (TermTable.freq_step,
    known from the build; 0 or 1 says nothing more), so every entry is
    low + g s, with low the least entry, g = step and s its slot: one
    np.bincount over the slots finds the values in order and a scatter
    ranks them, O(rows + slots), no sort.  Any such g gives the same result.
    An argsort stays where the slots are sparse (more than _SLOTS_PER_ROW
    per row and more than _SLOTS_FREE) or their range passes int64.
    """
    if not len(num):
        return num, np.zeros(0, dtype=np.intp)
    low = num.min()
    span = int(num.max()) - int(low)
    if span < 2 ** 63:
        shifted = num - low
        g = step or 1
        slots = span // g + 1
        if slots <= max(_SLOTS_PER_ROW * len(num), _SLOTS_FREE):
            slot = shifted // g if g > 1 else shifted
            present = np.bincount(slot).nonzero()[0]
            rank = np.empty(slots, dtype=np.intp)
            rank[present] = np.arange(len(present))
            return (present * g if g > 1 else present) + low, rank.take(slot)
    order = np.argsort(num)
    ranked = num[order]
    first = np.empty(len(ranked), dtype=bool)
    first[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    index = np.empty(len(ranked), dtype=np.intp)
    index[order] = first.cumsum() - 1
    return ranked[first], index


#: a residue fold's fixed numpy calls cost about as much as this many
#: complex exps, so a table folds its phases only when its residues and this
#: many fall short of its rows (_phase_wave)
_FOLD_ROWS = 256


def _residue_wave(phase_num: np.ndarray, den: int, step: int) -> np.ndarray:
    """e(-p / den) for each reduced numerator p, all in one class p0 mod
    step (0 <= p0 < step), from one exp per residue p0 + k step and one take:
    each row gets the float argument p (-2 pi i / den) it would get alone,
    so the same bits."""
    low = int(phase_num[0]) % step
    return np.exp(np.arange(low, den, step) * (-1j * TWO_PI / den)).take(phase_num // step)


def _phase_wave(phase_num: np.ndarray, den: int, step: int) -> np.ndarray:
    """e(-p / den) for each p of ``phase_num``, reduced (0 <= p < den) when
    den <= INT64_SAFE.  ``step`` divides den and every difference of the
    numerators (TermTable.phase_step, known from the build), so they lie in
    one class mod step and take at most m = den / step values: folded over
    those residues (_residue_wave) when m + _FOLD_ROWS is below the row
    count, else one exp per row."""
    if den // step + _FOLD_ROWS < len(phase_num) and den <= INT64_SAFE:
        return _residue_wave(phase_num, den, step)
    return np.exp(phase_num * (-1j * TWO_PI / den))


def _poly_matrix(series, point: GrassmannPoint, w: np.ndarray, den: int) -> np.ndarray:
    """(terms x len(series)) coefficients of y^{-j}, from the adapted
    coordinates of the columns of w / den that some monomial reads."""
    read = sorted(frozenset().union(*[poly.read_coordinates for poly in series]))
    real = all([poly.is_real for poly in series])
    coords = {}
    if read:
        h = (point.lattice.gram_np() @ point.adapted)[:, read]
        # _lin sums each output column on its own, from +0.0, so it never
        # holds -0.0 and adding a zero leaves it unchanged: leaving out the
        # unread columns and the coordinates of w that no read column uses
        # changes no float
        used = np.flatnonzero(h.any(axis=1))
        coords = dict(zip(read, _lin(w[used] / float(den), h[used])))
        for i in read:
            if i >= point.dim_plus:
                coords[i] *= -1.0
    # with real coefficients a column's sum is the real part of the complex
    # one, bit for bit, so it is summed in floats and cast as it takes its
    # factor, which then multiplies as the complex product did
    out = np.empty((len(series), w.shape[1]), dtype=complex)
    for j, poly in enumerate(series):
        col = None
        for expo, coeff in poly.monomials.items():
            coeff = coeff.real if real else coeff
            # c f1 f2 ..., taken left to right; products and sums commute
            # bit for bit, so c f1 is f1 c and 0 + t is t + 0; a monomial that
            # reads no coordinate is the number c, which numpy adds and
            # multiplies as it would a column of c
            term = coeff
            for i, e in enumerate(expo):
                if e:
                    factor = coords[i] ** e
                    term = factor * coeff if term is coeff else term * factor
            col = term + 0.0 if col is None else col + term
        np.multiply(0.0 if col is None else col, (-1.0 / (8.0 * math.pi)) ** j, out=out[j],
                    dtype=complex)
    return out.T


def build_term_table(lat: Lattice, point: GrassmannPoint, series, cosets,
                     pair_vectors=None, bound=10.0,
                     prefactor_exponent=Fraction(0)) -> TermTable:
    """Enumerate the truncated sum over every coset into one TermTable.

    ``cosets`` is the sum's _Cosets, one coset per key, made from its
    (axis key, coset vector) pairs; row data follows the shift
    pair (alpha, beta): a, b are half the plus and minus norms of
    w = lambda + beta and the phase is (lambda + beta/2, alpha).  ``series``
    is the polynomial's Laplacian series (laplacian_series).  The walk takes
    the cosets in key order and emits each one's vectors in order, so the
    rows come out in the table's order, with no sort, and each coset's row
    count gives its key's segment.  A finite negative bound gives no rows; a
    NaN or infinite one is refused as by _check_bound.
    """
    # a non-finite bound has no exact threshold
    if not -math.inf < bound < math.inf:
        _check_bound(bound)
    # every w = coset + m + beta with maj(w) <= 2 * bound, as the integers
    # W = D w, with value the exact W^T N_maj W
    forms = _IntegerForms(cosets, point, as_pair(pair_vectors, lat.rank), bound)
    index, w, value = _fincke_pohst(forms.levels, forms.steps, forms.bounds, forms.denominator,
                                    forms.shifts, forms.box)
    counts = np.bincount(index, minlength=len(cosets.keys))
    starts = counts.cumsum() - counts
    if np.count_nonzero(counts) == len(counts):
        keys, key_index = cosets.keys, index
    else:
        # a coset without rows has no key
        present = counts.nonzero()[0]
        keys = tuple(cosets.keys[i] for i in present.tolist())
        key_index = ((counts > 0).cumsum() - 1)[index]
        starts = starts[present]
    # w and lam hold one vector per column until the table is made
    lam = w if forms.d_beta is None else w - forms.d_beta[:, None]
    vector_den = forms.denominator
    ab_den = 2 * forms.d * vector_den ** 2
    # the walk's value is W^T (N+ - N-) W, exactly, so the sparser of N+ and
    # N-, read on the coordinates its entries use, gives both columns
    sign, support, form = forms.exact_form
    part = _quad(w[support], form)
    a_num, b_num = (part, part - value) if sign > 0 else (value + part, part)
    a_num, b_num = a_num.astype(np.int64, copy=False), b_num.astype(np.int64, copy=False)
    phase_den = 2 * vector_den * forms.alpha_denominator
    # |g_alpha| . (2 |W| + |D beta|) <= INT64_SAFE (_IntegerForms), so no sum
    # overflows; with alpha = 0 every numerator is 0
    phase_num = (np.zeros(len(index), dtype=np.int64) if forms.g_alpha is None
                 else 2 * (forms.g_alpha @ w) - forms.beta_phase)
    return TermTable(keys=keys, key_index=key_index, vectors=lam.T,
                     vector_den=vector_den,
                     a_num=a_num, b_num=b_num, ab_den=ab_den,
                     phase_num=phase_num, phase_den=phase_den,
                     poly=_poly_matrix(series, point, w, vector_den),
                     prefactor_exponent=(prefactor_exponent
                                         if type(prefactor_exponent) is Fraction
                                         else Fraction(prefactor_exponent)),
                     phase_step=math.gcd(phase_den, forms.phase_step),
                     freq_step=forms.freq_step, starts=starts)


def enumerate_vectors(lat: Lattice, coset, point: GrassmannPoint, beta,
                      bound) -> list[tuple]:
    """All lattice translates lambda in coset + Z^n with maj(lambda+beta) <= 2*bound.

    Every node of the walk is kept or dropped by an exact integer test, and
    floats only propose candidates (_fincke_pohst).  The coset and beta are
    read by exact.rational.
    """
    n = lat.rank
    beta = tuple(beta) if beta is not None else (Fraction(0),) * n
    cosets = _Cosets(lat, [((), [exact.rational(x) for x in coset])])
    table = build_term_table(lat, point, [], cosets, ((Fraction(0),) * n, beta), bound)
    return table.vector_tuples()


class ThetaValue:
    """Evaluated theta vector plus its truncation certificate, its tail."""

    def __init__(self, value: RepVector, tau: complex, bound: float,
                 prefactor_exponent: Fraction):
        self.value = value
        self.tau = tau
        self.bound = bound
        self.tail_estimate = value.tail
        self.prefactor_exponent = prefactor_exponent


def _upper_gamma_half_orders(x: float, count: int) -> list[float]:
    """[Gamma(1/2, x), Gamma(1, x), Gamma(3/2, x), ...]: count values, x >= 0.

    Upper incomplete Gamma from Gamma(1/2, x) = sqrt(pi) erfc(sqrt(x)) and
    Gamma(1, x) = e^-x by Gamma(a+1, x) = a Gamma(a, x) + x^a e^-x (DLMF 8.4,
    8.8).  Every term is positive, so the upward recurrence is stable;
    x^a e^-x is one exp, so no intermediate overflows.
    """
    out = [_SQRT_PI * math.erfc(math.sqrt(x)), math.exp(-x)]
    log_x = math.log(x) if x > 0 else None
    for k in range(2, count):
        a = (k - 1) / 2
        out.append(a * out[k - 2] + (math.exp(a * log_x - x) if log_x is not None else 0.0))
    return out[:count]


def _tail_shell(count_shell, series):
    """The tau-independent part of _tail_bound, or None when nothing is omitted.

    ``count_shell`` is the majorant's shell_count_weights
    (GrassmannPoint.count_shell, made once per point).  Returns
    (pieces, binomials, powers, volume, rho, degree): per series term j with
    a monomial, (j, [(|c|, degree), ...]) over its monomials
    (Polynomial.abs_terms); the (binomial, rho power) pairs of
    (s + rho)^(n-1); per s^m coefficient of the integrand, m = -1, 0, 1, ...,
    the factor 2^(m/2) and the exponent -m/2 - 1 of lam (_shell_powers);
    V_n n / covol; rho; and the largest monomial degree.  A ThetaFamily
    makes it once, on its first build, and hands it to every evaluator it
    builds.
    """
    if count_shell is None:
        return None
    binomials, volume, rho = count_shell
    pieces = [(j, poly.abs_terms) for j, poly in enumerate(series) if poly.monomials]
    if not pieces:
        return None
    degree = max(d for _j, terms in pieces for _c, d in terms)
    return pieces, binomials, _shell_powers(degree + len(binomials)), volume, rho, degree


@cache
def _shell_powers(size: int) -> tuple:
    """(2^(m/2), -m/2 - 1) for m = -1, 0, ..., size - 2 (_tail_shell)."""
    return tuple((2.0 ** (m / 2), -m / 2 - 1) for m in range(-1, size - 1))


def _tail_bound(shell, translates: int, rows: int, y: float, bound: float,
                power: float) -> float:
    """Upper bound on the omitted sum, by Abel summation against shell volumes.

    Point counts in a majorant ball of radius s are bounded by
    N_up(s) = V_n (s + rho)^n / covol per coset, with rho half the sum of
    cell edge lengths; each omitted term at r = maj/2 > bound is at most
    f(r) = pb(sqrt(2r)) e^{-2 pi y r} with pb bounding the smoothing-expanded
    polynomial monomial-wise.  With N(r) the true count, the omitted sum is
    the Stieltjes integral of f dN over r > bound, which Abel summation turns
    into -f(bound) N(bound) + int N (-f'); while f decreases past the bound,
    N <= N_up gives at most int f dN_up + f(bound) (N_up(bound) - N(bound)).
    Summed over the ``translates`` cosets, N(bound) is the table's ``rows``:
    the boundary term is f(bound) max(translates N_up(bound) - rows, 0).
    Each monomial weight s^d e^{-lam r} (lam = 2 pi y) decreases for
    r > d / lam / 2, so a bound below the largest degree over 4 pi y is
    uncertified: inf.  The integral over r > bound is evaluated in closed
    form: expanding (s + rho)^(n-1) binomially leaves pieces s^m e^{-lam r},
    each integrating to 2^(m/2) lam^(-m/2-1) Gamma(m/2+1, lam bound).
    ``shell`` is _tail_shell of the point and the series, and ``power``
    the prefactor exponent.  Only the factors that depend on y are made
    per call: (8 pi y)^-j once per series term, the powers of lam and the
    incomplete Gammas.
    """
    if shell is None:
        return 0.0
    pieces, binomials, powers, volume, rho, degree = shell
    lam = TWO_PI * y
    bound = float(bound)
    if degree > 2.0 * lam * bound:
        return math.inf
    # monomial-wise polynomial bound: sum of |c| / (8 pi y)^j * s^deg
    # shell density vol_n n (s + rho)^(n-1) / (s covol): collect s^m, m = deg + k - 1
    s = math.sqrt(2.0 * bound)
    coeffs = [0.0] * len(powers)
    edge = 0.0  # pb(s) at the bound
    for j, terms in pieces:
        factor = (1.0 / (_EIGHT_PI * y)) ** j
        for c, d in terms:
            c *= factor
            edge += c * s ** d
            for slot, (binomial, rho_power) in enumerate(binomials, d):
                coeffs[slot] += c * binomial * rho_power
    gammas = _upper_gamma_half_orders(lam * bound, len(coeffs))
    total = sum(c * h * lam ** e * g for c, (h, e), g in zip(coeffs, powers, gammas))
    total *= volume
    n = len(binomials)
    excess = translates * volume / n * (s + rho) ** n - rows
    boundary = edge * math.exp(-lam * bound) * excess if excess > 0 else 0.0
    return float(y ** power * (translates * total + boundary))


# ---------------------------------------------------------------------------
# the Siegel theta function

def _check_tau(tau: complex) -> complex:
    tau = complex(tau)
    if not (math.isfinite(tau.real) and math.isfinite(tau.imag) and tau.imag > 0):
        raise TauNotInUpperHalfPlane(f"tau = {tau}")
    return tau


def _check_bound(bound) -> None:
    # the tail certificate needs bound >= 0; the walk alone returns no rows
    if not bound >= 0:
        raise NegativeBound(f"the truncation bound must be >= 0, got {bound}")
    # an infinite bound has no exact integer threshold and no finite sum
    if bound == math.inf:
        raise BoundTooLarge("the truncation bound must be finite")


def _check_poly(poly, point: GrassmannPoint) -> HomogeneousPolynomial:
    if not isinstance(poly, HomogeneousPolynomial):
        raise NonHomogeneousPolynomial("theta functions need a bihomogeneous polynomial")
    if poly.nvars_plus != point.dim_plus or poly.nvars_minus != point.dim_minus:
        raise NonHomogeneousPolynomial(
            f"polynomial blocks ({poly.nvars_plus},{poly.nvars_minus}) do not match "
            f"the splitting ({point.dim_plus},{point.dim_minus})")
    return poly


class ThetaEvaluator:
    """The term table of a theta sum, reusable across many tau.

    Term data is tau-independent; one enumeration serves every evaluation
    point (the quadrature loops rely on this).  ``shell`` is the tail shell
    of the family that built it (_tail_shell) and ``translates`` its cosets'
    count, so a tail reads no point or polynomial, and the evaluator holds
    no reference to its family or point.  A vector's ``tail`` is the tail
    at its y, taken once per distinct y over the evaluator's life and kept
    (one float per y: the tail depends on y alone).  The evaluator keeps its
    last batch of taus, exactly, with its vectors, so a check that asks again
    for the same taus gets the same (immutable) vectors without an evaluation.
    """

    def __init__(self, table: TermTable, axes, bound, shell, translates):
        self.terms = table
        self.axes = axes
        self._shape = tuple(ax.group.order for ax in axes)
        self._size = math.prod(self._shape)
        # None when the keys are every index, in order: values need no
        # scatter.  The keys are sorted, distinct elements of the axes
        # (build_term_table), and index order is their order, so that is
        # when every index has a key
        self._positions = None
        if len(table.keys) != self._size:
            positions = []
            for key in table.keys:
                pos = 0
                for ax, x in zip(axes, key):
                    pos = pos * ax.group.order + ax.group.index(x)
                positions.append(pos)
            self._positions = np.array(positions, dtype=np.intp)
        self.prefactor_exponent = table.prefactor_exponent
        self._power = table._power
        self.bound = float(bound)
        self._shell = shell
        self._translates = translates
        self._last = (None, [])
        self._tails = {}

    def vectors(self, taus) -> list[RepVector]:
        """Theta vectors at many tau from one batched table evaluation, each
        with its tail."""
        return self._vectors([_check_tau(t) for t in taus])

    def _vectors(self, taus: list[complex]) -> list[RepVector]:
        """vectors, for taus that _check_tau has read."""
        taus = np.array(taus, dtype=complex)
        batch = taus.tobytes()
        if batch == self._last[0]:
            return list(self._last[1])
        # a fresh array, one row per tau
        dense = self.terms._sums(taus)
        if self._positions is not None:
            values, dense = dense, np.zeros((len(taus), self._size), dtype=complex)
            dense[:, self._positions] = values
        dense.flags.writeable = False
        ys = taus.imag.tolist()
        tails = self._tails
        for y in ys:
            if y not in tails:
                tails[y] = self.tail(y)
        out = [RepVector.from_array(self.axes, row.reshape(self._shape), tails[y])
               for row, y in zip(dense, ys)]
        self._last = (batch, out)
        return list(out)

    def at(self, tau: complex) -> ThetaValue:
        return self._at(_check_tau(tau))

    def _at(self, tau: complex) -> ThetaValue:
        """at, for a tau that _check_tau has read."""
        (value,) = self._vectors([tau])
        return ThetaValue(value=value, tau=tau, bound=self.bound,
                          prefactor_exponent=self.prefactor_exponent)

    def tail(self, y: float, bound=None) -> float:
        """The tail bound at y of the sum truncated at ``bound``, at most the
        table's own (None: the table's own), from the table's rows within
        it (_tail_bound)."""
        if bound is None:
            bound, rows = self.bound, len(self.terms)
        else:
            rows = self.terms.rows_within(bound)
        return _tail_bound(self._shell, self._translates, rows, y, bound, self._power)


def siegel_theta_evaluator(lat: Lattice, point: GrassmannPoint,
                           poly: HomogeneousPolynomial, pair_vectors=None,
                           bound: float = 10.0) -> ThetaEvaluator:
    """Enumerate the truncated theta sum once; evaluate at any tau later.
    A fresh build (ThetaFamily.build), not kept on the point."""
    return siegel_theta_family(lat, point, poly).build(pair_vectors, bound)


#: _siegel_cosets' cosets, by lattice
_SIEGEL_COSETS: dict = {}


def _siegel_cosets(lat: Lattice) -> _Cosets:
    """The cosets of the Siegel theta of lat, one per element of D_L, each
    keyed by the element and placed at the dual vector of its class; made
    once per lattice, with the evaluator's axis."""
    cosets = _SIEGEL_COSETS.get(lat)
    if cosets is None:
        group = discriminant_group(lat)
        elements = group.elements()
        cosets = _Cosets(lat, zip([(x,) for x in elements], group.dual_vectors(elements)),
                         (Axis(group, dual=False),), group.order)
        _SIEGEL_COSETS[lat] = cosets
    return cosets


def siegel_theta(lat: Lattice, tau: complex, point: GrassmannPoint,
                 poly: HomogeneousPolynomial, pair_vectors=None,
                 bound: float = 10.0) -> ThetaValue:
    """Generalized Siegel theta vector of a lattice at tau.

    Components are indexed by the discriminant group.  The summand for a
    dual vector lambda carries exponents a, b (half the plus/minus projected
    norms of lambda + beta), the smoothed polynomial value, and the phase
    -(lambda + beta/2, alpha); the whole sum is multiplied by
    y^(sig_minus/2 + minus-degree).  The term table is the one
    siegel_theta_family keeps on ``point``, so a later call on the same
    point, inputs, shift pair and bound enumerates nothing.
    """
    tau = _check_tau(tau)
    return siegel_theta_family(lat, point, poly).evaluator(pair_vectors, bound)._at(tau)


# ---------------------------------------------------------------------------
# split data for a primitive sublattice

class SplitData:
    """Everything attached to the splitting L > M (+) Mperp.

    ``gm`` is the glue map of L as an overlattice of the inner direct sum
    M (+) Mperp (glue = C^{-1} for C = [basis_M | basis_Mperp]);
    ``split_m`` is the D_sum -> D_M map of disc_product_iso, and
    ``pair_of_inner`` sends each D_sum element to its flat (D_M, D_Mperp)
    index.  Row j of ``push_index`` holds the flat (D_M, D_Mperp) indices
    of the glue fibre over the j-th element of D_L.
    """

    def __init__(self, ambient: Lattice, m_sub: Sublattice, mperp_sub: Sublattice, gm,
                 d_m: DiscriminantGroup, d_perp: DiscriminantGroup,
                 d_inner: DiscriminantGroup, d_l: DiscriminantGroup, split_m,
                 pair_of_inner: np.ndarray):
        self.ambient = ambient
        self.m_sub = m_sub
        self.mperp_sub = mperp_sub
        self.gm = gm
        self.d_m = d_m
        self.d_perp = d_perp
        self.d_inner = d_inner
        self.d_l = d_l
        self.split_m = split_m
        self.pair_of_inner = pair_of_inner
        self.push_index = pair_of_inner.take(gm.fibres)

    @cached_property
    def mixed_cosets(self) -> _Cosets:
        """The cosets of the mixed theta on the complement, made on its first
        build: one per element of the glue-orthogonal subgroup H-perp, keyed
        by its (D_L, D_M) indices and placed at the complement part of its
        dual vector, with the evaluator's axes."""
        hperp = self.gm.domain  # in element order
        keys = zip(map(tuple, self.gm.image.tolist()),
                   map(tuple, self.split_m.apply(hperp).tolist()))
        c_rank = self.m_sub.rank
        return _Cosets(self.mperp_sub.lattice,
                       [(key, lift[c_rank:])
                        for key, lift in zip(keys, self.d_inner.dual_vectors(hperp))],
                       (Axis(self.d_l, dual=False), Axis(self.d_m, dual=True)), len(hperp))


_SPLIT_CACHE: dict = {}


def split_data(lat: Lattice, m_sub: Sublattice) -> SplitData:
    cache_key = (lat, m_sub.basis)
    if cache_key in _SPLIT_CACHE:
        return _SPLIT_CACHE[cache_key]
    mperp_sub = orthogonal_complement(lat, m_sub)
    inner = direct_sum(m_sub.lattice, mperp_sub.lattice)
    c_cols = [list(v) for v in m_sub.basis] + [list(v) for v in mperp_sub.basis]
    c_mat = exact.transpose(c_cols)  # n x n, lattice coords of inner basis
    glue, det = exact.mat_inv_det(c_mat)
    emb = OverlatticeEmbedding(small=inner, big=lat,
                               glue=tuple(tuple(row) for row in glue),
                               index=int(abs(det)))
    gm = glue_map(emb)
    d_m = discriminant_group(m_sub.lattice)
    d_perp = discriminant_group(mperp_sub.lattice)
    _combine, split_m, split_perp = disc_product_iso(gm.small_disc, d_m, d_perp)
    xs = gm.small_disc.element_array()
    pair_of_inner = (d_m.index(split_m.apply(xs)) * d_perp.order
                     + d_perp.index(split_perp.apply(xs)))
    sd = SplitData(ambient=lat, m_sub=m_sub, mperp_sub=mperp_sub, gm=gm,
                   d_m=d_m, d_perp=d_perp,
                   d_inner=gm.small_disc, d_l=gm.big_disc, split_m=split_m,
                   pair_of_inner=pair_of_inner)
    _SPLIT_CACHE[cache_key] = sd
    return sd


def _complement_coords(sd: SplitData, vec, label: str):
    """Mperp coordinates of an ambient vector required to lie in Mperp_R."""
    if not any(vec):
        return [Fraction(0)] * sd.mperp_sub.rank
    if any(sd.m_sub.coords_of(vec)):
        raise VectorNotInComplement(f"{label} has a component along the sublattice")
    return sd.mperp_sub.coords_of(vec)


def _complement_pair(sd: SplitData, pair_vectors) -> VectorPair:
    """An ambient shift pair (xi, eta), each required to lie in Mperp_R, in
    Mperp coordinates: the shift pair of the mixed theta's build."""
    vp = as_pair(pair_vectors, sd.ambient.rank)
    return VectorPair(_complement_coords(sd, vp.alpha, "xi"),
                      _complement_coords(sd, vp.beta, "eta"))


# ---------------------------------------------------------------------------
# the mixed theta function of a lattice and a primitive sublattice

def mixed_theta_direct(lat: Lattice, m_sub: Sublattice, tau: complex,
                       u_perp: GrassmannPoint, p_uperp: HomogeneousPolynomial,
                       pair_vectors=None, bound: float = 10.0) -> ThetaValue:
    """Mixed theta vector over D_L x D_M(-1), summed class by class.

    Classes of L*/M are parametrized by an element of the glue-orthogonal
    subgroup (fixing both the D_L index and the D_M index) together with a
    translate of the complement lattice, which is what gets enumerated: a
    Siegel-type sum over Mperp on the cosets SplitData.mixed_cosets
    (mixed_theta_family).  The shift pair (xi, eta) is ambient, each vector
    in Mperp_R.  The term table is the one mixed_theta_family keeps on
    u_perp, as in siegel_theta."""
    tau = _check_tau(tau)
    family = mixed_theta_family(lat, m_sub, u_perp, p_uperp)
    return family.evaluator(_complement_pair(split_data(lat, m_sub), pair_vectors),
                            bound)._at(tau)


def _merge_to_inner(sd: SplitData, vec: RepVector, m_axis: int,
                    perp_axis: int) -> RepVector:
    """Merge the D_M and D_perp axes of ``vec`` into one D_inner axis.

    The merged axis comes first; the remaining axes keep their order.  D_M x
    D_perp -> D_inner is a bijection, so the merge is one gather, which
    keeps the tail.
    """
    rest = [i for i in range(len(vec.axes)) if i not in (m_axis, perp_axis)]
    arr = vec.array.transpose([m_axis, perp_axis] + rest)
    arr = arr.reshape((-1,) + arr.shape[2:])[sd.pair_of_inner]
    axes = (Axis(sd.d_inner, dual=False),) + tuple(vec.axes[i] for i in rest)
    return RepVector.from_array(axes, arr, vec.tail)


def _composed_vector(sd: SplitData, perp_vec: RepVector) -> RepVector:
    """Tensor Theta_Mperp with the identity vector of D_M, merge the two
    non-dual axes into D_inner and push down the glue."""
    # axes (D_perp, F), (D_M, F), (D_M, T): merge the first two into D_inner
    tensor = perp_vec.tensor(identity_vector(sd.d_m))
    return down_arrow(sd.gm, _merge_to_inner(sd, tensor, 1, 0), axis=0)


def mixed_theta_composed(lat: Lattice, m_sub: Sublattice, tau: complex,
                         u_perp: GrassmannPoint, p_uperp: HomogeneousPolynomial,
                         pair_vectors=None, bound: float = 10.0) -> ThetaValue:
    """Mixed theta via the inner direct sum: tensor with the identity vector,
    merge the two non-dual axes into the sum group, then push down the glue.

    Independent of mixed_theta_direct term for term; the two must agree.
    The tail is |D_M| times Theta_Mperp's, by the tensor rule.
    """
    tau = _check_tau(tau)
    sd = split_data(lat, m_sub)
    theta_perp = siegel_theta(sd.mperp_sub.lattice, tau, u_perp, p_uperp,
                              _complement_pair(sd, pair_vectors), bound)
    return ThetaValue(value=_composed_vector(sd, theta_perp.value), tau=tau,
                      bound=float(bound), prefactor_exponent=theta_perp.prefactor_exponent)


# ---------------------------------------------------------------------------
# residuals and their certificates

#: a check at tolerance tol is certified when its certificate is at most
#: tol / TAIL_DIVISOR, so the truncation takes at most a tenth of the tolerance
TAIL_DIVISOR = 10.0


class Residual(float):
    """A residual between two truncated sums, as a float, with its
    ``certificate``: a bound on the part of it that truncation can make.
    Every residual of two truncated sides is Residual.of their difference.

    Arithmetic, comparison and float() read the residual alone.
    """

    __slots__ = ("certificate",)

    def __new__(cls, residual, certificate: float):
        self = super().__new__(cls, residual)
        self.certificate = float(certificate)
        return self

    @classmethod
    def of(cls, diff: RepVector) -> "Residual":
        """The sup norm of a difference of two sides, certified by its
        tail: the sup norm is at most the l1 norm the tail bounds."""
        return cls(diff.norm_inf(), diff.tail)

    @classmethod
    def worst(cls, residuals) -> "Residual":
        """The largest residual with the largest certificate, each taken
        separately: a max() would keep the worst residual's certificate."""
        residuals = list(residuals)
        return cls(max(residuals), max(r.certificate for r in residuals))


# ---------------------------------------------------------------------------
# symmetry and modularity diagnostics

def theta_weight(signature, degrees) -> Fraction:
    """Weight of the theta function of a lattice of signature (b+, b-) with a
    polynomial of degrees (m+, m-): (b+ - b-)/2 + m+ - m-."""
    (b_plus, b_minus), (m_plus, m_minus) = signature, degrees
    return Fraction(b_plus - b_minus, 2) + m_plus - m_minus


def theta_negation_residuals(lat: Lattice, taus, point: GrassmannPoint,
                             poly: HomogeneousPolynomial, pair_vectors=None,
                             bound: float = 10.0) -> list[Residual]:
    """Residual of the rescaling symmetry between L and L(-1), at each tau.

    The theta vector of the inverted lattice at the block-swapped splitting
    must equal y to the power theta_weight(L, poly) times the conjugated
    theta vector of L with the conjugated polynomial, component by component
    under the canonical index identification.  Each side is built once for
    all taus; the right side is the table siegel_theta_family keeps on
    ``point``, which already holds it when a seesaw on that point has
    evaluated it.  w = theta_weight(L, poly).
    """
    taus = [_check_tau(t) for t in taus]
    neg = rescale(lat, -1)
    lhs = siegel_theta_evaluator(neg, swap_blocks_point(point, neg),
                                 block_swapped_poly(poly), pair_vectors, bound)
    rhs = siegel_theta_family(lat, point, poly.conjugate()).evaluator(pair_vectors, bound)
    power = theta_weight(lat.signature, poly.degrees)
    d_neg, d_pos = discriminant_group(neg), discriminant_group(lat)
    to_pos = element_identification(d_neg, d_pos)
    matching = d_pos.index(to_pos.apply(d_neg.element_array()))
    out = []
    for tau, left, right in zip(taus, lhs.vectors(taus), rhs.vectors(taus)):
        # the identification is a bijection, so its gather keeps the tail
        right = RepVector.from_array(left.axes, right.array[matching], right.tail)
        out.append(Residual.of(left - right.conj().scale(tau.imag ** float(power))))
    return out


def modularity_defects(family: "ThetaFamily", g: MetaplecticElement, taus,
                       weight_exponent: int, pair=None,
                       bound: float = 10.0) -> list[Residual]:
    """Sup-norm defect of the transformation law at a metaplectic element,
    at each tau.

    Theta(g tau) with the shift pair moved column-wise by the matrix is
    compared with phi_g(tau)^k rho(g) Theta(tau); each side is one kept
    evaluator of ``family``, evaluated over all taus in one batch.  The
    scenario runner alone turns a certificate into a verdict.
    """
    taus = [_check_tau(t) for t in taus]
    vp = as_pair(pair, family.rank)
    base = family.vectors(taus, vp, bound)
    moved = family.vectors([g.act(t) for t in taus], g.act_pair(vp.alpha, vp.beta), bound)
    return [Residual.of(lhs - rho_apply(g, rhs).scale(g.phi(tau) ** weight_exponent))
            for tau, lhs, rhs in zip(taus, moved, base)]


class ThetaFamily:
    """One theta sum of ``lat`` on a GrassmannPoint with a bihomogeneous
    polynomial, over the cosets ``cosets`` (_Cosets), at any shift pair of
    rank ``rank`` and any bound.  The Siegel theta (siegel_theta_family) and
    the mixed theta (mixed_theta_family, a Siegel-type sum over Mperp) differ
    in their cosets alone.

    ``build(pair, bound)`` makes a fresh ThetaEvaluator: it checks the
    polynomial and the bound, enumerates the term table and wraps it with
    the cosets' axes and translates and the family's tail shell, made on
    its first build.  ``evaluator(pair, bound)`` keeps that build in the
    point's ``tables`` under the cosets, the polynomial, the pair, the bound
    and $THETA_MAX_VECTORS, so every later tau, the g tau side of a
    transformation law that leaves the pair unchanged, and every other
    family on the same point and inputs reuse its table, which lives as long
    as the point.  A lookup runs no check; a build that raises is not kept.
    """

    def __init__(self, lat: Lattice, point: GrassmannPoint,
                 poly: HomogeneousPolynomial, cosets: _Cosets):
        self.lattice = lat
        self.rank = lat.rank
        self.point = point
        self.poly = poly
        self.cosets = cosets

    @cached_property
    def _shell(self):
        return _tail_shell(self.point.count_shell, self.poly.series)

    def build(self, pair_vectors=None, bound: float = 10.0) -> ThetaEvaluator:
        """A fresh evaluator of one shift pair (None: no shift) and bound,
        not kept."""
        poly = _check_poly(self.poly, self.point)
        _check_bound(bound)
        lat, cosets = self.lattice, self.cosets
        prefactor = Fraction(lat.sig_minus + 2 * poly.degrees[1], 2)
        table = build_term_table(lat, self.point, poly.series, cosets, pair_vectors, bound,
                                 prefactor)
        return ThetaEvaluator(table, cosets.axes, bound, self._shell, cosets.translates)

    def evaluator(self, pair_vectors=None, bound: float = 10.0) -> ThetaEvaluator:
        """The kept evaluator of one shift pair (None: no shift) and bound."""
        vp = as_pair(pair_vectors, self.rank)
        # the pair is exact, so equal values share a build; it enters the key
        # as the (numerator, denominator) ints of VectorPair.key, made with
        # the pair, which hash far faster than Fractions; a lowered cap must
        # reach the walk, and raise, again
        key = (self.cosets, self.poly, vp.key, bound, _max_vectors())
        tables = self.point.tables
        evaluator = tables.get(key)
        if evaluator is None:
            evaluator = tables[key] = self.build(vp, bound)
        return evaluator

    def vectors(self, taus, pair_vectors=None, bound: float = 10.0) -> list[RepVector]:
        """The theta vector of one shift pair and bound at every tau, from
        one batched evaluation, each with its tail."""
        return self.evaluator(pair_vectors, bound).vectors(taus)


def siegel_theta_family(lat: Lattice, point: GrassmannPoint,
                        poly: HomogeneousPolynomial) -> ThetaFamily:
    """The Siegel theta of (lat, point, poly): one coset per element of D_L."""
    return ThetaFamily(lat, point, poly, _siegel_cosets(lat))


def mixed_theta_family(lat: Lattice, m_sub: Sublattice, u_perp: GrassmannPoint,
                       poly: HomogeneousPolynomial) -> ThetaFamily:
    """The mixed theta of (lat, m_sub) over D_L x D_M(-1) (direct
    construction): the sum over Mperp at u_perp on SplitData.mixed_cosets,
    of shift pairs in Mperp coordinates, as for the Siegel theta of Mperp."""
    sd = split_data(lat, m_sub)
    if u_perp.lattice != sd.mperp_sub.lattice:
        raise VectorNotInComplement("u_perp is not a splitting of the complement")
    return ThetaFamily(sd.mperp_sub.lattice, u_perp, poly, sd.mixed_cosets)


# ---------------------------------------------------------------------------
# seesaw identities

class Seesaw:
    """The theta functions of one seesaw, each term table built at most once.

    Built from L, a primitive sublattice M, splittings u of M and u_perp of
    its complement, and their polynomials p_u, p_uperp.  Holds the split
    data ``sd``, the ambient splitting ``v`` = u (+) u_perp with ``p_v`` =
    p_u p_uperp, and four ThetaFamily: ``theta_l`` (L at v), ``theta_m``
    (M at u), ``theta_perp`` (Mperp at u_perp) and ``mixed`` (the mixed
    theta of (L, M) at u_perp).  Each table is built on first use of a shift
    pair and bound and kept on the point it is built on (v, u or u_perp), so
    a second Seesaw on the same points builds nothing, and the tables go
    when the points do.  ``theta_m``, ``theta_perp`` and ``mixed`` take
    their shift pair in sublattice coordinates, the last two the same
    Mperp pair; the residual methods take ambient shift pairs and evaluate
    each table over all their taus in one batch; the projections of the last
    one they read are kept as VectorPairs, so a second method on the same
    pair reads no entry again.
    """

    def __init__(self, lat: Lattice, m_sub: Sublattice, u: GrassmannPoint,
                 u_perp: GrassmannPoint, p_u, p_uperp):
        sd = split_data(lat, m_sub)
        self.lattice = lat
        self.sd = sd
        self.u, self.u_perp, self.p_u, self.p_uperp = u, u_perp, p_u, p_uperp
        self.v = direct_sum_grassmann(sd.m_sub, sd.mperp_sub, u, u_perp)
        self.p_v = lift_product(p_u, p_uperp)
        self.theta_l = siegel_theta_family(lat, self.v, self.p_v)
        self.theta_m = siegel_theta_family(sd.m_sub.lattice, u, p_u)
        self.theta_perp = siegel_theta_family(sd.mperp_sub.lattice, u_perp, p_uperp)
        self.mixed = mixed_theta_family(lat, m_sub, u_perp, p_uperp)
        self._projected = (None, None)

    def _pairs(self, pair_vectors) -> tuple:
        """(vp, on M, on Mperp): the ambient shift pair as a VectorPair and
        its projections in sublattice coordinates, made once for the last
        pair read."""
        vp = as_pair(pair_vectors, self.lattice.rank)
        key, pairs = self._projected
        if key != vp.key:
            sd = self.sd
            pairs = (VectorPair(*_coords_pair(sd.m_sub, vp)),
                     VectorPair(*_coords_pair(sd.mperp_sub, vp)))
            self._projected = (vp.key, pairs)
        return (vp, *pairs)

    def split_residuals(self, taus, pair_vectors=None,
                        bound: float = 10.0) -> list[Residual]:
        """Per tau: Theta_L at the combined splitting against the glue
        push-down of Theta_M tensor Theta_Mperp (projected shift vectors)."""
        taus = [_check_tau(t) for t in taus]
        vp, on_m, on_perp = self._pairs(pair_vectors)
        return [Residual.of(big - _inner_push_down(self.sd, m, p))
                for big, m, p in zip(self.theta_l.vectors(taus, vp, bound),
                                     self.theta_m.vectors(taus, on_m, bound),
                                     self.theta_perp.vectors(taus, on_perp, bound))]

    def pairing_residuals(self, taus, pair_vectors=None,
                          bound: float = 10.0) -> list[Residual]:
        """Per tau: Theta_L against the D_M-contraction of Theta_M with the
        mixed theta (with the complement projections of the shift vectors)."""
        taus = [_check_tau(t) for t in taus]
        vp, on_m, on_perp = self._pairs(pair_vectors)
        return [Residual.of(big - rep_pair(m, mx, groups=[self.sd.d_m]))
                for big, m, mx in zip(self.theta_l.vectors(taus, vp, bound),
                                      self.theta_m.vectors(taus, on_m, bound),
                                      self.mixed.vectors(taus, on_perp, bound))]

    def pairing_expression_residuals(self, taus, test_vector: RepVector,
                                     pair_vectors=None,
                                     bound: float = 10.0) -> list[tuple[Residual, Residual]]:
        """Per tau: both re-expressions of the scalar <Theta_L, U> against
        direct evaluation.

        The first goes through the inner-sum tensor and the raised test
        vector; the second through the mixed theta.
        """
        taus = [_check_tau(t) for t in taus]
        sd = self.sd
        vp, on_m, on_perp = self._pairs(pair_vectors)
        raised = up_arrow(sd.gm, test_vector)
        out = []
        for big, m, p, mx in zip(self.theta_l.vectors(taus, vp, bound),
                                 self.theta_m.vectors(taus, on_m, bound),
                                 self.theta_perp.vectors(taus, on_perp, bound),
                                 self.mixed.vectors(taus, on_perp, bound)):
            direct = rep_pair(big, test_vector, groups=[sd.d_l])
            # first form: tensor over the inner sum against the raised vector
            first = rep_pair(_merge_to_inner(sd, m.tensor(p), 0, 1), raised,
                             groups=[sd.d_inner])
            # second form: contract the mixed theta against U over D_L, then
            # pair with Theta_M
            second = rep_pair(m, rep_pair(mx, test_vector, groups=[sd.d_l]),
                              groups=[sd.d_m])
            out.append((Residual.of(first - direct), Residual.of(second - direct)))
        return out

    def mixed_cross_residuals(self, taus, bound: float = 10.0) -> list[Residual]:
        """Per tau: the direct mixed theta against the composed one."""
        taus = [_check_tau(t) for t in taus]
        return [Residual.of(d - _composed_vector(self.sd, p))
                for d, p in zip(self.mixed.vectors(taus, None, bound),
                                self.theta_perp.vectors(taus, None, bound))]


def _coords_pair(sub: Sublattice, vp: VectorPair):
    return sub.coords_of(vp.alpha), sub.coords_of(vp.beta)


def _inner_push_down(sd: SplitData, m_vec: RepVector, perp_vec: RepVector) -> RepVector:
    """The one-axis vectors m_vec over D_M and perp_vec over D_Mperp,
    tensored, merged into D_inner and pushed down the glue: what
    _merge_to_inner and down_arrow make, as one gather of the flat tensor
    and one sum over each fibre; the merge and the push-down keep the
    tensor's tail."""
    flat = np.multiply.outer(m_vec.array, perp_vec.array).reshape(-1)
    return RepVector.from_array((Axis(sd.d_l, dual=False),),
                                flat.take(sd.push_index).sum(axis=1),
                                _product_tail(m_vec, perp_vec))


def inner_tensor_to_big(sd: SplitData, theta_m: ThetaValue, theta_p: ThetaValue) -> RepVector:
    """Merge Theta_M (x) Theta_Mperp over D_M x D_perp into D_inner, push down."""
    return _inner_push_down(sd, theta_m.value, theta_p.value)
