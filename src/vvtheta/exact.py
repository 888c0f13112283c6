"""Exact integer/rational linear algebra helpers.

Matrices are lists of rows; entries are ints or fractions.Fraction.  All
routines are exact.  A rational matrix is written as int rows over one
common denominator (``integer_rows``): products sum int rows and make one
Fraction per entry, and inverse, determinant, kernel and definiteness read
one fraction-free (Bareiss) elimination of those rows, with no Fraction in
between.  ``rational`` is the one rule that reads an input entry as an exact
rational.  The Smith normal form is an in-repo elimination over Python ints
whose transforms are pinned to sympy's, so generator bases and element keys
do not depend on which valid Smith form one happens to pick.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from operator import mul

from .errors import Degenerate, NotRational

Row = list
Matrix = list  # list of rows


def rational(x):
    """x as an int or a Fraction.

    A rational (an int, a Fraction, a numpy integer) keeps its value.  A
    finite float, numpy floats included, is read as its shortest round-trip
    decimal, the decimal the user wrote, so 0.1 is 1/10.  Anything else,
    a bool included, raises NotRational.
    """
    if type(x) is int or type(x) is Fraction:
        return x
    if isinstance(x, bool):
        raise NotRational(f"expected a rational or a finite float, got {x!r}")
    if isinstance(x, numbers.Integral):
        return int(x)
    if isinstance(x, numbers.Rational):
        return Fraction(x.numerator, x.denominator)
    if isinstance(x, numbers.Real) and math.isfinite(x):
        return Fraction(repr(float(x)))
    raise NotRational(f"expected a rational or a finite float, got {x!r}")


def identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def transpose(m):
    if not m:
        return []
    return [list(col) for col in zip(*m)]


def integer_rows(m) -> tuple[list[list[int]], int]:
    """(rows, den): m[i][j] == rows[i][j] / den, with int rows over the least
    common denominator den >= 1 of the int and Fraction entries of m."""
    den = math.lcm(1, *[x.denominator for row in m for x in row])
    return [[x.numerator * (den // x.denominator) for x in row] for row in m], den


def _typed_rows(m):
    """(rows, den, has_fraction): integer_rows of m, and whether each row of m
    holds a Fraction.

    A product entry that reads such a row is a Fraction, as it would be in
    Fraction arithmetic.  A matrix of ints comes back as it is, with den 1.
    """
    has_fraction = [Fraction in map(type, row) for row in m]
    if not any(has_fraction):
        return m, 1, has_fraction
    return (*integer_rows(m), has_fraction)


def mat_mul(a, b):
    """Exact product a b over integer rows: one Fraction per entry that reads
    a Fraction of a or b, and ints elsewhere."""
    if not a or not b:
        return [[] for _ in a] if a else []
    ra, da, fa = _typed_rows(a)
    rb, db, fb = _typed_rows(transpose(b))
    sums = [[sum(map(mul, row, col)) for col in rb] for row in ra]
    if not (any(fa) or any(fb)):
        return sums
    den = da * db
    return [[Fraction(s, den) if f or g else s // den for s, g in zip(row, fb)]
            for row, f in zip(sums, fa)]


def mat_vec(a, v):
    """Exact product a v, typed as in mat_mul."""
    ra, da, fa = _typed_rows(a)
    (rv,), dv, (fv,) = _typed_rows([v])
    sums = [sum(map(mul, row, rv)) for row in ra]
    if not (fv or any(fa)):
        return sums
    den = da * dv
    return [Fraction(s, den) if fv or f else s // den for s, f in zip(sums, fa)]


def _eliminate(a, width: int) -> tuple[list[int], list[int], int]:
    """Fraction-free Gauss-Jordan elimination of the int rows a, in place.

    Pivots are taken in columns 0..width-1 from left to right, each from the
    first row at or below the current one that is nonzero there.  Returns
    (pivot_cols, pivots, swaps).  After step k every entry is a minor of
    order k + 1, so each division by the previous pivot is exact (Bareiss,
    Math. Comp. 22, 1968).  At the end pivot row i holds pivots[-1] in column
    pivot_cols[i] and 0 in the other pivot columns, so the rows divided by
    pivots[-1] are the reduced row echelon form; the rows after them vanish
    in the first width columns.  Without swaps or skipped columns, pivots[k]
    is the leading principal minor of order k + 1.
    """
    pivot_cols, pivots, swaps = [], [], 0
    prev = 1
    for c in range(width):
        r = len(pivots)
        if r == len(a):
            break
        found = next((i for i in range(r, len(a)) if a[i][c]), None)
        if found is None:
            continue
        if found != r:
            a[r], a[found] = a[found], a[r]
            swaps += 1
        pivot_row = a[r]
        p = pivot_row[c]
        for i, row in enumerate(a):
            if i != r:
                f = row[c]
                a[i] = [(p * x - f * y) // prev for x, y in zip(row, pivot_row)]
        pivot_cols.append(c)
        pivots.append(p)
        prev = p
    return pivot_cols, pivots, swaps


def _inverse_rows(rows) -> tuple[list[list[int]], int, int]:
    """(a, p, swaps) from one elimination of the int rows [m | I]: the right
    block of a is p m^{-1}; raises Degenerate on singular input."""
    n = len(rows)
    a = [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    _cols, pivots, swaps = _eliminate(a, n)
    if len(pivots) < n:
        raise Degenerate("matrix is singular")
    # the left block is now p I and the right one p m^{-1}
    return a, pivots[-1] if n else 1, swaps


def mat_inv_det(m) -> tuple[list[list[Fraction]], Fraction]:
    """(m^{-1}, det m) from one elimination of [den m | I]; raises Degenerate
    on singular input."""
    n = len(m)
    rows, den = integer_rows(m)
    a, p, swaps = _inverse_rows(rows)
    if not n:
        return [], Fraction(1)
    return ([[Fraction(den * x, p) for x in row[n:]] for row in a],
            Fraction(-p if swaps % 2 else p, den ** n))


def inverse_diagonal(rows) -> list[tuple[int, int]]:
    """[(p_0, q), (p_1, q), ...] with (m^{-1})_ii = p_i / q and q > 0, for
    the int rows m: the same elimination as mat_inv_det, with no Fraction."""
    a, p, _swaps = _inverse_rows(rows)
    sign = 1 if p > 0 else -1
    return [(sign * row[len(rows) + i], sign * p) for i, row in enumerate(a)]


def definite_inverse(rows) -> tuple[int, list[list[int]]] | None:
    """(p, p m^{-1}) with p = det m > 0 for the int rows m of a positive
    definite matrix, from one elimination of [m | I]; None when m is not
    positive definite.

    Sylvester's criterion: every leading principal minor of m is positive.
    Those are the pivots, as the elimination swaps or skips only after one
    of them vanished.
    """
    n = len(rows)
    a = [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    _cols, pivots, swaps = _eliminate(a, n)
    if swaps or len(pivots) < n or any(p <= 0 for p in pivots):
        return None
    return (pivots[-1] if n else 1), [row[n:] for row in a]


def mat_inv(m) -> list[list[Fraction]]:
    """Exact inverse; raises Degenerate on singular input."""
    return mat_inv_det(m)[0]


def mat_det(m) -> Fraction:
    """Exact determinant: the last pivot of the elimination of den m, over den^n."""
    n = len(m)
    if n == 0:
        return Fraction(1)
    rows, den = integer_rows(m)
    _cols, pivots, swaps = _eliminate(rows, n)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(-pivots[-1] if swaps % 2 else pivots[-1], den ** n)


def is_definite(m, sign: int) -> bool:
    """Whether sign * m (sign +1 or -1) is positive definite: whether
    definite_inverse takes the int rows sign * den m, as den > 0."""
    rows, _den = integer_rows(m)
    return definite_inverse([[sign * x for x in row] for row in rows]) is not None


def rational_kernel(m) -> list[list[Fraction]]:
    """Basis of the rational null space of m (list of vectors), read off the
    reduced row echelon form of one elimination; one vector per free column."""
    if not m:
        return []
    cols = len(m[0])
    a, _den = integer_rows(m)
    pivot_cols, pivots, _swaps = _eliminate(a, cols)
    basis = []
    for fc in range(cols):
        if fc in pivot_cols:
            continue
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for row, pc in zip(a, pivot_cols):
            v[pc] = Fraction(-row[fc], pivots[-1])
        basis.append(v)
    return basis


def _gcdext(a: int, b: int) -> tuple[int, int, int]:
    """(x, y, g) with x a + y b = g = gcd(a, b) >= 0.

    The cofactors follow sympy's pure-Python ``igcdex`` (Euclid on |a|, |b|,
    signs restored at the end), so the Smith transforms below match sympy's.
    """
    if not a or not b:
        g = abs(a) or abs(b)
        return (a // g, b // g, g) if g else (0, 0, 0)
    x_sign, a = (-1, -a) if a < 0 else (1, a)
    y_sign, b = (-1, -b) if b < 0 else (1, b)
    x, r, y, s = 1, 0, 0, 1
    while b:
        q, c = divmod(a, b)
        a, b = b, c
        x, r = r, x - q * r
        y, s = s, y - q * s
    return x * x_sign, y * y_sign, a


def _combine_rows(m, i, j, a, b, c, d):
    """Rows i, j of m become a row_i + b row_j and c row_i + d row_j."""
    ri, rj = m[i], m[j]
    m[i] = [a * x + b * y for x, y in zip(ri, rj)]
    m[j] = [c * x + d * y for x, y in zip(ri, rj)]


def _combine_cols(m, i, j, a, b, c, d):
    """Columns i, j of m become a col_i + b col_j and c col_i + d col_j."""
    for row in m:
        x, y = row[i], row[j]
        row[i] = a * x + b * y
        row[j] = c * x + d * y


def _int_identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _smith(m, rows: int, cols: int):
    """(invariants, s, t) with s m t = diag(invariants); m is overwritten.

    A line-by-line port of ``_smith_normal_decomp(..., full=True)`` from
    sympy 1.14 (``sympy.polys.matrices.normalforms``): clear row and column 0
    by gcd steps, recurse on the lower-right block, then repair the
    divisibility chain.  Every operation is the same as sympy's, so s and t
    are too.
    """
    s, t = _int_identity(rows), _int_identity(cols)
    # bring a nonzero entry of column 0, else of row 0, to (0, 0)
    if m[0][0] == 0:
        i = next((i for i in range(rows) if m[i][0]), None)
        if i is not None:
            m[0], m[i] = m[i], m[0]
            s[0], s[i] = s[i], s[0]
        else:
            j = next((j for j in range(cols) if m[0][j]), None)
            if j is not None:
                _combine_cols(m, 0, j, 0, 1, 1, 0)
                _combine_cols(t, 0, j, 0, 1, 1, 0)

    def clear(entry, combine, transform, count):
        # zero entry(1..count-1) against the pivot, in m and in its transform
        pivot = m[0][0]
        for j in range(1, count):
            e = entry(j)
            if e == 0:
                continue
            q, r = divmod(e, pivot)
            if r == 0:
                ops = (1, 0, -q, 1)
            else:
                a, b, g = _gcdext(pivot, e)
                ops = (a, b, e // g, -(pivot // g))
                pivot = g
            combine(m, 0, j, *ops)
            combine(transform, 0, j, *ops)

    while any(m[0][1:]) or any(row[0] for row in m[1:]):
        clear(lambda j: m[j][0], _combine_rows, s, rows)
        clear(lambda j: m[0][j], _combine_cols, t, cols)

    if m[0][0] < 0:
        m[0][0] = -m[0][0]
        s[0] = [-x for x in s[0]]

    invs = []
    if rows > 1 and cols > 1:
        invs, s_small, t_small = _smith([row[1:] for row in m[1:]], rows - 1, cols - 1)
        # s <- diag(1, s_small) s and t <- t diag(1, t_small)
        s = [s[0]] + mat_mul(s_small, s[1:])
        t = [[row[0]] + rest
             for row, rest in zip(t, mat_mul([row[1:] for row in t], t_small))]

    if m[0][0] == 0:
        # row and column 0 vanish: move them last
        if rows > 1:
            s = s[1:] + [s[0]]
        if cols > 1:
            t = [row[1:] + [row[0]] for row in t]
        return invs + [0], s, t

    result = [m[0][0]] + invs
    for i in range(len(result) - 1):
        a, b = result[i], result[i + 1]
        if not b or b % a == 0:
            break
        x, y, g = _gcdext(a, b)
        alpha, beta = a // g, b // g
        _combine_rows(s, i, i + 1, 1, 0, x, 1)
        _combine_cols(t, i, i + 1, 1, y, 0, 1)
        _combine_rows(s, i, i + 1, 1, -alpha, 0, 1)
        _combine_cols(t, i, i + 1, 1, 0, -beta, 1)
        _combine_rows(s, i, i + 1, 0, 1, -1, 0)
        result[i], result[i + 1] = g, b * alpha
    return result, s, t


def snf(m) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form with transforms: returns (d, s, t) with s m t = d.

    s and t are unimodular; d is diagonal (rectangular allowed) with each
    diagonal entry dividing the next.  s and t are exactly those of sympy's
    ``smith_normal_decomp(m, domain=ZZ)``.
    """
    rows = len(m)
    cols = len(m[0]) if m else 0
    d = [[0] * cols for _ in range(rows)]
    if not rows or not cols:
        return d, _int_identity(rows), _int_identity(cols)
    invs, s, t = _smith([[int(x) for x in row] for row in m], rows, cols)
    for i, x in enumerate(invs):
        d[i][i] = x
    return d, s, t


def integer_kernel(m) -> list[list[int]]:
    """Saturated basis of {x in Z^cols : m x = 0} (list of vectors).

    Columns of the SNF right transform t corresponding to zero diagonal
    entries form a basis; t unimodular makes it saturated automatically.
    """
    if not m:
        return []
    rows, cols = len(m), len(m[0])
    d, s, t = snf(m)
    basis = []
    for j in range(cols):
        dj = d[j][j] if j < rows else 0
        if dj == 0:
            basis.append([t[i][j] for i in range(cols)])
    return basis


def column_module_basis(cols_frac) -> list[list[Fraction]]:
    """Basis of the Z-module spanned by the given rational column vectors.

    Input is a list of vectors in Q^n whose Z-span has full rank n; output is
    a list of n basis vectors.  Computed by clearing denominators and reading
    the SNF decomposition of the resulting integer matrix.
    """
    n = len(cols_frac[0])
    int_cols, den = integer_rows(cols_frac)
    a = transpose(int_cols)  # n x k integer matrix, columns span den * module
    d, s, t = snf(a)
    s_inv = mat_inv(s)
    basis = []
    for j in range(n):
        dj = d[j][j] if j < len(d) and j < len(d[0]) else 0
        if dj == 0:
            raise Degenerate("column span does not have full rank")
        basis.append([s_inv[i][j] * dj / den for i in range(n)])
    return basis


def saturate_columns(gens) -> tuple[list[list[int]], bool]:
    """Saturation of the Z-span of integer generator vectors inside Z^n.

    Returns (basis vectors of span_Q(gens) intersect Z^n, whether gens span it).
    """
    a = transpose([list(map(int, g)) for g in gens])  # n x k
    d, s, t = snf(a)
    n = len(a)
    k = len(gens)
    rank = sum(1 for j in range(min(n, k)) if d[j][j] != 0)
    primitive = all(abs(d[j][j]) == 1 for j in range(rank))
    s_inv = mat_inv(s)
    basis = [[int(s_inv[i][j]) for i in range(n)] for j in range(rank)]
    return basis, primitive


def mod1(x: Fraction) -> Fraction:
    """Reduce a rational to the canonical representative in [0, 1)."""
    x = Fraction(x)
    return x - (x.numerator // x.denominator)
