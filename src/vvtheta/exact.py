"""Exact integer/rational linear algebra helpers.

Matrices are lists of rows; entries are ints or fractions.Fraction.  All
routines are exact; sizes stay tiny (lattice ranks at desk scale), so the
dense Gauss-Jordan / Smith normal form costs are negligible.  Smith normal
form is delegated to sympy, which works over arbitrary-precision integers.
"""

from __future__ import annotations

import math
from fractions import Fraction

import sympy
from sympy.matrices.normalforms import smith_normal_decomp

from .errors import Degenerate

Row = list
Matrix = list  # list of rows


def frac_matrix(rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def transpose(m):
    if not m:
        return []
    return [list(col) for col in zip(*m)]


def mat_mul(a, b):
    if not a or not b:
        return [[] for _ in a] if a else []
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def vec_dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def mat_inv(m) -> list[list[Fraction]]:
    """Exact inverse by Gauss-Jordan; raises Degenerate on singular input."""
    n = len(m)
    aug = [[Fraction(x) for x in row] + ident_row for row, ident_row in zip(m, identity(n))]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise Degenerate("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = 1 / aug[col][col]
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def mat_det(m) -> Fraction:
    """Exact determinant by fraction-free-ish Gaussian elimination."""
    n = len(m)
    if n == 0:
        return Fraction(1)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv_p = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] * inv_p
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def rational_kernel(m) -> list[list[Fraction]]:
    """Basis of the rational null space of m (list of vectors), via RREF."""
    if not m:
        return []
    rows, cols = len(m), len(m[0])
    a = [[Fraction(x) for x in row] for row in m]
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv_p = 1 / a[r][c]
        a[r] = [x * inv_p for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -a[i][fc]
        basis.append(v)
    return basis


def _to_sympy(m):
    return sympy.Matrix([[sympy.Integer(int(x)) for x in row] for row in m])


def _from_sympy(m) -> list[list[int]]:
    return [[int(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]


def snf(m) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form with transforms: returns (d, s, t) with s m t = d.

    s and t are unimodular; d is diagonal (rectangular allowed) with each
    diagonal entry dividing the next.
    """
    if not m or not m[0]:
        rows = len(m)
        cols = len(m[0]) if m else 0
        return ([[0] * cols for _ in range(rows)],
                [[int(i == j) for j in range(rows)] for i in range(rows)],
                [[int(i == j) for j in range(cols)] for i in range(cols)])
    d, s, t = smith_normal_decomp(_to_sympy(m), domain=sympy.ZZ)
    return _from_sympy(d), _from_sympy(s), _from_sympy(t)


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
    den = math.lcm(*(Fraction(x).denominator for v in cols_frac for x in v))
    int_cols = [[int(Fraction(x) * den) for x in v] for v in cols_frac]
    a = transpose(int_cols)  # n x k integer matrix, columns span den * module
    d, s, t = snf(a)
    s_inv = mat_inv(frac_matrix(s))
    basis = []
    for j in range(n):
        dj = d[j][j] if j < len(d) and j < len(d[0]) else 0
        if dj == 0:
            raise Degenerate("column span does not have full rank")
        basis.append([s_inv[i][j] * dj / den for i in range(n)])
    return basis


def saturate_columns(gens) -> tuple[list[list[int]], bool]:
    """Saturation of the Z-span of integer generator vectors inside Z^n.

    Returns (basis vectors of span_Q(gens) intersect Z^n, was_primitive).
    """
    a = transpose([list(map(int, g)) for g in gens])  # n x k
    d, s, t = snf(a)
    n = len(a)
    k = len(gens)
    rank = sum(1 for j in range(min(n, k)) if d[j][j] != 0)
    primitive = all(abs(d[j][j]) == 1 for j in range(rank))
    s_inv = mat_inv(frac_matrix(s))
    basis = [[int(s_inv[i][j]) for i in range(n)] for j in range(rank)]
    return basis, primitive


def is_integral(v) -> bool:
    return all(Fraction(x).denominator == 1 for x in v)


def mod1(x: Fraction) -> Fraction:
    """Reduce a rational to the canonical representative in [0, 1)."""
    x = Fraction(x)
    return x - (x.numerator // x.denominator)
