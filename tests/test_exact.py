import math
import os
import random
from fractions import Fraction
import subprocess
import sys

import pytest

import vvtheta
from vvtheta import exact
from vvtheta.errors import Degenerate


def _sparse_entry(rng):
    return 0 if rng.random() < 0.3 else rng.randint(-100, 100)


def _smith_cases():
    """Seeded integer matrices: 3000 random ones with 30% zeros, and 300 each
    of matrices with zero rows and columns, rank-deficient products and
    symmetric even Gram matrices; plus every zero shape up to 6 x 6."""
    rng = random.Random(20240611)
    cases = [[[0] * c for _ in range(r)] for r in range(1, 7) for c in range(1, 7)]
    for _ in range(3000):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        cases.append([[_sparse_entry(rng) for _ in range(c)] for _ in range(r)])
    for _ in range(300):
        r, c = rng.randint(2, 6), rng.randint(2, 6)
        m = [[_sparse_entry(rng) for _ in range(c)] for _ in range(r)]
        for i in rng.sample(range(r), rng.randint(1, r - 1)):
            m[i] = [0] * c
        for j in rng.sample(range(c), rng.randint(0, c - 1)):
            for row in m:
                row[j] = 0
        cases.append(m)
    for _ in range(300):
        r, c = rng.randint(2, 6), rng.randint(2, 6)
        k = rng.randint(1, min(r, c) - 1)
        a = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(r)]
        b = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(k)]
        cases.append([[int(x) for x in row] for row in exact.mat_mul(a, b)])
    for _ in range(300):
        n = rng.randint(1, 6)
        b = [[rng.randint(-12, 12) for _ in range(n)] for _ in range(n)]
        cases.append([[b[i][j] + b[j][i] for j in range(n)] for i in range(n)])
    return cases


def test_snf_matches_sympy_transforms():
    """The port reproduces sympy's (d, s, t) entry for entry, so generator
    bases, element keys and canonical JSON do not move."""
    sympy = pytest.importorskip("sympy")
    from sympy.external.gmpy import GROUND_TYPES
    from sympy.matrices.normalforms import smith_normal_decomp

    if GROUND_TYPES != "python":
        pytest.skip("the port follows sympy's pure-Python gcdext cofactors")

    def as_lists(mat):
        return [[int(mat[i, j]) for j in range(mat.cols)] for i in range(mat.rows)]

    cases = _smith_cases()
    assert len(cases) >= 3000
    for m in cases:
        ref = smith_normal_decomp(sympy.Matrix(m), domain=sympy.ZZ)
        assert exact.snf(m) == tuple(as_lists(x) for x in ref), m


def test_snf_is_a_smith_form():
    for m in _smith_cases()[::7]:
        d, s, t = exact.snf(m)
        rows, cols = len(m), len(m[0])
        assert exact.mat_mul(exact.mat_mul(s, m), t) == d
        assert abs(exact.mat_det(s)) == 1 and abs(exact.mat_det(t)) == 1
        diag = [d[i][i] for i in range(min(rows, cols))]
        assert all(d[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)
        assert all(x >= 0 for x in diag)
        # each invariant divides the next; zeros come last
        for a, b in zip(diag, diag[1:]):
            assert (b == 0) if a == 0 else (b % a == 0)


def test_snf_empty_shapes():
    assert exact.snf([]) == ([], [], [])
    assert exact.snf([[], []]) == ([[], []], [[1, 0], [0, 1]], [])


def test_import_needs_neither_sympy_nor_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(vvtheta.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, vvtheta; print(sorted({'sympy', 'scipy'} & set(sys.modules)))"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# the integer kernels against the Fraction arithmetic they replaced

def _ref_mat_mul(a, b):
    if not a or not b:
        return [[] for _ in a] if a else []
    bt = exact.transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _ref_mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def _ref_mat_inv(m):
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
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


def _ref_mat_det(m):
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


def _ref_rational_kernel(m):
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
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -a[i][fc]
        basis.append(v)
    return basis


def _typed(x):
    """x with every scalar replaced by (type, value), so == compares types too."""
    if isinstance(x, (list, tuple)):
        return [_typed(y) for y in x]
    return (type(x), x)


def _entry(rng, kind):
    """An int, or a Fraction (integral or with a small or large, possibly
    negative, denominator); kind "mixed" draws either."""
    if kind == "int" or (kind == "mixed" and rng.random() < 0.4):
        return rng.choice([0, rng.randint(-9, 9), rng.randint(-10**12, 10**12)])
    den = rng.choice([1, rng.randint(1, 12), rng.randint(10**6, 10**9)])
    return Fraction(rng.randint(-10**4, 10**4), den * rng.choice([1, -1]))


def _matrix(rng, rows, cols, kind):
    return [[_entry(rng, kind) for _ in range(cols)] for _ in range(rows)]


def _low_rank(rng, rows, cols, kind):
    """A product of rows x k and k x cols factors, k < min(rows, cols)."""
    k = rng.randint(0, min(rows, cols) - 1)
    if k == 0:
        return [[0] * cols for _ in range(rows)]
    return _ref_mat_mul(_matrix(rng, rows, k, kind), _matrix(rng, k, cols, kind))


def _kernel_cases():
    """Seeded (a, b) pairs of every kind: int, Fraction and mixed entries,
    full-rank and rank-deficient, with a zero row or column now and then."""
    rng = random.Random(20261019)
    for _ in range(300):
        kinds = [rng.choice(["int", "fraction", "mixed"]) for _ in range(2)]
        r, k, c = (rng.randint(1, 5) for _ in range(3))
        a = (_low_rank if rng.random() < 0.3 and min(r, k) > 1 else _matrix)(rng, r, k, kinds[0])
        b = _matrix(rng, k, c, kinds[1])
        if rng.random() < 0.2:
            a[rng.randrange(r)] = [0] * k
        yield a, b


def test_mat_mul_and_mat_vec_match_fraction_arithmetic():
    """Values and entry types (int where no Fraction is read, else Fraction)
    match the Fraction loops, also for empty shapes."""
    for a, b in _kernel_cases():
        assert _typed(exact.mat_mul(a, b)) == _typed(_ref_mat_mul(a, b)), (a, b)
        v = [row[0] for row in b]
        assert _typed(exact.mat_vec(a, v)) == _typed(_ref_mat_vec(a, v)), (a, v)
    for a, b in [([], []), ([], [[1]]), ([[1, 2]], []), ([[Fraction(1, 2)]], [[]]),
                 ([[], []], [[3]])]:
        assert _typed(exact.mat_mul(a, b)) == _typed(_ref_mat_mul(a, b))
    for a, v in [([], []), ([], [Fraction(1, 3)]), ([[]], []), ([[], []], [])]:
        assert _typed(exact.mat_vec(a, v)) == _typed(_ref_mat_vec(a, v))


def test_inverse_determinant_and_kernel_match_fraction_elimination():
    # inverse_diagonal reads the int rows den m: its entries are those of
    # (den m)^-1 = m^-1 / den, over a positive denominator
    rng = random.Random(7)
    singular = 0
    for a, _b in _kernel_cases():
        assert _typed(exact.rational_kernel(a)) == _typed(_ref_rational_kernel(a)), a
        square = [row[:len(a)] for row in a] if len(a[0]) >= len(a) else \
            _matrix(rng, len(a[0]), len(a[0]), "mixed")
        rows, den = exact.integer_rows(square)
        det = exact.mat_det(square)
        assert _typed(det) == _typed(_ref_mat_det(square)), square
        try:
            ref = _ref_mat_inv(square)
        except Degenerate:
            singular += 1
            with pytest.raises(Degenerate):
                exact.mat_inv(square)
            with pytest.raises(Degenerate):
                exact.mat_inv_det(square)
            with pytest.raises(Degenerate):
                exact.inverse_diagonal(rows)
            continue
        assert _typed(exact.mat_inv(square)) == _typed(ref), square
        assert _typed(exact.mat_inv_det(square)) == _typed([ref, det]), square
        diagonal = exact.inverse_diagonal(rows)
        assert all(type(p) is int and type(q) is int and q > 0 for p, q in diagonal)
        assert [Fraction(p, q) for p, q in diagonal] == [ref[i][i] / den
                                                         for i in range(len(rows))], square
    assert singular >= 30
    assert _typed(exact.mat_det([])) == _typed(Fraction(1))
    assert exact.mat_inv([]) == [] and exact.mat_inv_det([]) == ([], Fraction(1))
    assert exact.inverse_diagonal([]) == []
    assert exact.rational_kernel([]) == [] and exact.rational_kernel([[], []]) == []
    assert _typed(exact.rational_kernel([[0, 0]])) == _typed(_ref_rational_kernel([[0, 0]]))


def test_is_definite_matches_sylvester_minors():
    """The pivots of one elimination decide definiteness as the leading
    principal minors do, including matrices whose leading minor vanishes
    while a later one does not; definite_inverse reads the same pivots."""
    def sylvester(m, sign):
        return all(_ref_mat_det([[sign * x for x in row[:k]] for row in m[:k]]) > 0
                   for k in range(1, len(m) + 1))

    rng = random.Random(11)
    cases = [[[0, 1], [1, 0]], [[0, 0], [0, 1]], [[1, 0], [0, 0]], [[-2]], [[2]],
             [[0, 1, 0], [1, 0, 0], [0, 0, -2]]]
    for _ in range(300):
        n = rng.randint(1, 5)
        b = _matrix(rng, n, n, rng.choice(["int", "fraction", "mixed"]))
        if rng.random() < 0.2:
            b[rng.randrange(n)] = [0] * n
        gram = _ref_mat_mul(exact.transpose(b), b)
        shift = rng.choice([0, 0, 1, -1, Fraction(-1, 3)])
        cases.append([[x + shift * (i == j) for j, x in enumerate(row)]
                      for i, row in enumerate(gram)])
        sym = _matrix(rng, n, n, "mixed")
        cases.append([[sym[i][j] + sym[j][i] for j in range(n)] for i in range(n)])
    verdicts = set()
    for m in cases:
        for sign in (1, -1):
            neg = [[-x for x in row] for row in m]
            assert exact.is_definite(m, sign) == sylvester(m, sign), (m, sign)
            assert exact.is_definite(neg, -sign) == exact.is_definite(m, sign)
            verdicts.add(exact.is_definite(m, sign))
            # on a definite matrix the same elimination gives p = det and p m^-1
            rows, _den = exact.integer_rows([[sign * x for x in row] for row in m])
            inverse = exact.definite_inverse(rows)
            if inverse is not None:
                p, adjugate = inverse
                assert type(p) is int and p == _ref_mat_det(rows)
                assert [[Fraction(x, p) for x in row] for row in adjugate] == \
                    _ref_mat_inv(rows), (m, sign)
    assert verdicts == {True, False}


def test_mat_mul_makes_one_fraction_per_entry():
    """A 4 x 4 rational product creates at most its 16 entries as Fractions;
    the entry-by-entry Fraction loop created 128."""
    rng = random.Random(3)
    a = _matrix(rng, 4, 4, "fraction")
    b = _matrix(rng, 4, 4, "fraction")
    expected = _ref_mat_mul(a, b)
    original = Fraction.__dict__["__new__"]
    calls = []

    def counting_new(cls, *args, **kwargs):
        calls.append(args)
        return original(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting_new)
    try:
        product = exact.mat_mul(a, b)
    finally:
        Fraction.__new__ = original
    assert product == expected
    assert len(calls) <= 16


def test_integer_rows_over_the_least_common_denominator():
    """rows / den == m entry by entry, with int rows and den the lcm of the
    denominators, for int, Fraction and mixed input and empty shapes."""
    assert exact.integer_rows([[1, -2], [3, 0]]) == ([[1, -2], [3, 0]], 1)
    assert exact.integer_rows([[Fraction(1, 2), 3], [Fraction(-5, 6), Fraction(4, 3)]]) \
        == ([[3, 18], [-5, 8]], 6)
    # a negative denominator is carried by the numerator; 4/2 is integral
    assert exact.integer_rows([[Fraction(1, -4)], [Fraction(-3, 10)], [Fraction(4, 2)]]) \
        == ([[-5], [-6], [40]], 20)
    assert exact.integer_rows([]) == ([], 1)
    assert exact.integer_rows([[], []]) == ([[], []], 1)
    rng = random.Random(20261020)
    for _ in range(300):
        m = _matrix(rng, rng.randint(0, 4), rng.randint(0, 4),
                    rng.choice(["int", "fraction", "mixed"]))
        rows, den = exact.integer_rows(m)
        assert type(den) is int and den == math.lcm(1, *(Fraction(x).denominator
                                                        for row in m for x in row))
        assert all(type(x) is int for row in rows for x in row)
        assert [[Fraction(x, den) for x in row] for row in rows] == m


def test_rational_reads_each_entry_by_one_rule():
    import numpy as np

    from vvtheta.errors import NotRational

    # a rational keeps its value, as an int or a Fraction
    for x, want in ((3, 3), (np.int64(-4), -4), (Fraction(1, 3), Fraction(1, 3))):
        got = exact.rational(x)
        assert got == want and type(got) is type(want), x
    # a finite float is the decimal written, numpy floats included
    for x, want in ((0.1, Fraction(1, 10)), (0.5, Fraction(1, 2)), (-2.0, Fraction(-2)),
                    (1e-20, Fraction(1, 10 ** 20)), (np.float64(0.3), Fraction(3, 10)),
                    (0.3333333333333333, Fraction(3333333333333333, 10 ** 16))):
        got = exact.rational(x)
        assert got == want and type(got) is Fraction, x
    # anything else is a typed error, a bool (a JSON true) included
    for x in (float("nan"), float("inf"), -float("inf"), np.float64("nan"), "1/2", None, 1j,
              [1], True, False):
        with pytest.raises(NotRational):
            exact.rational(x)
