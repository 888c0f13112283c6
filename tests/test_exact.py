import os
import random
import subprocess
import sys

import pytest

import vvtheta
from vvtheta import exact


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
