import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from vvtheta import (
    HomogeneousPolynomial,
    NonHomogeneousPolynomial,
    NotPositiveDefiniteSpan,
    Polynomial,
    WrongDimension,
    block_swapped_poly,
    constant_poly,
    direct_sum_grassmann,
    lift_product,
    make_grassmann_point,
    rescale,
    split_product_check,
    swap_blocks_point,
)
from vvtheta.grassmann import coordinate_poly, laplacian_series


def test_ii11_standard_point(ii11):
    v = make_grassmann_point(ii11, [[1, 1]])
    g = ii11.gram_np()
    gram_adapted = v.adapted.T @ g @ v.adapted
    assert np.abs(gram_adapted - np.diag([1.0, -1.0])).max() < 1e-12
    # the plus column is (1,1)/sqrt(2) up to sign
    col = v.adapted[:, 0]
    assert abs(abs(col[0]) - 1 / math.sqrt(2)) < 1e-12 and abs(col[0] - col[1]) < 1e-12


def test_definite_lattice_single_point(a1_plus_a1):
    v = make_grassmann_point(a1_plus_a1, [[1, 0], [0, 1]])
    assert v.dim_plus == 2 and v.dim_minus == 0
    lam = [F(2), F(-1)]
    plus, minus = v.project(lam)
    assert plus == lam and all(x == 0 for x in minus)


def test_rejects_bad_spans(ii11):
    with pytest.raises(NotPositiveDefiniteSpan):
        make_grassmann_point(ii11, [[1, -1]])
    # one independent isotropic vector: a singular span, but not a dependent one
    with pytest.raises(NotPositiveDefiniteSpan, match="dependent.*isotropic"):
        make_grassmann_point(ii11, [[1, 0]])
    with pytest.raises(WrongDimension):
        make_grassmann_point(ii11, [])
    with pytest.raises(WrongDimension):
        make_grassmann_point(ii11, [[1, 1], [1, 0]])


def test_projection_values(ii11):
    v = make_grassmann_point(ii11, [[1, 1]])
    plus, minus = v.project([1, 0])
    assert plus == [F(1, 2), F(1, 2)] and minus == [F(1, 2), F(-1, 2)]
    lam = [F(1), F(1)]
    plus, minus = v.project(lam)
    assert plus == lam and minus == [0, 0]


def test_majorant_values(ii11):
    v = make_grassmann_point(ii11, [[1, 1]])
    rng = random.Random(3)
    for _ in range(20):
        m, n = rng.randint(-5, 5), rng.randint(-5, 5)
        assert v.majorant_value([m, n]) == m * m + n * n
        if (m, n) != (0, 0):
            assert v.majorant_value([m, n]) > 0


def test_projection_idempotent(ii11, a2):
    for lat, span in [(ii11, [[1, 1]]), (a2, [[1, 0], [0, 1]])]:
        v = make_grassmann_point(lat, span)
        rng = random.Random(5)
        for _ in range(10):
            x = [F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(lat.rank)]
            plus, minus = v.project(x)
            again_plus, cross = v.project(plus)
            assert again_plus == plus
            assert all(c == 0 for c in cross)
            assert [p + q for p, q in zip(plus, minus)] == x


def test_laplacian_series():
    assert [t.monomials for t in laplacian_series(constant_poly(1, 0))] == [{(0,): 1.0}]
    x4 = HomogeneousPolynomial((4, 0), 1, 0, {(4,): 1.0})
    assert [t.monomials for t in laplacian_series(x4)] == [{(4,): 1.0}, {(2,): 12.0},
                                                           {(0,): 12.0}]
    harmonic = HomogeneousPolynomial((2, 0), 2, 0, {(2, 0): 1.0, (0, 2): -1.0})
    assert len(laplacian_series(harmonic)) == 1
    # sum_j c^j series[j] is exp(c Lap) p, so it composes additively in c
    rng = random.Random(11)

    def exp_lap(p, c):
        out = Polynomial(p.nvars_plus, p.nvars_minus, {})
        for j, term in enumerate(laplacian_series(p)):
            out = out + term.scale(c ** j)
        return out

    for _ in range(10):
        monomials = {}
        for _m in range(4):
            expo = (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))
            monomials[expo] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        p = Polynomial(2, 1, monomials)
        c1, c2 = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
        once = exp_lap(exp_lap(p, c1), c2)
        both = exp_lap(p, c1 + c2)
        keys = set(once.monomials) | set(both.monomials)
        assert max(abs(once.monomials.get(k, 0) - both.monomials.get(k, 0))
                   for k in keys) < 1e-10


def test_homogeneity_defining_property(ii11):
    v = make_grassmann_point(ii11, [[1, 1]])
    p = coordinate_poly(1, 1, 0)  # degree (1, 0)
    q = coordinate_poly(1, 1, 1)  # degree (0, 1)
    pq = p.multiply(q)
    rng = random.Random(8)
    for _ in range(10):
        lam = [rng.uniform(-3, 3), rng.uniform(-3, 3)]
        c_plus, c_minus = rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)
        plus, minus = v.project(lam)
        scaled = [c_plus * a + c_minus * b for a, b in zip(plus, minus)]
        for poly, (mp, mm) in [(p, (1, 0)), (q, (0, 1)), (pq, (1, 1))]:
            lhs = poly.evaluate(v.adapted_coords(scaled))
            rhs = c_plus ** mp * c_minus ** mm * poly.evaluate(v.adapted_coords(lam))
            assert abs(lhs - rhs) < 1e-9


def test_homogeneous_validation():
    with pytest.raises(NonHomogeneousPolynomial):
        HomogeneousPolynomial((1, 0), 1, 1, {(1, 0): 1.0, (0, 1): 1.0})
    with pytest.raises(NonHomogeneousPolynomial):
        HomogeneousPolynomial((2, 0), 1, 0, {(1,): 1.0})


def test_direct_sum_grassmann(ii11_split):
    ii11, m_sub, mperp, u, u_perp = ii11_split
    v = direct_sum_grassmann(m_sub, mperp, u, u_perp)
    direct = make_grassmann_point(ii11, [[1, 1]])
    # same splitting: projections agree
    for x in ([1, 0], [0, 1], [2, -3]):
        assert v.project(x)[0] == direct.project(x)[0]
    assert v.dim_plus == u.dim_plus + u_perp.dim_plus
    assert v.dim_minus == u.dim_minus + u_perp.dim_minus


def test_split_product_check(ii11_split):
    ii11, m_sub, mperp, u, u_perp = ii11_split
    v = direct_sum_grassmann(m_sub, mperp, u, u_perp)
    one_m = constant_poly(0, 1)
    one_p = constant_poly(1, 0)
    ok, dev = split_product_check(lift_product(one_m, one_p), one_m, one_p,
                                  v, u, u_perp, m_sub, mperp)
    assert ok, dev
    # x from the u_perp block times y from the u block
    px = coordinate_poly(1, 0, 0)
    py = coordinate_poly(0, 1, 0)
    pv = lift_product(py, px)
    ok, dev = split_product_check(pv, py, px, v, u, u_perp, m_sub, mperp)
    assert ok, dev
    # degree bookkeeping failure is detected
    ok, _ = split_product_check(lift_product(py, px), py, constant_poly(1, 0),
                                v, u, u_perp, m_sub, mperp)
    assert not ok


def test_block_swap_consistency(ii11):
    v = make_grassmann_point(ii11, [[1, 1]])
    neg = rescale(ii11, -1)
    vneg = swap_blocks_point(v, neg)
    assert vneg.dim_plus == v.dim_minus and vneg.dim_minus == v.dim_plus
    p = coordinate_poly(1, 1, 0)
    ps = block_swapped_poly(p)
    assert ps.degrees == (0, 1)
    rng = random.Random(2)
    for _ in range(10):
        x = [rng.uniform(-2, 2), rng.uniform(-2, 2)]
        assert abs(p.evaluate(v.adapted_coords(x))
                   - ps.evaluate(vneg.adapted_coords(x))) < 1e-12


def test_float_span_flag(ii11):
    v = make_grassmann_point(ii11, [[1.0, 1.0]])
    assert not v.rational_flag
    assert abs(v.majorant_value([1.0, 2.0]) - 5.0) < 1e-9


def test_vector_pair_validation(ii11):
    from vvtheta import VectorPair
    from vvtheta.grassmann import as_pair

    vp = as_pair(None, 2)
    assert vp.alpha == (0, 0) and vp.beta == (0, 0)
    vp = as_pair(([1, 2], [3, 4]), 2)
    assert isinstance(vp, VectorPair)
    with pytest.raises(WrongDimension):
        as_pair(([1], [2, 3]), 2)
