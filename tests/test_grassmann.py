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
    construct_lattice,
    direct_sum,
    direct_sum_grassmann,
    lift_product,
    make_grassmann_point,
    orthogonal_complement,
    rescale,
    sublattice,
    swap_blocks_point,
)
from vvtheta import exact
from vvtheta.grassmann import GrassmannPoint, coordinate_poly, laplacian_series


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
    # v+ is all of L_R: the plus norm is the norm and the minus norm vanishes
    assert v.integer_forms == (1, a1_plus_a1.gram_rows(), [[0, 0], [0, 0]])


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
    # e1 = (1, 1)/2 + (1, -1)/2, with plus norm 1/2 and minus norm -1/2;
    # (1, 1) spans v+, so its minus norm vanishes
    v = make_grassmann_point(ii11, [[1, 1]])
    assert v.integer_forms == (2, [[1, 1], [1, 1]], [[-1, 1], [1, -1]])
    assert _forms(v) == ([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]],
                         [[F(-1, 2), F(1, 2)], [F(1, 2), F(-1, 2)]])


def test_majorant_values(ii11):
    # the majorant of (m, n) is m^2 + n^2, positive away from 0
    v = make_grassmann_point(ii11, [[1, 1]])
    assert _majorant(v) == [[1, 0], [0, 1]]
    assert exact.is_definite(_majorant(v), +1)
    assert v.majorant_np.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_projection_idempotent(ii11, a2):
    # P+- = G^-1 Q+- are complementary idempotents: Q+- G^-1 Q+- = Q+-,
    # Q+ G^-1 Q- = 0 and Q+ + Q- = G
    for lat, span in [(ii11, [[1, 1]]), (a2, [[1, 0], [0, 1]])]:
        v = make_grassmann_point(lat, span)
        g = lat.gram_rows()
        g_inv = exact.mat_inv(g)
        q_plus, q_minus = _forms(v)
        for p, q, want in [(q_plus, q_plus, q_plus), (q_minus, q_minus, q_minus),
                           (q_plus, q_minus, [[0] * lat.rank] * lat.rank)]:
            assert exact.mat_mul(exact.mat_mul(p, g_inv), q) == want
        assert [[p + q for p, q in zip(rp, rq)] for rp, rq in zip(q_plus, q_minus)] == g


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
    # the projection onto v+ is P+ = G^-1 Q+
    p_plus = np.linalg.solve(ii11.gram_np(), np.array(_forms(v)[0], dtype=float))
    rng = random.Random(8)
    for _ in range(10):
        lam = [rng.uniform(-3, 3), rng.uniform(-3, 3)]
        c_plus, c_minus = rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)
        plus = p_plus @ np.array(lam)
        minus = np.array(lam) - plus
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
    # same splitting: the norm forms, and so the projections G^-1 Q+-, agree
    assert v.integer_forms == direct.integer_forms
    assert v.dim_plus == u.dim_plus + u_perp.dim_plus
    assert v.dim_minus == u.dim_minus + u_perp.dim_minus


def test_split_product_identity(ii11_split):
    # p_v(x) = p_u(x_M) p_uperp(x_Mperp) on v = u (+) u_perp with p_v from
    # lift_product: each adapted coordinate of v is the matching one of u or
    # u_perp, so the two sides agree to rounding at any size of the values
    ii11, m_sub, mperp, u, u_perp = ii11_split
    v = direct_sum_grassmann(m_sub, mperp, u, u_perp)
    x14 = HomogeneousPolynomial((14, 0), 1, 0, {(14,): 1.0})
    # (p_u on M, p_uperp on Mperp); the second is y from u times x from u_perp
    cases = [(constant_poly(0, 1), constant_poly(1, 0)),
             (coordinate_poly(0, 1, 0), coordinate_poly(1, 0, 0)),
             (constant_poly(0, 1), x14)]
    rng = random.Random(7)
    xs = [[F(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(ii11.rank)]
          for _ in range(20)]
    for p_u, p_uperp in cases:
        p_v = lift_product(p_u, p_uperp)
        for x in xs:
            lhs = p_v.evaluate(v.adapted_coords(x))
            rhs = (p_u.evaluate(u.adapted_coords(m_sub.coords_of(x)))
                   * p_uperp.evaluate(u_perp.adapted_coords(mperp.coords_of(x))))
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs), (p_uperp.degrees, x)


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


def test_vector_pair_validation(ii11):
    from vvtheta import VectorPair
    from vvtheta.grassmann import as_pair

    vp = as_pair(None, 2)
    assert vp.alpha == (0, 0) and vp.beta == (0, 0)
    vp = as_pair(([1, 2], [3, 4]), 2)
    assert isinstance(vp, VectorPair)
    with pytest.raises(WrongDimension):
        as_pair(([1], [2, 3]), 2)


def _forms(point) -> tuple:
    """(Q+, Q-) as Fraction rows from the point's integer forms (d, N+, N-)."""
    d, n_plus, n_minus = point.integer_forms
    return tuple([[F(x, d) for x in row] for row in form] for form in (n_plus, n_minus))


def _reference_norm_forms(point) -> tuple:
    """(P+^T G P+, P-^T G P-) from the projections P+ = B (B^T G B)^-1 B^T G,
    for the span B of v+ as columns, and P- = 1 - P+."""
    g = point.lattice.gram_rows()
    n = point.lattice.rank
    if point.span_plus:
        b = exact.transpose(point.span_plus)
        bt_g = exact.mat_mul(point.span_plus, g)
        p_plus = exact.mat_mul(exact.mat_mul(b, exact.mat_inv(exact.mat_mul(bt_g, b))), bt_g)
    else:
        p_plus = [[F(0)] * n for _ in range(n)]
    p_minus = [[int(i == j) - x for j, x in enumerate(row)] for i, row in enumerate(p_plus)]
    return tuple(exact.mat_mul(exact.mat_mul(exact.transpose(p), g), p)
                 for p in (p_plus, p_minus))


def _norm_forms(point) -> tuple:
    """(Q+, Q-) in Fractions from the span's Gram data: Q+ = C^T (C B^T)^-1 C
    for C = B G and the span B as rows, and Q- = G - Q+; the Fraction route
    that the integer forms are checked against."""
    g = point.lattice.gram_rows()
    n = point.lattice.rank
    if point.span_plus:
        c = exact.mat_mul(point.span_plus, g)
        gram_plus = exact.mat_mul(c, exact.transpose(point.span_plus))
        q_plus = exact.mat_mul(exact.mat_mul(exact.transpose(c), exact.mat_inv(gram_plus)), c)
    else:
        q_plus = [[F(0)] * n for _ in range(n)]
    return q_plus, [[x - y for x, y in zip(rg, rp)] for rg, rp in zip(g, q_plus)]


def _majorant(point) -> list:
    """The majorant Q+ - Q- of _norm_forms, in Fractions."""
    q_plus, q_minus = _norm_forms(point)
    return [[a - b for a, b in zip(rp, rm)] for rp, rm in zip(q_plus, q_minus)]


def _random_lattice(rng, rank):
    """A nondegenerate even lattice with small random Gram entries."""
    while True:
        gram = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            gram[i][i] = 2 * rng.randint(-2, 2)
            for j in range(i):
                gram[i][j] = gram[j][i] = rng.randint(-2, 2)
        if exact.mat_det(gram) != 0:
            return construct_lattice(gram)


def _random_point(rng, lat):
    """A splitting of lat whose v+ is spanned by random rational vectors."""
    while True:
        span = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(lat.rank)]
                for _ in range(lat.sig_plus)]
        try:
            return make_grassmann_point(lat, span)
        except NotPositiveDefiniteSpan:
            continue


def test_norm_forms_match_projection_reference(a2, ii11):
    # a seeded family: random lattices of rank 1-5 with rational spans (some
    # negative definite, so with an empty plus span), direct sums, among them
    # one over the glued split of a2a2a1_glued, and the swap of each point
    rng = random.Random(2026)
    points = [_random_point(rng, _random_lattice(rng, rank)) for rank in [1, 2, 3, 4, 5] * 5]
    points.append(_random_point(rng, direct_sum(a2, a2)))
    # direct sums on A2 + II(1,1) over the sublattices A2, <(0,0,1,1)> (a
    # rank-3 indefinite complement) and <(1,0,1,0)>, and on the glued lattice
    big = direct_sum(a2, ii11)
    glued = construct_lattice([[2, 1, 0, 0, 0], [1, 2, 0, 0, 0], [0, 0, 2, 1, 0],
                               [0, 0, 1, 2, 0], [0, 0, 0, 0, -2]])
    splits = [(big, basis) for basis in ([(1, 0, 0, 0), (0, 1, 0, 0)], [(0, 0, 1, 1)],
                                         [(1, 0, 1, 0)])]
    splits.append((glued, [(1, 0, -1, 0, 0), (0, 1, 0, -1, 0), (0, 0, 0, 0, 1)]))
    for lat, basis in splits:
        m_sub = sublattice(lat, basis)
        mperp = orthogonal_complement(lat, m_sub)
        u, u_perp = _random_point(rng, m_sub.lattice), _random_point(rng, mperp.lattice)
        v = direct_sum_grassmann(m_sub, mperp, u, u_perp)
        assert v.integer_forms == make_grassmann_point(lat, v.span_plus).integer_forms
        points.append(v)
    # swapped blocks: the plus form on L(-1) is minus the minus form on L
    for v in list(points):
        swapped = swap_blocks_point(v, rescale(v.lattice, -1))
        d, n_plus, n_minus = v.integer_forms
        assert swapped.integer_forms == (d, [[-x for x in row] for row in n_minus],
                                         [[-x for x in row] for row in n_plus])
        points.append(swapped)
    assert {v.lattice.rank for v in points} == {1, 2, 3, 4, 5}
    assert {v.dim_plus for v in points} >= {0, 1, 2, 3, 4}
    for v in points:
        q_plus, q_minus = _norm_forms(v)
        assert (q_plus, q_minus) == _reference_norm_forms(v)
        # (d, N+, N-) is d times the Fraction forms in ints, with d the least
        d, n_plus, n_minus = v.integer_forms
        assert {type(x) for row in n_plus + n_minus for x in row} <= {int}
        assert [[F(x, d) for x in row] for row in n_plus + n_minus] == q_plus + q_minus
        assert d == math.lcm(1, *(x.denominator for row in q_plus + q_minus for x in row))
        # the float majorant is float(Fraction) of each entry, bit for bit
        n = v.lattice.rank
        want = np.array([[float(x) for x in row] for row in _majorant(v)]).reshape(n, n)
        assert v.majorant_np.dtype == want.dtype and v.majorant_np.shape == (n, n)
        assert v.majorant_np.tobytes() == want.tobytes()


def test_point_construction_makes_four_products(monkeypatch, a2, ii11):
    # the forms from the span alone: at most the four products B G, B G B^T
    # and the two around the k x k inverse, all int sums, so no Fraction
    # product at all
    lat = direct_sum(a2, ii11)
    point = make_grassmann_point(lat, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, F(1, 2)]])
    calls = []
    mat_mul = exact.mat_mul

    def counting(a, b):
        calls.append((len(a), len(b)))
        return mat_mul(a, b)

    monkeypatch.setattr(exact, "mat_mul", counting)
    again = GrassmannPoint(lat, point.span_plus, point.span_minus, point.adapted)
    assert calls == []
    monkeypatch.undo()
    assert again.integer_forms == point.integer_forms
    assert _forms(again) == _reference_norm_forms(point)


def test_swap_blocks_point_needs_the_negated_lattice(ii11, a2):
    # a lattice other than L(-1) would give a point whose forms are not its
    # norms: on II(1,1) itself the "majorant" would be -I
    from vvtheta import MismatchedSignature

    v = make_grassmann_point(ii11, [[1, 1]])
    with pytest.raises(MismatchedSignature):
        swap_blocks_point(v, ii11)
    point = make_grassmann_point(a2, [[1, 0], [0, 1]])
    with pytest.raises(MismatchedSignature):
        swap_blocks_point(point, construct_lattice([[4, 1], [1, 4]]))
    with pytest.raises(MismatchedSignature):
        swap_blocks_point(point, rescale(a2, -2))
    assert swap_blocks_point(point, rescale(a2, -1)).dim_minus == 2


def test_swapped_point_runs_no_elimination(monkeypatch, a2, ii11):
    # the swapped point's majorant is its source's, so its levels, inverse
    # diagonal, carry weights and count_shell are read from the source
    lat = direct_sum(a2, ii11)
    v = make_grassmann_point(lat, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, F(1, 3)]])
    data = v.build_data
    neg = rescale(lat, -1)
    calls = []
    eliminate = exact._eliminate

    def counting(*args):
        calls.append(args)
        return eliminate(*args)

    monkeypatch.setattr(exact, "_eliminate", counting)
    swapped = swap_blocks_point(v, neg)
    swapped_data = swapped.build_data
    assert swapped.majorant_levels is v.majorant_levels
    assert swapped.count_shell is v.count_shell
    assert calls == []
    for name in ("inverse_diagonal", "largest", "levels64", "steps"):
        assert getattr(swapped_data, name) is getattr(data, name)
    monkeypatch.undo()
    # a point made afresh with the swapped forms gives the same build data
    fresh = GrassmannPoint(swapped.lattice, swapped.span_plus, swapped.span_minus,
                           swapped.adapted, swapped.integer_forms)
    assert fresh.majorant_np.tobytes() == swapped.majorant_np.tobytes()
    assert fresh.build_data.inverse_diagonal == swapped_data.inverse_diagonal
    assert fresh.build_data.steps == swapped_data.steps
    assert fresh.count_shell == swapped.count_shell
    sign, support, form = fresh.build_data.exact_form
    want_sign, want_support, want_form = swapped_data.exact_form
    assert (sign, support, form.tolist()) == (want_sign, want_support, want_form.tolist())


def test_complement_has_the_minus_signature():
    # make_grassmann_point takes v- as the orthogonal complement of a positive
    # definite span of sig+ vectors, without checking it: on a nondegenerate
    # lattice it has dimension sig- and is negative definite (Sylvester's law
    # of inertia); seeded lattices of rank 1-5, most of them indefinite
    rng = random.Random(2027)
    signatures = set()
    for rank in [1, 2, 3, 4, 5] * 6:
        lat = _random_lattice(rng, rank)
        v = _random_point(rng, lat)
        signatures.add(lat.signature)
        assert len(v.span_minus) == v.dim_minus == lat.sig_minus
        if v.span_minus:
            gram_minus = exact.mat_mul(exact.mat_mul(v.span_minus, lat.gram_rows()),
                                       exact.transpose(v.span_minus))
            assert exact.is_definite(gram_minus, -1)
    assert sum(p > 0 and m > 0 for p, m in signatures) >= 8
    assert {p + m for p, m in signatures} == {1, 2, 3, 4, 5}


def test_make_grassmann_point_makes_four_products(monkeypatch, a2, ii11):
    # the span's Gram data B G and B G B^T serve the definiteness check, the
    # complement and the forms, so a point costs 4 products in all, each an
    # int sum rather than an exact.mat_mul
    lat = direct_sum(a2, ii11)
    calls = []
    mat_mul = exact.mat_mul

    def counting(a, b):
        calls.append((len(a), len(b)))
        return mat_mul(a, b)

    monkeypatch.setattr(exact, "mat_mul", counting)
    point = make_grassmann_point(lat, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, F(1, 2)]])
    assert len(calls) <= 4
    monkeypatch.undo()
    assert _forms(point) == _reference_norm_forms(point)
