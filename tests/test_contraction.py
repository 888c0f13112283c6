import cmath
import math
import random
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest

from vvtheta import (
    ComplementNotDefinite,
    EmptyGrid,
    InconsistentDegrees,
    IndexMismatch,
    NonHomogeneousPolynomial,
    PolynomialNotHarmonic,
    QExpansionForm,
    build_term_table,
    check_isotropic,
    constant_poly,
    construct_lattice,
    contract_pointwise,
    contract_symbolic,
    direct_sum,
    disc_product_iso,
    discriminant_group,
    element_identification,
    expected_weights,
    make_grassmann_point,
    mixed_theta_composed,
    mixed_theta_family,
    modularity_defects,
    naive_truncated_lift,
    orthogonal_complement,
    orthogonal_elements,
    Seesaw,
    seesaw_contraction_residuals,
    seesaw_contractions,
    seesaw_restriction_residuals,
    siegel_theta,
    split_data,
    sublattice,
)
from vvtheta.contraction import _q_series
from vvtheta.discforms import overlattice_from_isotropic
from vvtheta.grassmann import HomogeneousPolynomial, coordinate_poly
from vvtheta.theta import _Cosets
from vvtheta.weil import MP_S, MP_T, Axis, RepVector, pair

TAUS = [0.2 + 1.1j, -0.37 + 0.9j, 0.05 + 1.3j, 0.41 + 0.85j, -0.11 + 1.02j]


def _theta_series_coset(perp_lat, u_perp, poly, coset_vec, bound) -> dict:
    """Exact-exponent q-series of one coset of a positive definite lattice."""
    table = build_term_table(perp_lat, u_perp, [poly], _Cosets(perp_lat, [((), coset_vec)]),
                             None, bound)
    return _q_series(table).get(0, {})


def test_qexpansion_validation(a1_plus_a1):
    # valid exponents: == -q(coset) mod 1
    form = QExpansionForm(a1_plus_a1, F(0), {
        ((0, 0), F(0)): 1.0,
        ((1, 0), F(3, 4)): 2.0,
        ((1, 1), F(-1, 2)): 1.0,  # principal part allowed
    })
    assert form.min_exponent() == F(-1, 2)
    with pytest.raises(IndexMismatch):
        QExpansionForm(a1_plus_a1, F(0), {((1, 0), F(1, 2)): 1.0})
    with pytest.raises(IndexMismatch):
        QExpansionForm(a1_plus_a1, F(0), {((1,), F(3, 4)): 1.0})


def test_qexpansion_evaluate(a1):
    form = QExpansionForm(a1, F(1, 2), {((0,), F(1)): 2.0, ((1,), F(3, 4)): -1.0})
    tau = 0.3 + 0.7j
    vec = form.evaluate(tau)
    q = cmath.exp(2j * math.pi * tau)
    assert abs(vec.get(((0,),)) - 2.0 * q) < 1e-12
    assert abs(vec.get(((1,),)) + q ** 0.75) < 1e-9


def test_representation_numbers_oracle(a1_plus_a1):
    # theta series of the A1 complement: r_0 = 1, 2q, 2q^4, ...; r_1 = 2q^(1/4), ...
    m_sub = sublattice(a1_plus_a1, [(1, 0)])
    mperp = orthogonal_complement(a1_plus_a1, m_sub)
    u_perp = make_grassmann_point(mperp.lattice, [[1]])
    p = constant_poly(1, 0)
    s0 = _theta_series_coset(mperp.lattice, u_perp, p, [0], 9.0)
    assert s0 == {F(0): 1, F(1): 2, F(4): 2, F(9): 2}
    d = discriminant_group(mperp.lattice)
    s1 = _theta_series_coset(mperp.lattice, u_perp, p, d.dual_vector((1,)), 9.0)
    assert s1 == {F(1, 4): 2, F(9, 4): 2, F(25, 4): 2}
    # a float span entry is read as the decimal written: 1.0 is the same point
    u_float = make_grassmann_point(mperp.lattice, [[1.0]])
    assert _theta_series_coset(mperp.lattice, u_float, p, [0], 9.0) == s0


def _complement_point(lat, m_sub):
    """The one splitting of the positive definite complement of m_sub,
    spanned by the unit vectors."""
    perp = orthogonal_complement(lat, m_sub).lattice
    return make_grassmann_point(perp, [[int(i == j) for j in range(perp.rank)]
                                       for i in range(perp.rank)])


def test_contract_trivial_glue_convolution(a1_plus_a1):
    # coefficient of q^e in component alpha is a convolution against the
    # representation numbers of the complement
    m_sub = sublattice(a1_plus_a1, [(1, 0)])
    form = QExpansionForm(a1_plus_a1, F(0), {
        ((0, 0), F(0)): 1.0,
        ((0, 0), F(1)): 4.0,
        ((0, 1), F(3, 4)): -2.0,
        ((1, 1), F(1, 2)): 1.0j,
    })
    result = contract_symbolic(form, a1_plus_a1, m_sub, _complement_point(a1_plus_a1, m_sub),
                               constant_poly(1, 0), 6.0)
    # by hand: component (0,) of the output collects beta in {0, 1} of D_perp
    r0 = {F(0): 1, F(1): 2, F(4): 2}
    r1 = {F(1, 4): 2, F(9, 4): 2}
    expected = {}
    for e_f, c_f in [(F(0), 1.0), (F(1), 4.0)]:
        for e_t, c_t in r0.items():
            if e_f + e_t <= 6:
                expected[e_f + e_t] = expected.get(e_f + e_t, 0j) + c_f * c_t
    for e_f, c_f in [(F(3, 4), -2.0)]:
        for e_t, c_t in r1.items():
            if e_f + e_t <= 6:
                expected[e_f + e_t] = expected.get(e_f + e_t, 0j) + c_f * c_t
    got = {e: c for (coset, e), c in result.terms.items() if coset == (0,)}
    for e, c in expected.items():
        assert abs(got.get(e, 0j) - c) < 1e-12


def test_contract_symbolic_vs_pointwise(a1_plus_a1):
    m_sub = sublattice(a1_plus_a1, [(1, 0)])
    mperp = orthogonal_complement(a1_plus_a1, m_sub)
    u_perp = make_grassmann_point(mperp.lattice, [[1]])
    p = constant_poly(1, 0)
    form = QExpansionForm(a1_plus_a1, F(0), {
        ((0, 0), F(0)): 1.0,
        ((0, 0), F(1)): -3.0 + 2j,
        ((1, 0), F(3, 4)): 2.0,
        ((1, 1), F(1, 2)): 0.5j,
    })
    result = contract_symbolic(form, a1_plus_a1, m_sub, u_perp, p, 8.0)
    for tau in TAUS:
        pw = contract_pointwise(form, a1_plus_a1, m_sub, u_perp, p, tau, 8.0)
        assert (result.evaluate(tau) - pw).norm_inf() < 1e-9


def test_contract_scalar_unimodular(ii11_split):
    # unimodular ambient: the contraction is the scalar form times the
    # complement theta vector
    ii11, m_sub, mperp, u, u_perp = ii11_split
    form = QExpansionForm(ii11, F(0), {((), F(0)): 2.0, ((), F(1)): -24.0})
    p = constant_poly(1, 0)
    result = contract_symbolic(form, ii11, m_sub, u_perp, p, 8.0)
    assert result.weight == F(1, 2)
    for tau in TAUS[:3]:
        f_val = 2.0 - 24.0 * cmath.exp(2j * math.pi * tau)
        theta = siegel_theta(mperp.lattice, tau, u_perp, p, None, 8.0)
        sym = result.evaluate(tau)
        for dm in discriminant_group(m_sub.lattice).elements():
            assert abs(sym.get((dm,)) - f_val * theta.value.get((dm,))) < 1e-9


def test_contract_form_tensor_theta(a1, a1_neg, glue_class):
    # glue with H_Mperp = D_Mperp: output is exactly F (x) theta data
    lam = direct_sum(direct_sum(a1_neg, a1_neg), a1)
    d = discriminant_group(lam)
    h = check_isotropic(d, [(1, 0, 1)])
    emb = overlattice_from_isotropic(lam, h)
    big = emb.big
    e1 = [int(x) for x in emb.big_coords([1, 0, 0])]
    e2 = [int(x) for x in emb.big_coords([0, 1, 0])]
    m_sub = sublattice(big, [e1, e2])
    sd = split_data(big, m_sub)
    u_perp = make_grassmann_point(sd.mperp_sub.lattice, [[1]])
    p = constant_poly(1, 0)
    from vvtheta.exact import mod1

    dl = discriminant_group(big)
    nonzero = next(x for x in dl.elements() if x != dl.zero())
    form = QExpansionForm(big, F(0), {
        (dl.zero(), F(0)): 1.0,
        (dl.zero(), F(1)): 3.0,
        (nonzero, mod1(-dl.q(nonzero))): -2.0,
    })
    result = contract_symbolic(form, big, m_sub, u_perp, p, 6.0)
    # assemble the expected tensor product independently
    combine, split_m, split_perp = disc_product_iso(sd.d_inner, sd.d_m, sd.d_perp)
    h_elems = sd.gm.subgroup.elements
    hm_list = [split_m(x) for x in h_elems]
    hm_perp = [x for x in sd.d_m.elements()
               if all(sd.d_m.b(x, hm) == 0 for hm in hm_list)]
    expected = {}
    for alpha in hm_perp:
        gamma_l = glue_class(sd.gm, combine(alpha + sd.d_perp.zero()))
        comp = form.component(gamma_l)
        for h_el in h_elems:
            hm, hp = split_m(h_el), split_perp(h_el)
            dm = sd.d_m.add(alpha, hm)
            series = _theta_series_coset(sd.mperp_sub.lattice, u_perp, p,
                                         sd.d_perp.dual_vector(hp), 6.0)
            for e_f, c_f in comp.items():
                for e_t, c_t in series.items():
                    if e_f + e_t <= 6:
                        key = (dm, e_f + e_t)
                        expected[key] = expected.get(key, 0j) + c_f * c_t
    assert set(expected) == set(result.terms)
    for k in expected:
        assert abs(expected[k] - result.terms[k]) < 1e-12
    for tau in TAUS[:2]:
        pw = contract_pointwise(form, big, m_sub, u_perp, p, tau, 6.0)
        assert (result.evaluate(tau) - pw).norm_inf() < 1e-9


def test_contract_complement_unimodular(a1, ii11):
    # complement II11: the mixed theta is a scalar times the identity vector,
    # so the pointwise contraction is that scalar times the form
    big = direct_sum(a1, ii11)
    m_sub = sublattice(big, [(1, 0, 0)])
    mperp = orthogonal_complement(big, m_sub)
    u_perp = make_grassmann_point(mperp.lattice, [[1, 1]])
    p = constant_poly(1, 1)
    form = QExpansionForm(big, F(1, 2), {((0,), F(0)): 1.0, ((1,), F(3, 4)): 5.0})
    tau = 0.2 + 1.1j
    scalar = siegel_theta(mperp.lattice, tau, u_perp, p, None, 10.0).value.get(((),))
    pw = contract_pointwise(form, big, m_sub, u_perp, p, tau, 10.0)
    f_vec = form.evaluate(tau)
    for dm in discriminant_group(m_sub.lattice).elements():
        assert abs(pw.get((dm,)) - scalar * f_vec.get((dm,))) < 1e-10
    # the symbolic route must refuse the indefinite complement
    with pytest.raises(ComplementNotDefinite):
        contract_symbolic(form, big, m_sub, u_perp, p, 8.0)


def test_contract_zero_form(a1_plus_a1):
    m_sub = sublattice(a1_plus_a1, [(1, 0)])
    mperp = orthogonal_complement(a1_plus_a1, m_sub)
    u_perp = make_grassmann_point(mperp.lattice, [[1]])
    zero = QExpansionForm(a1_plus_a1, F(0), {})
    got = contract_pointwise(zero, a1_plus_a1, m_sub, u_perp,
                             constant_poly(1, 0), 1j, 8.0)
    assert got.norm_inf() == 0


def test_contract_rejects_nonharmonic(a1_plus_a1):
    m_sub = sublattice(a1_plus_a1, [(1, 0)])
    form = QExpansionForm(a1_plus_a1, F(0), {((0, 0), F(0)): 1.0})
    x2 = HomogeneousPolynomial((2, 0), 1, 0, {(2,): 1.0})
    with pytest.raises(PolynomialNotHarmonic):
        contract_symbolic(form, a1_plus_a1, m_sub, _complement_point(a1_plus_a1, m_sub),
                          x2, 8.0)


def test_contract_rejects_polynomial_over_wrong_variables(a1_plus_a1):
    # the complement A1 has one plus variable; a harmonic constant over two
    # is rejected as by mixed_theta_evaluator (and theta-lm)
    m_sub = sublattice(a1_plus_a1, [(1, 0)])
    form = QExpansionForm(a1_plus_a1, F(0), {((0, 0), F(0)): 1.0})
    with pytest.raises(NonHomogeneousPolynomial):
        contract_symbolic(form, a1_plus_a1, m_sub, _complement_point(a1_plus_a1, m_sub),
                          constant_poly(2, 0), 8.0)


def test_contract_degenerate_glue_matches_composed():
    # D_M = Z/4 with glue projection {0, 2}: b(2,2) = 0, so the glue is
    # degenerate; the contraction is still the form paired with the mixed
    # theta, here built independently through the down arrow
    lam = construct_lattice([[-4, 0], [0, 4]])
    d = discriminant_group(lam)
    h = check_isotropic(d, [(2, 2)])
    emb = overlattice_from_isotropic(lam, h)
    big = emb.big
    e1 = [int(x) for x in emb.big_coords([1, 0])]
    m_sub = sublattice(big, [e1])
    from vvtheta.exact import mod1

    dl = discriminant_group(big)
    form = QExpansionForm(big, F(0),
                          {(x, mod1(-dl.q(x))): 1.0 for x in dl.elements()})
    p = constant_poly(1, 0)
    u_perp = make_grassmann_point(split_data(big, m_sub).mperp_sub.lattice, [[1]])
    result = contract_symbolic(form, big, m_sub, u_perp, p, 6.0)
    for tau in TAUS[:2]:
        mixed = mixed_theta_composed(big, m_sub, tau, u_perp, p, None, 6.0)
        paired = pair(mixed.value, form.evaluate(tau), groups=[dl])
        assert (result.evaluate(tau) - paired).norm_inf() < 1e-9


def _glue_sum_reference(form, lat, m_sub, poly, bound, glue_class) -> dict:
    """The contraction as a sum over glue cosets, for non-degenerate glue:
    component alpha + h_M collects the form on the class of (alpha, beta)
    times the complement series on beta + h_perp, over alpha in H_M perp,
    beta in H_perp perp and h in H, one term table per complement coset;
    glue_class places (alpha, beta) in D_L."""
    sd = split_data(lat, m_sub)
    perp_lat = sd.mperp_sub.lattice
    u_perp = make_grassmann_point(perp_lat, [[int(i == j) for j in range(perp_lat.rank)]
                                             for i in range(perp_lat.rank)])
    combine, split_m, split_perp = disc_product_iso(sd.d_inner, sd.d_m, sd.d_perp)
    h_split = [(split_m(h), split_perp(h)) for h in sd.gm.subgroup.elements]

    def complement(group, sub):
        perp = orthogonal_elements(group, sub)
        assert len(set(sub)) == len(sub) and len(sub) * len(perp) == group.order
        return perp

    def series(coset):
        # the identity splitting is rational, so every row's a + b is exact
        cosets = _Cosets(perp_lat, [((), sd.d_perp.dual_vector(coset))])
        table = build_term_table(perp_lat, u_perp, [poly], cosets, None, theta_bound)
        out = {}
        for a, b, c in zip(table.a_num.tolist(), table.b_num.tolist(),
                           table.poly[:, 0].tolist()):
            if c != 0:
                e = F(a + b, table.ab_den)
                out[e] = out.get(e, 0j) + c
        return out

    theta_bound = F(bound) - min(F(0), form.min_exponent())
    out = {}
    for alpha in complement(sd.d_m, [hm for hm, _hp in h_split]):
        for beta in complement(sd.d_perp, [hp for _hm, hp in h_split]):
            f_component = form.component(glue_class(sd.gm, combine(alpha + beta)))
            for hm, hp in h_split:
                theta_part = series(sd.d_perp.add(beta, hp))
                for e_f, c_f in f_component.items():
                    for e_t, c_t in theta_part.items():
                        if e_f + e_t <= bound:
                            key = (sd.d_m.add(alpha, hm), e_f + e_t)
                            out[key] = out.get(key, 0j) + c_f * c_t
    return {k: c for k, c in out.items() if c != 0}


def _glue_cases(a1, a1_neg, a2):
    a1a1 = direct_sum(a1, a1)
    yield "a1a1", a1a1, sublattice(a1a1, [(1, 0)])
    lam = direct_sum(direct_sum(a1_neg, a1_neg), a1)
    emb = overlattice_from_isotropic(lam, check_isotropic(discriminant_group(lam),
                                                          [(1, 0, 1)]))
    glued3 = emb.big
    yield "glued3", glued3, sublattice(glued3, [[int(x) for x in emb.big_coords(e)]
                                                for e in ([1, 0, 0], [0, 1, 0])])
    glued5 = construct_lattice([[2, 1, 0, 0, 0], [1, 2, 0, 0, 0], [0, 0, 2, 1, 0],
                                [0, 0, 1, 2, 0], [0, 0, 0, 0, -2]])
    yield "glued5", glued5, sublattice(glued5, [[1, 0, -1, 0, 0], [0, 1, 0, -1, 0],
                                                [0, 0, 0, 0, 1]])
    a2a2 = direct_sum(a2, a2)
    yield "a2a2_diagonal", a2a2, sublattice(a2a2, [[1, 0, 1, 0], [0, 1, 0, 1]])


def test_contract_symbolic_matches_glue_sum(a1, a1_neg, a2, glue_class):
    # the symbolic contraction against the glue-coset sum on four splittings,
    # with a constant, a linear and (rank >= 2) a harmonic degree-2 polynomial
    from vvtheta.exact import mod1

    rng = random.Random(17)
    for name, lat, m_sub in _glue_cases(a1, a1_neg, a2):
        dl = discriminant_group(lat)
        form = QExpansionForm(lat, F(-1, 2), {
            (x, mod1(-dl.q(x)) + shift): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for x in dl.elements() for shift in (-1, 0, 1)})
        rank = orthogonal_complement(lat, m_sub).rank
        polys = [constant_poly(rank, 0), coordinate_poly(rank, 0, 0)]
        if rank >= 2:
            polys.append(HomogeneousPolynomial((2, 0), rank, 0, {
                (1, 1) + (0,) * (rank - 2): 1.0,
                (2, 0) + (0,) * (rank - 2): 0.5, (0, 2) + (0,) * (rank - 2): -0.5}))
        for poly in polys:
            got = contract_symbolic(form, lat, m_sub, _complement_point(lat, m_sub), poly,
                                    3.0).terms
            expected = _glue_sum_reference(form, lat, m_sub, poly, 3.0, glue_class)
            assert set(got) == set(expected), (name, poly)
            for key, c in expected.items():
                assert abs(got[key] - c) <= 1e-12 * (1 + abs(c)), (name, poly, key)


# ---------------------------------------------------------------------------
# lift integrand and restriction

def test_lift_integrand_invariance(ii11):
    v = make_grassmann_point(ii11, [[1, 1]])
    p = constant_poly(1, 1)
    d = discriminant_group(ii11)
    one = RepVector((Axis(d, dual=True),), {((),): 1.0})
    tau = 0.27 + 0.93j

    def integrand(t):
        # <Theta_L(t; v, p), F> at s = 0, for the constant form F = 1
        return pair(siegel_theta(ii11, t, v, p, None, 30.0).value, one, groups=[d])

    base = integrand(tau)
    shifted = integrand(tau + 1)
    inverted = integrand(-1 / tau)
    assert abs(base - shifted) < 1e-9
    assert abs(base - inverted) < 1e-6


def test_restriction_identity(ii11_split):
    ii11, m_sub, mperp, u, u_perp = ii11_split
    form = QExpansionForm(ii11, F(0), {((), F(0)): 1.0})
    rng = random.Random(11)
    taus = [complex(rng.uniform(-0.45, 0.45), rng.uniform(0.8, 1.4))
            for _ in range(10)]
    seesaw = Seesaw(ii11, m_sub, u, u_perp, constant_poly(0, 1), constant_poly(1, 0))
    assert max(seesaw_restriction_residuals(seesaw, form, taus, 14.0)) < 1e-8


def test_contraction_certificates_sum_the_tables_read(ii11_split):
    # the restriction residual carries the tails of Theta_L, the mixed theta
    # and Theta_M; the contraction residual those of the pointwise mixed
    # table and of the symbolic one, which a principal part (q^-1 here)
    # reads one unit further
    ii11, m_sub, mperp, u, u_perp = ii11_split
    form = QExpansionForm(ii11, F(0), {((), F(-1)): 1.0, ((), F(0)): 2.0})
    taus, bound = [0.2 + 1.1j, -0.37 + 0.9j], 3.0
    seesaw = Seesaw(ii11, m_sub, u, u_perp, constant_poly(0, 1), constant_poly(1, 0))
    tables = {name: getattr(seesaw, name).evaluator(None, bound)
              for name in ("theta_l", "mixed", "theta_m")}
    restriction = seesaw_restriction_residuals(seesaw, form, taus, bound)
    assert [r.certificate for r in restriction] == \
        [sum(ev.tail(t.imag) for ev in tables.values()) for t in taus]
    contraction = seesaw_contraction_residuals(seesaw, form, taus, bound)
    symbolic = seesaw.mixed.evaluator(None, bound + 1)
    assert [r.certificate for r in contraction] == \
        [tables["mixed"].tail(t.imag) + symbolic.tail(t.imag) for t in taus]
    assert all(symbolic.tail(t.imag) < tables["mixed"].tail(t.imag) for t in taus)
    # the residual is the symbolic contraction against the pointwise one
    want = contract_symbolic(form, ii11, m_sub, u_perp, constant_poly(1, 0), bound)
    assert [float(r) for r in contraction] == \
        [(want.evaluate(t) - pw).norm_inf()
         for t, pw in zip(taus, seesaw_contractions(seesaw, form, taus, bound))]


def test_restriction_block_sum_exact(a1a1_split):
    lat, m_sub, mperp, u, u_perp = a1a1_split
    form = QExpansionForm(lat, F(-1), {
        ((0, 0), F(0)): 1.0,
        ((1, 1), F(1, 2)): 3.0 - 1.0j,
    })
    taus = [0.3 + 1.0j, -0.2 + 0.9j]
    seesaw = Seesaw(lat, m_sub, u, u_perp, constant_poly(1, 0), constant_poly(1, 0))
    assert max(seesaw_restriction_residuals(seesaw, form, taus, 12.0)) < 1e-10


def test_restriction_with_large_polynomial_values(ii11_split):
    # p_uperp = x^14 makes the polynomial values large; p_v = p_u p_uperp
    # holds by construction, so the residuals stay at rounding size
    ii11, m_sub, mperp, u, u_perp = ii11_split
    x14 = HomogeneousPolynomial((14, 0), 1, 0, {(14,): 1.0})
    seesaw = Seesaw(ii11, m_sub, u, u_perp, constant_poly(0, 1), x14)
    form = QExpansionForm(ii11, F(-7), {((), F(0)): 1.0})
    residuals = seesaw_restriction_residuals(seesaw, form, [0.2 + 1.1j, -0.37 + 0.9j], 10.0)
    assert max(residuals) < 1e-12


def test_naive_lift(ii11_split):
    ii11, m_sub, mperp, u, u_perp = ii11_split
    zero = QExpansionForm(ii11, F(0), {})
    v = make_grassmann_point(ii11, [[1, 1]])
    p = constant_poly(1, 1)
    val, err = naive_truncated_lift(zero, ii11, v, p, 3.0, 8, 10.0)
    assert val == 0
    one = QExpansionForm(ii11, F(0), {((), F(0)): 1.0})
    coarse, err_c = naive_truncated_lift(one, ii11, v, p, 3.0, 16, 10.0)
    fine, err_f = naive_truncated_lift(one, ii11, v, p, 3.0, 32, 10.0)
    assert err_f < err_c
    # the two sides of the restriction identity integrate to the same number
    def contracted(tau):
        return contract_pointwise(one, ii11, m_sub, u_perp,
                                  constant_poly(1, 0), tau, 10.0)
    lift_m, _ = naive_truncated_lift(contracted, m_sub.lattice, u,
                                     constant_poly(0, 1), 3.0, 32, 10.0)
    assert abs(fine - lift_m) < 1e-9 + err_f


@pytest.mark.parametrize("y_max, grid_n", [(3.0, 0), (3.0, -3), (4.0, 1), (0.5, 8),
                                           (math.nan, 8), (0.9, 2)])
def test_naive_lift_rejects_empty_grid(ii11, y_max, grid_n):
    # the library twin of the naive-lift command's test: no cell, a single
    # cell with no coarser grid to compare, nothing above y = sqrt(3)/2, or
    # no midpoint with |tau| >= 1 is EmptyGrid, not a quadrature of nothing
    one = QExpansionForm(ii11, F(0), {((), F(0)): 1.0})
    v = make_grassmann_point(ii11, [[1, 1]])
    with pytest.raises(EmptyGrid):
        naive_truncated_lift(one, ii11, v, constant_poly(1, 1), y_max, grid_n)


def test_contract_pointwise_builds_once_across_taus(a1a1_split, monkeypatch):
    # four taus on the same objects make one mixed theta table, and every
    # value is bit for bit the batched seesaw contraction of a fresh table
    import vvtheta.theta as theta_mod

    lat, m_sub, mperp, u, u_perp = a1a1_split
    p_u, p_uperp = constant_poly(1, 0), constant_poly(1, 0)
    form = QExpansionForm(lat, F(-1), {((0, 0), F(0)): 1.0, ((1, 1), F(1, 2)): 3.0 - 1.0j})
    taus = TAUS[:4]
    calls = []
    original = theta_mod.build_term_table

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(theta_mod, "build_term_table", counted)
    got = [contract_pointwise(form, lat, m_sub, u_perp, p_uperp, t, 8.0) for t in taus]
    assert len(calls) == 1
    fresh = make_grassmann_point(mperp.lattice, [[1]])
    want = seesaw_contractions(Seesaw(lat, m_sub, u, fresh, p_u, p_uperp), form, taus, 8.0)
    assert len(calls) == 2
    for g, w in zip(got, want):
        assert np.array_equal(g.array, w.array)


# ---------------------------------------------------------------------------
# weight bookkeeping and pairings of modular forms

def test_expected_weights_examples():
    info = expected_weights(F(0), (1, 1), (0, 1), (0, 0), (0, 0))
    assert info["mixed_theta"] == F(1, 2)
    assert info["contraction"] == F(1, 2)
    assert info["consistent"]
    same = expected_weights(F(-3, 2), (2, 1), (2, 1), (1, 0), (1, 0))
    assert same["mixed_theta"] == 0
    assert same["paired"] == F(-3, 2)
    with pytest.raises(InconsistentDegrees):
        expected_weights(F(0), (1, 1), (2, 1), (0, 0), (0, 0))
    with pytest.raises(InconsistentDegrees):
        expected_weights(F(0), (2, 1), (1, 1), (1, 0), (2, 0))


def test_expected_weights_intro_instantiation():
    # ambient weight 1 - n/2 + m maps to contraction weight 1 - l/2 + m
    for n, l, m in [(4, 2, 1), (6, 4, 2), (3, 1, 0)]:
        f_weight = F(2 - n, 2) + m
        info = expected_weights(f_weight, (n, 2), (l, 2), (0, m), (0, m))
        assert f_weight == 1 - F(n, 2) + m
        assert info["consistent"]
        assert info["contraction"] == 1 - F(l, 2) + m


def test_contraction_is_modular(ii11_split):
    # the contraction of a genuinely modular input transforms like a form of
    # weight (c- - c+)/2 + n- - n+ under the dual representation of D_M
    ii11, m_sub, mperp, u, u_perp = ii11_split
    form = QExpansionForm(ii11, F(0), {((), F(0)): 1.0})
    p = constant_poly(1, 0)
    mixed = mixed_theta_family(ii11, m_sub, u_perp, p)

    class Contraction:
        """The contraction as a function of tau, read by modularity_defects
        like a theta family; it has no shift pair, so the pair is ignored."""

        rank = ii11.rank

        def evaluator(self, pair, bound):
            return SimpleNamespace(
                vectors=lambda taus: [contract_pointwise(form, ii11, m_sub, u_perp, p,
                                                         tau, bound) for tau in taus],
                tails=mixed.evaluator(None, bound).tails)

    for g, tol in [(MP_T, 1e-10), (MP_S, 1e-6)]:
        assert modularity_defects(Contraction(), g, [0.2 + 1.1j], 1, None, 20.0)[0] < tol


def _reindex_axis(vec, axis_index, new_group, new_dual):
    """Reindex one axis through the canonical element identification: elements
    are matched by their dual-vector lifts, so a vector over the group of a
    rescaled lattice is viewed as a dual-axis vector over the original group."""
    old_group = vec.axes[axis_index].group
    mapping = element_identification(old_group, new_group)
    target = new_group.index(mapping.apply(old_group.element_array()))
    assert sorted(target.tolist()) == list(range(new_group.order))
    new_axes = vec.axes[:axis_index] + (Axis(new_group, new_dual),) \
        + vec.axes[axis_index + 1:]
    return RepVector.from_array(new_axes, vec.array.take(np.argsort(target), axis_index))


def test_pair_of_modular_forms_weight_zero(a1, a1_neg):
    # <Theta_A1, Theta_A1(-1)> has weight 0 and trivial representation; the
    # rescaled-lattice theta is reindexed onto the dual axis over D_A1
    va = make_grassmann_point(a1, [[1]])
    vn = make_grassmann_point(a1_neg, [])
    pa = constant_poly(1, 0)
    pn = constant_poly(0, 1)
    da = discriminant_group(a1)

    def h(tau):
        ta = siegel_theta(a1, tau, va, pa, None, 24.0)
        tn = siegel_theta(a1_neg, tau, vn, pn, None, 24.0)
        return pair(ta.value, _reindex_axis(tn.value, 0, da, True), groups=[da])

    tau = 0.2 + 1.1j
    for g in (MP_T, MP_S):
        assert abs(h(g.act(tau)) - h(tau)) < 1e-6
