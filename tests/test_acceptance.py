"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here, not computed.
"""

import random
import time
from fractions import Fraction as F

import numpy as np

from vvtheta import (
    Axis,
    NotIsotropic,
    NotPrimitive,
    QExpansionForm,
    RepVector,
    build_term_table,
    check_isotropic,
    constant_poly,
    construct_lattice,
    contract_pointwise,
    contract_symbolic,
    direct_sum,
    disc_product_iso,
    discriminant_group,
    down_arrow,
    expected_weights,
    gauss_sum_check,
    glue_map,
    make_grassmann_point,
    mixed_theta_composed,
    mixed_theta_direct,
    mixed_theta_family,
    modularity_defects,
    naive_truncated_lift,
    orthogonal_complement,
    rescale,
    rho_apply,
    rho_generator,
    Seesaw,
    seesaw_restriction_residuals,
    siegel_theta,
    siegel_theta_family,
    split_data,
    sublattice,
    up_arrow,
)
from vvtheta.contraction import _q_series
from vvtheta.discforms import overlattice_from_isotropic
from vvtheta.grassmann import coordinate_poly
from vvtheta.theta import _Cosets
from vvtheta.weil import MP_IDENTITY, MP_S, MP_T, mp_power

TAUS = [0.2 + 1.1j, -0.37 + 0.9j]


def _theta_series_coset(perp_lat, u_perp, poly, coset_vec, bound) -> dict:
    """Exact-exponent q-series of one coset of a positive definite lattice."""
    table = build_term_table(perp_lat, u_perp, [poly], _Cosets(perp_lat, [((), coset_vec)]),
                             None, bound)
    return _q_series(table).get(0, {})


def _report(num, desc, ok, detail, budget, elapsed):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[criterion {num:2d}] {status} {desc} ({detail}; {elapsed:.2f}s/{budget:.0f}s)")
    assert ok, f"criterion {num} failed: {desc} ({detail})"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)"


def _test_lattices():
    a1 = construct_lattice([[2]], name="A1")
    a1n = rescale(a1, -1, name="A1(-1)")
    return [a1, a1n, direct_sum(a1, a1n), construct_lattice([[2, 1], [1, 2]]),
            construct_lattice([[0, 1], [1, 0]])]


def test_criterion_01_weil_relations():
    start = time.monotonic()
    worst = 0.0
    for lat in _test_lattices():
        d = discriminant_group(lat)
        n = d.order
        t = rho_generator(d, "T")
        s = rho_generator(d, "S")
        z = rho_generator(d, "Z")
        worst = max(worst, float(np.abs(s @ s - z).max()))
        worst = max(worst, float(np.abs(np.linalg.matrix_power(s @ t, 3) - z).max()))
        worst = max(worst, float(np.abs(np.linalg.matrix_power(z, 4) - np.eye(n)).max()))
        worst = max(worst, float(np.abs(s.conj().T @ s - np.eye(n)).max()))
    _report(1, "generator relations and unitarity on all test lattices",
            worst < 1e-10, f"max defect {worst:.2e} < 1e-10",
            1.0, time.monotonic() - start)


def test_criterion_02_gauss_sums():
    start = time.monotonic()
    ok = True
    for lat in _test_lattices():
        ok = ok and gauss_sum_check(discriminant_group(lat), lat.sig_plus,
                                    lat.sig_minus, tol=1e-10)
    _report(2, "Milgram sum matches the octic phase on every test form",
            ok, "all sums within 1e-10", 1.0, time.monotonic() - start)


def test_criterion_03_arrow_suite():
    start = time.monotonic()
    a1 = construct_lattice([[2]], name="A1")
    lam = direct_sum(a1, rescale(a1, -1))
    d = discriminant_group(lam)
    emb = overlattice_from_isotropic(lam, check_isotropic(d, [(1, 1)]))
    gm = glue_map(emb)
    rng = random.Random(17)
    words = [MP_T, MP_S]
    for _ in range(5):
        g = MP_IDENTITY
        for _k in range(rng.randint(2, 6)):
            g = g * rng.choice([MP_T, MP_S, mp_power(MP_T, -1)])
        words.append(g)
    worst = 0.0
    exact_ok = True
    for gamma in gm.big_disc.elements():
        v = RepVector.basis_vector((Axis(gm.big_disc),), (gamma,))
        round_trip = down_arrow(gm, up_arrow(gm, v))
        exact_ok = exact_ok and \
            round_trip.coeffs == {(gamma,): complex(gm.subgroup.order)}
    for g in words:
        for key in gm.small_disc.elements():
            v = RepVector.basis_vector((Axis(gm.small_disc),), (key,))
            worst = max(worst, (rho_apply(g, down_arrow(gm, v))
                                - down_arrow(gm, rho_apply(g, v))).norm_inf())
        for gamma in gm.big_disc.elements():
            w = RepVector.basis_vector((Axis(gm.big_disc),), (gamma,))
            worst = max(worst, (rho_apply(g, up_arrow(gm, w))
                                - up_arrow(gm, rho_apply(g, w))).norm_inf())
    _report(3, "glue intertwiners commute with the action; down o up = |H| id",
            worst < 1e-10 and exact_ok,
            f"intertwining defect {worst:.2e} < 1e-10, round trip exact",
            1.0, time.monotonic() - start)


def test_criterion_04_theta_modularity():
    start = time.monotonic()
    bound = 30.0
    a1 = construct_lattice([[2]], name="A1")
    ii = construct_lattice([[0, 1], [1, 0]], name="II11")
    v_a1 = make_grassmann_point(a1, [[1]])
    v_ii = make_grassmann_point(ii, [[1, 1]])
    alpha = [F(1, 3), F(1, 5)]
    beta = [F(1, 2), F(1, 7)]
    cases = [
        (siegel_theta_family(a1, v_a1, constant_poly(1, 0)), 1, None),
        (siegel_theta_family(ii, v_ii, constant_poly(1, 1)), 0, None),
        (siegel_theta_family(ii, v_ii, constant_poly(1, 1)), 0, (alpha, beta)),
        (siegel_theta_family(ii, v_ii, coordinate_poly(1, 1, 0)), 2, (alpha, beta)),
    ]
    worst_t, worst_s = 0.0, 0.0
    for fam, k, pair in cases:
        worst_t = max(worst_t, *modularity_defects(fam, MP_T, TAUS, k, pair, bound,
                                                   tolerance=1e-7))
        worst_s = max(worst_s, *modularity_defects(fam, MP_S, TAUS, k, pair, bound,
                                                   tolerance=1e-7))
    ok = worst_t < 1e-10 and worst_s < 1e-6
    _report(4, "theta transformation law under T and S (certified tails < 1e-8)",
            ok, f"T defect {worst_t:.2e} < 1e-10, S defect {worst_s:.2e} < 1e-6",
            30.0, time.monotonic() - start)


def _splits():
    ii = construct_lattice([[0, 1], [1, 0]], name="II11")
    m1 = sublattice(ii, [(1, -1)])
    a1 = construct_lattice([[2]], name="A1")
    aa = direct_sum(a1, a1)
    m2 = sublattice(aa, [(1, 0)])
    return [
        (ii, m1, make_grassmann_point(m1.lattice, []),
         make_grassmann_point(orthogonal_complement(ii, m1).lattice, [[1]])),
        (aa, m2, make_grassmann_point(m2.lattice, [[1]]),
         make_grassmann_point(orthogonal_complement(aa, m2).lattice, [[1]])),
    ]


def test_criterion_05_seesaw():
    start = time.monotonic()
    bound = 14.0
    rng = random.Random(29)
    worst = 0.0
    for lat, m_sub, u, u_perp in _splits():
        mlat = m_sub.lattice
        polys = [(constant_poly(mlat.sig_plus, mlat.sig_minus),
                  constant_poly(u_perp.dim_plus, u_perp.dim_minus), None)]
        shifted = ([F(1, 3), F(2, 5)], [F(1, 2), F(-1, 7)])
        if mlat.sig_minus:  # degree (0,1) factor with nonzero shifts
            polys.append((coordinate_poly(0, 1, 0),
                          constant_poly(u_perp.dim_plus, u_perp.dim_minus), shifted))
        else:
            polys.append((coordinate_poly(1, 0, 0),
                          constant_poly(u_perp.dim_plus, u_perp.dim_minus), shifted))
        for p_u, p_p, ab in polys:
            seesaw = Seesaw(lat, m_sub, u, u_perp, p_u, p_p)
            for tau in TAUS:
                worst = max(worst, seesaw.split_residuals([tau], ab, bound)[0])
                worst = max(worst, seesaw.pairing_residuals([tau], ab, bound)[0])
        dl = discriminant_group(lat)
        test_vec = RepVector((Axis(dl, dual=True),),
                             {(x,): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                              for x in dl.elements()})
        r1, r2 = Seesaw(lat, m_sub, u, u_perp, polys[-1][0], polys[-1][1]) \
            .pairing_expression_residuals([TAUS[0]], test_vec, shifted, bound)[0]
        worst = max(worst, r1, r2)
    _report(5, "seesaw identities (split, pairing, both re-expressions)",
            worst < 1e-9, f"max residual {worst:.2e} < 1e-9",
            30.0, time.monotonic() - start)


def test_criterion_06_mixed_theta():
    start = time.monotonic()
    bound = 20.0
    worst_cross = 0.0
    for lat, m_sub, u, u_perp in _splits():
        p = constant_poly(u_perp.dim_plus, u_perp.dim_minus)
        for tau in TAUS:
            d1 = mixed_theta_direct(lat, m_sub, tau, u_perp, p, None, bound)
            d2 = mixed_theta_composed(lat, m_sub, tau, u_perp, p, None, bound)
            tol = 1e-9 + d1.tail_estimate + d2.tail_estimate
            worst_cross = max(worst_cross, (d1.value - d2.value).norm_inf() / tol * 1e-9)
    ii, m1, _u, u_perp = _splits()[0]
    fam = mixed_theta_family(ii, m1, u_perp, constant_poly(1, 0))
    worst_t = max(modularity_defects(fam, MP_T, TAUS, 1, None, bound))
    worst_s = max(modularity_defects(fam, MP_S, TAUS, 1, None, bound))
    ok = worst_cross < 1e-9 and worst_t < 1e-10 and worst_s < 1e-6
    _report(6, "mixed theta: independent constructions and transformation law",
            ok, f"cross {worst_cross:.2e} < 1e-9, T {worst_t:.2e} < 1e-10, "
                f"S {worst_s:.2e} < 1e-6",
            30.0, time.monotonic() - start)


def test_criterion_07_contraction(glue_class):
    start = time.monotonic()
    taus = [0.2 + 1.1j, -0.37 + 0.9j, 0.05 + 1.3j, 0.41 + 0.85j, -0.11 + 1.02j]
    worst = 0.0
    # trivial glue configuration
    a1 = construct_lattice([[2]], name="A1")
    aa = direct_sum(a1, a1)
    m2 = sublattice(aa, [(1, 0)])
    u_perp2 = make_grassmann_point(orthogonal_complement(aa, m2).lattice, [[1]])
    form2 = QExpansionForm(aa, F(0), {
        ((0, 0), F(0)): 1.0, ((0, 0), F(1)): -3.0 + 2j,
        ((1, 0), F(3, 4)): 2.0, ((1, 1), F(1, 2)): 0.5j})
    result2 = contract_symbolic(form2, aa, m2, u_perp2, constant_poly(1, 0), 8.0)
    for tau in taus:
        pw = contract_pointwise(form2, aa, m2, u_perp2, constant_poly(1, 0), tau, 8.0)
        worst = max(worst, (result2.evaluate(tau) - pw).norm_inf())
    # unimodular ambient: f * theta of the complement, structurally
    ii = construct_lattice([[0, 1], [1, 0]], name="II11")
    m1 = sublattice(ii, [(1, -1)])
    mperp1 = orthogonal_complement(ii, m1)
    u_perp1 = make_grassmann_point(mperp1.lattice, [[1]])
    form1 = QExpansionForm(ii, F(0), {((), F(0)): 2.0, ((), F(1)): -24.0})
    result1 = contract_symbolic(form1, ii, m1, u_perp1, constant_poly(1, 0), 8.0)
    d_perp1 = discriminant_group(mperp1.lattice)
    structural_unimodular = True
    for delta in d_perp1.elements():
        series = _theta_series_coset(mperp1.lattice, u_perp1, constant_poly(1, 0),
                                     d_perp1.dual_vector(delta), 8.0)
        expect = {}
        for e_f, c_f in [(F(0), 2.0), (F(1), -24.0)]:
            for e_t, c_t in series.items():
                if e_f + e_t <= 8:
                    expect[e_f + e_t] = expect.get(e_f + e_t, 0j) + c_f * c_t
        got = {e: c for (cs, e), c in result1.terms.items() if cs == delta}
        structural_unimodular = structural_unimodular and \
            set(got) == set(expect) and \
            all(abs(got[k] - expect[k]) < 1e-12 for k in got)
    for tau in taus:
        pw = contract_pointwise(form1, ii, m1, u_perp1, constant_poly(1, 0), tau, 8.0)
        worst = max(worst, (result1.evaluate(tau) - pw).norm_inf())
    # glue with surjective complement projection: F tensor theta, structurally
    a1n = rescale(a1, -1)
    lam3 = direct_sum(direct_sum(a1n, a1n), a1)
    d3 = discriminant_group(lam3)
    emb3 = overlattice_from_isotropic(lam3, check_isotropic(d3, [(1, 0, 1)]))
    big3 = emb3.big
    m3 = sublattice(big3, [[int(x) for x in emb3.big_coords([1, 0, 0])],
                           [int(x) for x in emb3.big_coords([0, 1, 0])]])
    sd3 = split_data(big3, m3)
    u_perp3 = make_grassmann_point(sd3.mperp_sub.lattice, [[1]])
    dl3 = discriminant_group(big3)
    from vvtheta.exact import mod1

    nonzero = next(x for x in dl3.elements() if x != dl3.zero())
    form3 = QExpansionForm(big3, F(0), {
        (dl3.zero(), F(0)): 1.0, (dl3.zero(), F(1)): 3.0,
        (nonzero, mod1(-dl3.q(nonzero))): -2.0})
    result3 = contract_symbolic(form3, big3, m3, u_perp3, constant_poly(1, 0), 6.0)
    combine3, split_m3, split_perp3 = disc_product_iso(sd3.d_inner, sd3.d_m, sd3.d_perp)
    h_elems = sd3.gm.subgroup.elements
    hm_list = [split_m3(x) for x in h_elems]
    hm_perp = [x for x in sd3.d_m.elements()
               if all(sd3.d_m.b(x, hm) == 0 for hm in hm_list)]
    expected3 = {}
    for alpha in hm_perp:
        gamma_l = glue_class(sd3.gm, combine3(alpha + sd3.d_perp.zero()))
        comp = form3.component(gamma_l)
        for h_el in h_elems:
            hm, hp = split_m3(h_el), split_perp3(h_el)
            dm = sd3.d_m.add(alpha, hm)
            series = _theta_series_coset(sd3.mperp_sub.lattice, u_perp3,
                                         constant_poly(1, 0),
                                         sd3.d_perp.dual_vector(hp), 6.0)
            for e_f, c_f in comp.items():
                for e_t, c_t in series.items():
                    if e_f + e_t <= 6:
                        key = (dm, e_f + e_t)
                        expected3[key] = expected3.get(key, 0j) + c_f * c_t
    structural_tensor = set(expected3) == set(result3.terms) and \
        all(abs(expected3[k] - result3.terms[k]) < 1e-12 for k in expected3)
    # unimodular complement: pointwise contraction equals theta-scalar times F
    big4 = direct_sum(a1, ii)
    m4 = sublattice(big4, [(1, 0, 0)])
    mperp4 = orthogonal_complement(big4, m4)
    u_perp4 = make_grassmann_point(mperp4.lattice, [[1, 1]])
    form4 = QExpansionForm(big4, F(1, 2), {((0,), F(0)): 1.0, ((1,), F(3, 4)): 5.0})
    structural_scalar = True
    for tau in taus[:2]:
        scalar = siegel_theta(mperp4.lattice, tau, u_perp4, constant_poly(1, 1),
                              None, 10.0).value.get(((),))
        pw = contract_pointwise(form4, big4, m4, u_perp4, constant_poly(1, 1),
                                tau, 10.0)
        f_vec = form4.evaluate(tau)
        for dm in discriminant_group(m4.lattice).elements():
            structural_scalar = structural_scalar and \
                abs(pw.get((dm,)) - scalar * f_vec.get((dm,))) < 1e-10
    ok = worst < 1e-9 and structural_unimodular and structural_tensor \
        and structural_scalar
    _report(7, "contraction: symbolic = pointwise; closed forms reproduced",
            ok, f"max residual {worst:.2e} < 1e-9, structures exact",
            10.0, time.monotonic() - start)


def test_criterion_08_restriction():
    start = time.monotonic()
    ii = construct_lattice([[0, 1], [1, 0]], name="II11")
    m1 = sublattice(ii, [(1, -1)])
    u = make_grassmann_point(m1.lattice, [])
    u_perp = make_grassmann_point(orthogonal_complement(ii, m1).lattice, [[1]])
    form = QExpansionForm(ii, F(0), {((), F(0)): 1.0})
    rng = random.Random(41)
    taus = [complex(rng.uniform(-0.45, 0.45), rng.uniform(0.8, 1.4))
            for _ in range(10)]
    seesaw = Seesaw(ii, m1, u, u_perp, constant_poly(0, 1), constant_poly(1, 0))
    residual = max([0.0] + seesaw_restriction_residuals(seesaw, form, taus, 14.0))
    from vvtheta import direct_sum_grassmann, lift_product

    sd = split_data(ii, m1)
    v = direct_sum_grassmann(sd.m_sub, sd.mperp_sub, u, u_perp)
    p_v = lift_product(constant_poly(0, 1), constant_poly(1, 0))
    lift_big, err_big = naive_truncated_lift(form, ii, v, p_v, 3.0, 24, 12.0)

    def contracted(tau):
        return contract_pointwise(form, ii, m1, u_perp, constant_poly(1, 0),
                                  tau, 12.0)

    lift_small, err_small = naive_truncated_lift(contracted, m1.lattice, u,
                                                 constant_poly(0, 1), 3.0, 24, 12.0)
    quad_gap = abs(lift_big - lift_small)
    ok = residual < 1e-8 and quad_gap <= 1e-9 + err_big + err_small
    _report(8, "lift restriction at integrand level and under naive quadrature",
            ok, f"integrand residual {residual:.2e} < 1e-8, "
                f"lift gap {quad_gap:.2e} within estimates",
            60.0, time.monotonic() - start)


def test_criterion_09_weights():
    start = time.monotonic()
    ok = True
    for n, l, m in [(4, 2, 1), (6, 4, 2), (3, 1, 0), (5, 3, 2)]:
        f_weight = 1 - F(n, 2) + m
        info = expected_weights(f_weight, (n, 2), (l, 2), (0, m), (0, m))
        ok = ok and info["consistent"] and info["contraction"] == 1 - F(l, 2) + m \
            and info["paired"] == info["contraction"]
    configs = [((1, 1), (0, 1), (0, 0), (0, 0)),
               ((2, 0), (1, 0), (1, 0), (0, 0)),
               ((1, 2), (1, 1), (0, 2), (0, 1)),
               ((2, 2), (2, 2), (1, 1), (1, 1))]
    for sig_big, sig_sub, deg_big, deg_sub in configs:
        fw = F(sig_big[1] - sig_big[0], 2) + deg_big[1] - deg_big[0]
        info = expected_weights(fw, sig_big, sig_sub, deg_big, deg_sub)
        ok = ok and info["consistent"] and info["paired"] == info["contraction"]
    _report(9, "weight bookkeeping and pairing additivity",
            ok, "all instantiations consistent", 1.0, time.monotonic() - start)


def test_criterion_10_negative_controls():
    start = time.monotonic()
    a1 = construct_lattice([[2]], name="A1")
    v = make_grassmann_point(a1, [[1]])
    fam = siegel_theta_family(a1, v, constant_poly(1, 0))
    wrong_ok = True
    for dk in (-2, -1, 1, 2):
        [defect] = modularity_defects(fam, MP_S, [0.2 + 1.1j], 1 + dk, None, 30.0)
        wrong_ok = wrong_ok and defect > 1e-3
    lam = direct_sum(a1, a1)
    rejected_glue = False
    try:
        check_isotropic(discriminant_group(lam), [(1, 1)])
    except NotIsotropic:
        rejected_glue = True
    ii = construct_lattice([[0, 1], [1, 0]])
    rejected_sub = False
    try:
        sublattice(ii, [(2, -2)])
    except NotPrimitive:
        rejected_sub = True
    ok = wrong_ok and rejected_glue and rejected_sub
    _report(10, "negative controls: wrong weights, bad glue, bad sublattice",
            ok, "all rejected as required", 30.0, time.monotonic() - start)
