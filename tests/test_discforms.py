import math
from fractions import Fraction as F

import numpy as np
import pytest

from vvtheta import (
    MismatchedSignature,
    NotInDual,
    NotIsotropic,
    check_isotropic,
    construct_lattice,
    direct_sum,
    disc_product_iso,
    discriminant_group,
    element_identification,
    gauss_sum_check,
    glue_map,
    orthogonal_elements,
    orthogonal_subgroup,
    rescale,
    split_data,
    sublattice,
    two_pi_e,
)
from vvtheta import exact
from vvtheta.discforms import gauss_sum_residual, lift_map, overlattice_from_isotropic
from vvtheta.exact import mod1


def test_group_structure(a1, ii11, a2):
    d1 = discriminant_group(a1)
    assert d1.elementary_divisors == (2,)
    assert d1.q((1,)) == F(1, 4)
    assert discriminant_group(ii11).elementary_divisors == ()
    d2 = discriminant_group(a2)
    assert d2.elementary_divisors == (3,)
    assert sorted(d2.q(x) for x in d2.elements()) == [0, F(1, 3), F(1, 3)]


def test_enumeration_count(test_lattices):
    for lat in test_lattices:
        d = discriminant_group(lat)
        count = 1
        for div in d.elementary_divisors:
            count *= div
        assert len(d.elements()) == count == d.order


def test_dual_vector_integrality(test_lattices):
    # d_i * generator lies in the lattice
    for lat in test_lattices:
        d = discriminant_group(lat)
        for div, gen in zip(d.elementary_divisors, d.generators):
            assert all((div * g).denominator == 1 for g in gen)


def test_from_dual_roundtrip(test_lattices):
    for lat in test_lattices:
        d = discriminant_group(lat)
        for x in d.elements():
            assert d.from_dual(d.dual_vector(x)) == x
    with pytest.raises(NotInDual):
        discriminant_group(construct_lattice([[2]])).from_dual([F(1, 3)])


def test_isotropic_subgroups(a1_plus_a1neg, a1_plus_a1):
    d = discriminant_group(a1_plus_a1neg)
    triv = check_isotropic(d, [])
    assert triv.order == 1
    h = check_isotropic(d, [(1, 1)])
    assert h.order == 2
    with pytest.raises(NotIsotropic):
        check_isotropic(discriminant_group(a1_plus_a1), [(1, 1)])


def test_orthogonal_subgroup(a1_plus_a1neg):
    d = discriminant_group(a1_plus_a1neg)
    triv = check_isotropic(d, [])
    assert len(orthogonal_subgroup(triv)) == d.order
    h = check_isotropic(d, [(1, 1)])
    perp = orthogonal_subgroup(h)
    assert sorted(perp) == sorted(h.elements)


def test_orthogonal_subgroup_order_product(test_lattices):
    # |H| * |H perp| = |D| for subgroups generated by any single element; the
    # integer complement of any list of elements equals the Fraction filter
    for lat in test_lattices:
        d = discriminant_group(lat)
        assert orthogonal_elements(d, []) == d.elements()
        for x in d.elements():
            for y in d.elements():
                assert orthogonal_elements(d, [x, y]) == [
                    z for z in d.elements() if d.b(z, x) == 0 and d.b(z, y) == 0]
            if d.q(x) != 0:
                continue
            h = check_isotropic(d, [x])
            assert len(orthogonal_subgroup(h)) * h.order == d.order


def test_bilinear_kernel_unitary(test_lattices):
    # the matrix [e(b(x,y))] is sqrt(|D|) times a unitary matrix
    for lat in test_lattices:
        d = discriminant_group(lat)
        elements = d.elements()
        n = d.order
        mat = np.array([[two_pi_e(d.b(x, y)) for y in elements] for x in elements])
        assert np.abs(mat @ mat.conj().T - n * np.eye(n)).max() < 1e-9


def test_gauss_sums(a1, a1_neg, ii11, a2):
    d1 = discriminant_group(a1)
    assert gauss_sum_check(d1, 1, 0)
    total = sum(two_pi_e(d1.q(x)) for x in d1.elements())
    assert abs(total - (1 + 1j)) < 1e-12
    dn = discriminant_group(a1_neg)
    assert gauss_sum_check(dn, 0, 1)
    total = sum(two_pi_e(dn.q(x)) for x in dn.elements())
    assert abs(total - (1 - 1j)) < 1e-12
    assert gauss_sum_check(discriminant_group(ii11), 1, 1)
    assert gauss_sum_check(discriminant_group(a2), 2, 0)


def test_gauss_sum_mismatch(a1):
    with pytest.raises(MismatchedSignature):
        gauss_sum_check(discriminant_group(a1), 0, 1)


def test_enumeration_cap_enforced():
    from vvtheta import EnumerationCapExceeded

    big = discriminant_group(construct_lattice([[20002]]))
    with pytest.raises(EnumerationCapExceeded):
        big.elements()
    assert len(big.elements(cap=None)) == 20002


def test_glue_group_matches_direct_computation(a1, a1_neg):
    # cosets of H in H-perp carry the same multiset of (order, q) as the
    # discriminant form computed from the overlattice Gram matrix
    from vvtheta import direct_sum

    lam = direct_sum(a1, a1_neg)
    d = discriminant_group(lam)
    h = check_isotropic(d, [(1, 1)])
    emb = overlattice_from_isotropic(lam, h)
    gm = glue_map(emb)
    cosets = {}
    for delta, gamma in _fraction_down(gm).items():
        cosets.setdefault(gamma, []).append(delta)
    direct = sorted((gm.big_disc.element_order(x), gm.big_disc.q(x))
                    for x in gm.big_disc.elements())
    via_glue = []
    for gamma, fiber in cosets.items():
        rep = fiber[0]
        order = min(gm.small_disc.element_order(x) for x in fiber)
        via_glue.append((order, gm.small_disc.q(rep)))
    assert direct == sorted(via_glue)


def form_lattices():
    """|D| = 2, 1, 4, 12, 48, 192 and 228 (level 456): every form shape in use."""
    a1 = construct_lattice([[2]], name="A1")
    a2 = construct_lattice([[2, 1], [1, 2]], name="A2")
    return [a1, construct_lattice([[0, 1], [1, 0]]), direct_sum(a1, rescale(a1, -1)),
            rescale(a2, 2), rescale(a2, 4), rescale(a2, 8),
            construct_lattice([[2, 1, 1], [1, -6, 1], [1, 1, 18]])]


def test_integer_forms_match_fraction_lifts():
    for lat in form_lattices():
        d = discriminant_group(lat)
        elements = d.elements()
        lifts = [d.dual_vector(x) for x in elements]
        q_ref = [mod1(lat.norm(v) / 2) for v in lifts]
        n = d.level_forms[0]
        assert n == math.lcm(*(q.denominator for q in q_ref))
        assert [d.q(x) for x in elements] == q_ref
        assert d.q_table.tolist() == [int(q * n) for q in q_ref]
        # pairing(u, v) = (den u) . G (den v) / den^2, with integer vectors den u
        den = math.lcm(*(c.denominator for v in lifts for c in v))
        ints = [[int(c * den) for c in v] for v in lifts]
        g_ints = [[sum(g * c for g, c in zip(row, v)) for row in lat.gram] for v in ints]
        b_ref = [[mod1(F(sum(a * c for a, c in zip(u, gv)), den * den)) for gv in g_ints]
                 for u in ints]
        assert [[d.b(x, y) for y in elements] for x in elements] == b_ref
        assert d.b_table.tolist() == [[int(b * n) for b in row] for row in b_ref]


def test_element_tables(test_lattices):
    for lat in test_lattices + form_lattices()[3:]:
        d = discriminant_group(lat)
        elements = d.elements()
        assert [tuple(row) for row in d.element_array().tolist()] == elements
        assert [d.index(x) for x in elements] == list(range(d.order))
        assert [elements[k] for k in d.neg_table] == [d.neg(x) for x in elements]


def test_forms_beyond_enumeration_cap():
    big = discriminant_group(construct_lattice([[20002]]))
    assert big.q((1,)) == F(1, 40004) and big.b((1,), (3,)) == F(3, 20002)
    assert big.q((20001,)) == big.q((1,)) and big.q((-1,)) == big.q((1,))


def test_gauss_sum_residual(a1, a2):
    assert gauss_sum_residual(discriminant_group(a1), 1, 0) < 1e-15
    assert gauss_sum_residual(discriminant_group(a1), 0, 1) == pytest.approx(2.0)
    assert gauss_sum_residual(discriminant_group(a2), 2, 0) < 1e-12


@pytest.mark.parametrize("gram, m_basis", [
    ([[0, 1], [1, 0]], [(1, -1)]),
    ([[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], [(1, 0, 0, 0), (0, 1, 0, 0)]),
    ([[2, 0], [0, -2]], [(1, 0)]),
], ids=["ii11", "a2_ii11_over_a2", "a1_a1neg"])
def test_product_iso_matches_dual_vector_lift(gram, m_basis):
    lat = construct_lattice(gram)
    sd = split_data(lat, sublattice(lat, m_basis))
    n1 = sd.m_sub.rank
    combine, split_m, split_perp = disc_product_iso(sd.d_inner, sd.d_m, sd.d_perp)
    for x in sd.d_m.elements():
        for y in sd.d_perp.elements():
            ref = sd.d_inner.from_dual(sd.d_m.dual_vector(x) + sd.d_perp.dual_vector(y))
            assert combine(x + y) == ref
    for z in sd.d_inner.elements():
        nu = sd.d_inner.dual_vector(z)
        assert (split_m(z), split_perp(z)) == (sd.d_m.from_dual(nu[:n1]),
                                               sd.d_perp.from_dual(nu[n1:]))


def test_element_identification_matches_dual_vector_lift(test_lattices):
    a2a2a1 = construct_lattice([[2, 1, 0, 0, 0], [1, 2, 0, 0, 0], [0, 0, 2, 1, 0],
                                [0, 0, 1, 2, 0], [0, 0, 0, 0, -2]])
    for lat in test_lattices + [a2a2a1]:
        d, d_neg = discriminant_group(lat), discriminant_group(rescale(lat, -1))
        for source, target in ((d, d_neg), (d_neg, d)):
            image = element_identification(source, target)
            for x in source.elements():
                assert image(x) == target.from_dual(source.dual_vector(x))


def _fraction_class(lat, smith, vec):
    """Smith coordinates of a dual vector in exact Fractions: U G vec mod the
    divisors, for the Smith form smith = (D, U, V) of the Gram matrix."""
    d, u, _v = smith
    gv = exact.mat_vec(lat.gram_rows(), vec)
    assert all(F(x).denominator == 1 for x in gv)
    return tuple(int(sum(a * x for a, x in zip(row, gv))) % abs(d[i][i])
                 for i, row in enumerate(u) if abs(d[i][i]) > 1)


def _fraction_down(gm) -> dict:
    """The per-element push-down: lift delta to sum_i delta_i g_i, map it by
    glue^-1 and classify it in D_big."""
    small, big = gm.embedding.small, gm.embedding.big
    glue_inv = exact.mat_inv(gm.embedding.glue_rows())
    smith = exact.snf(big.gram_rows())
    down = {}
    for delta in orthogonal_subgroup(gm.subgroup):
        nu = [sum(c * g[i] for c, g in zip(delta, gm.small_disc.generators))
              for i in range(small.rank)]
        down[delta] = _fraction_class(big, smith, exact.mat_vec(glue_inv, nu))
    return down


A2A2 = [[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 2, 1], [0, 0, 1, 2]]


def _glue_cases():
    """(glue map, |H-perp|): four splittings and one overlattice."""
    a2a2a1 = [row + [0] for row in A2A2] + [[0, 0, 0, 0, -2]]
    splits = [([[0, 1], [1, 0]], [(1, -1)], 2),
              (A2A2, [(1, 0, 1, 0), (0, 1, 0, 1)], 36),
              (a2a2a1, [(1, 0, -1, 0, 0), (0, 1, 0, -1, 0), (0, 0, 0, 0, 1)], 72),
              ([[2 * x for x in row] for row in A2A2], [(1, 0, 1, 0), (0, 1, 0, 1)], 576)]
    for gram, basis, size in splits:
        lat = construct_lattice(gram)
        yield split_data(lat, sublattice(lat, basis)).gm, size
    lam = direct_sum(construct_lattice([[2]]), construct_lattice([[-2]]))
    sub = check_isotropic(discriminant_group(lam), [(1, 1)])
    yield glue_map(overlattice_from_isotropic(lam, sub)), 2


def test_glue_map_matches_fraction_lift():
    for gm, size in _glue_cases():
        ref = _fraction_down(gm)
        assert len(ref) == size
        assert [tuple(x) for x in gm.domain.tolist()] == list(ref)
        assert [tuple(y) for y in gm.image.tolist()] == list(ref.values())
        # row j of the fibres: the D_small indices over the j-th element of
        # D_big, in element order
        fibres = [[gm.small_disc.index(delta) for delta, gamma in ref.items() if gamma == big]
                  for big in gm.big_disc.elements()]
        assert gm.fibres.dtype == np.int64 and gm.fibres.tolist() == fibres
        assert not any(a.flags.writeable for a in (gm.domain, gm.image, gm.fibres))
        # the glue lift map is defined on H-perp only
        glue_inv = exact.mat_inv(gm.embedding.glue_rows())
        lift = lift_map(gm.big_disc, [exact.mat_vec(glue_inv, g)
                                      for g in gm.small_disc.generators])
        assert [tuple(y) for y in lift.apply(list(ref)).tolist()] == list(ref.values())
        outside = [x for x in gm.small_disc.elements() if x not in ref]
        assert outside
        for x in outside[:3]:
            with pytest.raises(NotInDual):
                lift.apply([x])
    # a non-integral pairing on a row with elementary divisor 1 is caught too
    with pytest.raises(NotInDual):
        discriminant_group(construct_lattice([[0, 1], [1, 0]])).from_dual([F(1, 3), 0])
