import cmath
import json
import math
import pathlib
import random
from fractions import Fraction

import numpy as np
import pytest

from vvtheta import (
    Axis,
    IndexMismatch,
    MP_IDENTITY,
    MP_S,
    MP_T,
    MP_Z,
    MetaplecticElement,
    RepVector,
    check_isotropic,
    construct_lattice,
    direct_sum,
    discriminant_group,
    down_arrow,
    glue_map,
    identity_vector,
    mp_power,
    pair,
    rescale,
    rho_apply,
    rho_generator,
    rho_matrix,
    split_data,
    sublattice,
    two_pi_e,
    up_arrow,
    word_decompose,
)
from vvtheta import discforms
from vvtheta.discforms import overlattice_from_isotropic
from vvtheta.weil import _token_action, _word_product

SCENARIOS = pathlib.Path(__file__).resolve().parents[1] / "scenarios"


def random_element(rng, steps=6):
    g = MP_IDENTITY
    pool = [MP_T, MP_S, MP_Z, mp_power(MP_T, -1), mp_power(MP_S, -1)]
    for _ in range(steps):
        g = g * rng.choice(pool)
    return g


def test_generator_matrices_a1(a1):
    d = discriminant_group(a1)
    t = rho_generator(d, "T")
    assert np.abs(t - np.diag([1, 1j])).max() < 1e-12
    s = rho_generator(d, "S")
    expected = cmath.exp(-2j * math.pi / 8) / math.sqrt(2) \
        * np.array([[1, 1], [1, -1]])
    assert np.abs(s - expected).max() < 1e-12


def test_generator_matrices_trivial(ii11):
    d = discriminant_group(ii11)
    assert np.abs(rho_generator(d, "T") - np.eye(1)).max() < 1e-12
    assert np.abs(rho_generator(d, "S") - np.eye(1)).max() < 1e-12


def test_relations_all_lattices(test_lattices):
    for lat in test_lattices:
        d = discriminant_group(lat)
        n = d.order
        t = rho_generator(d, "T")
        s = rho_generator(d, "S")
        z = rho_generator(d, "Z")
        assert np.abs(s @ s - z).max() < 1e-10
        assert np.abs(np.linalg.matrix_power(s @ t, 3) - z).max() < 1e-10
        assert np.abs(np.linalg.matrix_power(z, 4) - np.eye(n)).max() < 1e-10
        assert np.abs(s.conj().T @ s - np.eye(n)).max() < 1e-10


def test_dual_is_conjugate(test_lattices):
    for lat in test_lattices:
        d = discriminant_group(lat)
        for gen in ("T", "S"):
            assert np.abs(rho_generator(d, gen, dual=True)
                          - rho_generator(d, gen).conj()).max() < 1e-12


def test_word_decompose_basics():
    assert word_decompose(MP_IDENTITY) == ()
    w = word_decompose(MP_T * MP_S)
    assert _word_product(w).matrix() == (MP_T * MP_S).matrix()
    g = MetaplecticElement(1, 0, 1, 1, 1)
    w = word_decompose(g)
    got = _word_product(w)
    assert got.matrix() == g.matrix()
    assert abs(got.phi(1j) - g.phi(1j)) < 1e-9


def test_word_decompose_random_roundtrip():
    rng = random.Random(7)
    for _ in range(25):
        g = random_element(rng, steps=rng.randint(1, 10))
        w = word_decompose(g)
        got = _word_product(w)
        assert got.matrix() == g.matrix()
        assert got.branch == g.branch
        # word stays short: a few tokens per Euclidean step
        assert len(w) <= 4 * (len(bin(max(abs(g.c), abs(g.d), 2))) + 4)


def test_word_decompose_large_entries():
    g = MetaplecticElement(1, 0, 100, 1, 1)
    w = word_decompose(g)
    got = _word_product(w)
    assert got.matrix() == g.matrix() and got.branch == g.branch
    big = MetaplecticElement(89, 55, 144, 89, -1)  # consecutive Fibonacci
    w = word_decompose(big)
    got = _word_product(w)
    assert got.matrix() == big.matrix() and got.branch == big.branch


def test_branch_tracking_both_lifts():
    plus = MetaplecticElement(0, -1, 1, 0, 1)
    minus = MetaplecticElement(0, -1, 1, 0, -1)
    assert _word_product(word_decompose(plus)).branch == 1
    assert _word_product(word_decompose(minus)).branch == -1
    assert abs(plus.phi(1j) + minus.phi(1j)) < 1e-12


def test_rho_apply_identity_and_z(a1):
    d = discriminant_group(a1)
    axes = (Axis(d),)
    v = RepVector(axes, {((0,),): 1 + 2j, ((1,),): -0.5j})
    assert (rho_apply(MP_IDENTITY, v) - v).norm_inf() < 1e-12
    # Z acts on A1 by e(-1/4) since -gamma = gamma there
    got = rho_apply(MP_Z, v)
    expected = v.scale(cmath.exp(-2j * math.pi / 4))
    assert (got - expected).norm_inf() < 1e-10


def test_rho_s4_equals_scalar(test_lattices):
    for lat in test_lattices:
        d = discriminant_group(lat)
        s = rho_generator(d, "S")
        phase = cmath.exp(2j * math.pi * (lat.sig_minus - lat.sig_plus) / 2)
        assert np.abs(np.linalg.matrix_power(s, 4)
                      - phase * np.eye(d.order)).max() < 1e-10


def test_representation_property(a2):
    rng = random.Random(5)
    for lat, dual in [(a2, False), (rescale(a2, 2), True)]:
        d = discriminant_group(lat)
        for _ in range(5):
            g = random_element(rng)
            h = random_element(rng)
            lhs = rho_matrix(d, g * h, dual)
            rhs = rho_matrix(d, g, dual) @ rho_matrix(d, h, dual)
            assert np.abs(lhs - rhs).max() < 1e-10


def test_token_matrices_match_entry_formula(test_lattices, a2):
    # the token action on the identity, column by column: T^n = diag e(n q),
    # S = e((b- - b+)/8)/sqrt|D| [e(-b(x, y))] and Z^k = e(k (b- - b+)/4) on
    # e_x -> e_{(-1)^k x}; a dual axis negates the forms and swaps the
    # signature
    for lat in test_lattices + [rescale(a2, 2), rescale(a2, 4)]:
        d = discriminant_group(lat)
        elements = d.elements()
        for dual in (False, True):
            def action(kind, n):
                return _token_action(d, dual, kind, n, np.eye(d.order, dtype=complex), 0)

            sgn = -1 if dual else 1
            sig = sgn * (lat.sig_minus - lat.sig_plus)
            for n in range(-3, 4):
                ref = np.diag([two_pi_e(sgn * n * d.q(x)) for x in elements])
                assert np.abs(action("T", n) - ref).max() <= 1e-15
            ref = two_pi_e(Fraction(sig, 8)) / math.sqrt(d.order) * np.array(
                [[two_pi_e(-sgn * d.b(x, y)) for y in elements] for x in elements])
            assert np.abs(action("S", 1) - ref).max() <= 1e-15
            for k in range(4):
                ref = np.zeros((d.order, d.order), dtype=complex)
                phase = two_pi_e(Fraction(k * sig, 4))
                for j, x in enumerate(elements):
                    ref[elements.index(d.scale((-1) ** k, x)), j] = phase
                assert np.abs(action("Z", k) - ref).max() <= 1e-15


def _float_branch(g, h, tau):
    """Branch of g h from phi(tau) = phi_g(h tau) phi_h(tau), evaluated in floats."""
    c, d = g.c * h.a + g.d * h.c, g.c * h.b + g.d * h.d
    ratio = g.phi(h.act(tau)) * h.phi(tau) / cmath.sqrt(c * tau + d)
    assert min(abs(ratio - 1), abs(ratio + 1)) < 1e-9
    return 1 if ratio.real > 0 else -1


def test_exact_branch_matches_float_product_rule():
    rng = random.Random(17)
    taus = (1j, 0.31 + 1.7j, -0.45 + 0.6j, 2.2 + 0.35j)
    for _ in range(2000):
        g, h = (random_element(rng, steps=rng.randint(0, 6)) for _ in range(2))
        g = MetaplecticElement(g.a, g.b, g.c, g.d, rng.choice((1, -1)))
        h = MetaplecticElement(h.a, h.b, h.c, h.d, rng.choice((1, -1)))
        prod = g * h
        for tau in taus:
            assert prod.branch == _float_branch(g, h, tau)
        for x in (g, h, prod):
            assert x * x.inverse() == MP_IDENTITY == x.inverse() * x


@pytest.fixture(scope="module")
def glue(a1, a1_neg):
    lam = direct_sum(a1, a1_neg)
    d = discriminant_group(lam)
    h = check_isotropic(d, [(1, 1)])
    emb = overlattice_from_isotropic(lam, h)
    return glue_map(emb)


def test_arrows_identity_when_trivial(a1):
    from vvtheta import check_isotropic as iso
    from vvtheta.discforms import overlattice_from_isotropic as over

    d = discriminant_group(a1)
    emb = over(a1, iso(d, []))
    gm = glue_map(emb)
    v = RepVector((Axis(gm.small_disc),), {((1,),): 3.0})
    assert (up_arrow(gm, down_arrow(gm, v)) - v).norm_inf() < 1e-12


def test_up_arrow_spreads(glue):
    e0 = RepVector.basis_vector((Axis(glue.big_disc),), ((),))
    lifted = up_arrow(glue, e0)
    assert lifted.coeffs == {((0, 0),): 1 + 0j, ((1, 1),): 1 + 0j}
    doubled = up_arrow(glue, e0.scale(2.0))
    assert (doubled - lifted.scale(2.0)).norm_inf() == 0


def test_down_arrow_kills_nonorthogonal(glue):
    bad = RepVector.basis_vector((Axis(glue.small_disc),), ((1, 0),))
    assert down_arrow(glue, bad).coeffs == {}


def test_down_up_is_glue_order(glue):
    for gamma in glue.big_disc.elements():
        v = RepVector.basis_vector((Axis(glue.big_disc),), (gamma,))
        got = down_arrow(glue, up_arrow(glue, v))
        assert got.coeffs == {(gamma,): complex(glue.subgroup.order)}


def test_arrow_intertwining(glue):
    rng = random.Random(9)
    words = [MP_T, MP_S] + [random_element(rng) for _ in range(5)]
    for g in words:
        for key in glue.small_disc.elements():
            v = RepVector.basis_vector((Axis(glue.small_disc),), (key,))
            lhs = rho_apply(g, down_arrow(glue, v))
            rhs = down_arrow(glue, rho_apply(g, v))
            assert (lhs - rhs).norm_inf() < 1e-10
        for gamma in glue.big_disc.elements():
            w = RepVector.basis_vector((Axis(glue.big_disc),), (gamma,))
            lhs = rho_apply(g, up_arrow(glue, w))
            rhs = up_arrow(glue, rho_apply(g, w))
            assert (lhs - rhs).norm_inf() < 1e-10


@pytest.fixture(scope="module", params=["ii11_seesaw", "a2a2a1_glued"])
def scenario_glue(request):
    data = json.loads((SCENARIOS / f"{request.param}.json").read_text())
    lat = construct_lattice(data["lattices"]["L"]["gram"])
    return split_data(lat, sublattice(lat, data["sublattice"]["basis"])).gm


def test_arrows_and_rho_apply_match_matrix_forms(scenario_glue, glue_matrix):
    # the RepVector routes on every basis vector against the 0/1 glue matrix
    # of an independent reference (up is its transpose) and the matrices
    # that arrow_suite uses
    gm = scenario_glue
    down = glue_matrix(gm)

    def dense(vec):
        return np.array([vec.get((x,)) for x in vec.axes[0].group.elements()])

    for group, arrow, arrow_mat in ((gm.small_disc, down_arrow, down),
                                    (gm.big_disc, up_arrow, down.T)):
        rho = {g: rho_matrix(group, g) for g in (MP_T, MP_S, MP_Z)}
        for j, key in enumerate(group.elements()):
            v = RepVector.basis_vector((Axis(group),), (key,))
            assert np.array_equal(dense(arrow(gm, v)), arrow_mat[:, j])
            for g, mat in rho.items():
                assert np.abs(dense(rho_apply(g, v)) - mat[:, j]).max() < 1e-15


def test_glued_run_keeps_no_square_array_but_s():
    # T^n and Z^n act through q_table and neg_table and the glue arrows
    # through one fibre array, so after a glued run the only |D| x |D| array
    # a discriminant group keeps is S, once per duality; T^n keeps |D| phases
    from vvtheta import run_scenario

    assert run_scenario(SCENARIOS / "a2a2a1_glued.json")["pass"]
    orders_with_s = set()
    for group in discforms._DISC_CACHE.values():
        mats = vars(group).get("weil_matrices", {})
        assert set(mats) <= {False, True}
        for dual, mat in mats.items():
            assert np.array_equal(mat, rho_generator(group, "S", dual))
            orders_with_s.add(group.order)
        kept = [v for v in vars(group).values() if isinstance(v, np.ndarray)]
        assert all(v.shape != (group.order, group.order) for v in kept)
        phases = vars(group).get("t_phases", {}).values()
        assert all(v.shape == (group.order,) and not v.flags.writeable for v in phases)
    assert 288 in orders_with_s


def test_pair_dual_bases(a1):
    d = discriminant_group(a1)
    for gamma in d.elements():
        for delta in d.elements():
            u = RepVector.basis_vector((Axis(d),), (gamma,))
            v = RepVector.basis_vector((Axis(d, dual=True),), (delta,))
            # every axis contracted: a vector with no axes, read as a number
            assert complex(pair(u, v, groups=[d]).array) == (1 if gamma == delta else 0)


def test_pair_identity_vector(a1, a2):
    rng = random.Random(4)
    for lat in (a1, a2):
        d = discriminant_group(lat)
        v = RepVector((Axis(d),), {(x,): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                   for x in d.elements()})
        assert (pair(v, identity_vector(d), groups=[d]) - v).norm_inf() < 1e-12


def test_identity_vector_invariant(a1, a2, a1_plus_a1neg):
    for lat in (a1, a2, a1_plus_a1neg):
        d = discriminant_group(lat)
        idv = identity_vector(d)
        for g in (MP_T, MP_S):
            assert (rho_apply(g, idv) - idv).norm_inf() < 1e-12


def test_pair_with_arrows(glue):
    # <down X, U> = <X, up U> with the raise acting on the dual side
    rng = random.Random(12)
    small, big = glue.small_disc, glue.big_disc
    x = RepVector((Axis(small),), {(k,): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                   for k in small.elements()})
    u = RepVector((Axis(big, dual=True),),
                  {(k,): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                   for k in big.elements()})
    lhs = pair(down_arrow(glue, x), u, groups=[big])
    rhs = pair(x, up_arrow(glue, u), groups=[small])
    assert (lhs - rhs).norm_inf() < 1e-12


def test_pair_nested_identities(glue, a1):
    # <<V,W>_M, U>_L = <W, U (x) V>_{L+M(-1)} = <V, <W,U>_L>_M
    rng = random.Random(13)
    dm = discriminant_group(a1)
    dl = glue.big_disc

    def rand_vec(axes, pools):
        keys = []
        import itertools

        for combo in itertools.product(*pools):
            keys.append(tuple(combo))
        return RepVector(axes, {k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                for k in keys})

    v = rand_vec((Axis(dm),), [dm.elements()])
    w = rand_vec((Axis(dl), Axis(dm, dual=True)), [dl.elements(), dm.elements()])
    u = rand_vec((Axis(dl, dual=True),), [dl.elements()])
    first = pair(pair(v, w, groups=[dm]), u, groups=[dl])
    second = pair(w, u.tensor(v), groups=[dl, dm])
    third = pair(v, pair(w, u, groups=[dl]), groups=[dm])
    assert (first - second).norm_inf() < 1e-12
    assert (second - third).norm_inf() < 1e-12


def test_pair_arrows_commute_with_spectator(glue, a1):
    # raising/lowering on the L-side commutes past a pairing over M
    rng = random.Random(14)
    dm = discriminant_group(a1)
    small, big = glue.small_disc, glue.big_disc
    import itertools

    v = RepVector((Axis(dm),), {(k,): complex(rng.uniform(-1, 1))
                                for k in dm.elements()})
    w_keys = list(itertools.product(big.elements(), dm.elements()))
    w = RepVector((Axis(big), Axis(dm, dual=True)),
                  {k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for k in w_keys})
    y_keys = list(itertools.product(small.elements(), dm.elements()))
    y = RepVector((Axis(small), Axis(dm, dual=True)),
                  {k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for k in y_keys})
    lhs = pair(v, up_arrow(glue, w), groups=[dm])
    rhs = up_arrow(glue, pair(v, w, groups=[dm]))
    assert (lhs - rhs).norm_inf() < 1e-12
    lhs2 = pair(v, down_arrow(glue, y), groups=[dm])
    rhs2 = down_arrow(glue, pair(v, y, groups=[dm]))
    assert (lhs2 - rhs2).norm_inf() < 1e-12


def test_pair_matches_tensordot_bit_for_bit(a1, a2, glue):
    # pair does np.tensordot's transpose, reshape and np.dot itself: the same
    # BLAS call, so the same bytes, for every number and order of contracted
    # and leftover axes, a scalar result included
    rng = np.random.default_rng(15)
    d1, d2, big = discriminant_group(a1), discriminant_group(a2), glue.big_disc

    def vector(axes):
        shape = tuple(ax.group.order for ax in axes)
        return RepVector.from_array(axes, rng.normal(size=shape) + 1j * rng.normal(size=shape))

    cases = [((Axis(d2),), (Axis(d2, dual=True),), [d2]),
             ((Axis(d1), Axis(big)), (Axis(big, dual=True),), [big]),
             ((Axis(d1), Axis(d2)), (Axis(d2, dual=True), Axis(big), Axis(d1, dual=True)),
              [d1, d2]),
             ((Axis(d2), Axis(d1)), (Axis(d1, dual=True), Axis(d2, dual=True)), [d1, d2]),
             ((Axis(big), Axis(d2, dual=True), Axis(d1)), (Axis(d2), Axis(d1, dual=True)),
              [d2])]
    for u_axes, v_axes, groups in cases:
        u, v = vector(u_axes), vector(v_axes)
        u_idx = [[ax.group for ax in u_axes].index(g) for g in groups]
        v_idx = [[ax.group for ax in v_axes].index(g) for g in groups]
        want = np.tensordot(u.array, v.array, axes=(u_idx, v_idx))
        got = pair(u, v, groups=groups)
        assert got.array.shape == want.shape
        assert got.array.tobytes() == want.tobytes()


def test_pair_index_mismatch(a1, a2):
    d1 = discriminant_group(a1)
    d2 = discriminant_group(a2)
    u = RepVector.basis_vector((Axis(d1),), ((0,),))
    v = RepVector.basis_vector((Axis(d2, dual=True),), ((0,),))
    with pytest.raises(IndexMismatch):
        pair(u, v, groups=[d1])  # no axis of v over d1
    with pytest.raises(IndexMismatch):
        pair(u, v, groups=[d2])  # no axis of u over d2
    with pytest.raises(IndexMismatch):
        pair(u, u, groups=[d1])  # same duality, no complementary axis


def test_axes_over_equal_lattices_compare_equal(monkeypatch):
    # two groups computed apart from equal Gram matrices: their axes are equal,
    # so vectors over them add and pair
    first = discriminant_group(construct_lattice([[2, 1], [1, 2]], name="A2"))
    monkeypatch.setattr(discforms, "_DISC_CACHE", {})
    second = discriminant_group(construct_lattice([[2, 1], [1, 2]], name="hexagonal"))
    assert first is not second and first == second and hash(first) == hash(second)
    assert Axis(first) == Axis(second) and hash(Axis(first)) == hash(Axis(second))
    assert Axis(first) != Axis(second, dual=True)
    u = RepVector.basis_vector((Axis(first),), ((1,),))
    v = RepVector.basis_vector((Axis(second),), ((1,),))
    assert (u + v).get(((1,),)) == 2
    assert complex(pair(u, RepVector.basis_vector((Axis(second, dual=True),), ((1,),)),
                        groups=[first]).array) == 1


def test_metaplectic_element_compares_entries_and_branch():
    g = MetaplecticElement(2, 1, 3, 2, 1)
    assert g == mp_power(MP_Z, 4) * g  # a new object, the same element
    assert hash(g) == hash(MetaplecticElement(2, 1, 3, 2, 1))
    assert g != MetaplecticElement(2, 1, 3, 2, -1)
    assert len({g, MetaplecticElement(2, 1, 3, 2, 1), MetaplecticElement(2, 1, 3, 2, -1)}) == 2


def test_rep_vector_keys_are_strict(a1):
    d = discriminant_group(a1)
    axes = (Axis(d),)
    v = RepVector(axes, {((1,),): 2 - 1j})
    assert v.get(((1,),)) == 2 - 1j and v.get(((0,),)) == 0
    # an unreduced component or a key of the wrong arity is an error, not a
    # wrapped-around or missing index
    for key in (((2,),), ((-1,),), ((0,), (0,)), ()):
        with pytest.raises(IndexMismatch):
            v.get(key)
        with pytest.raises(IndexMismatch):
            RepVector(axes, {key: 1.0})
    with pytest.raises(IndexMismatch):
        RepVector.from_array(axes, np.zeros(3))
    with pytest.raises(IndexMismatch):
        RepVector.from_array(axes + axes, np.zeros(2))
    # coeffs lists the nonzero entries, read-only, and rebuilds the vector
    assert v.coeffs == {((1,),): 2 - 1j}
    with pytest.raises(TypeError):
        v.coeffs[((0,),)] = 1.0
    assert np.array_equal(RepVector(axes, v.coeffs).array, v.array)


def test_multi_axis_routes_match_kronecker_forms(a1, a2, glue, glue_matrix):
    # a 3-axis vector over A1, A2(2)* and A1 (+) A1(-1), the last the small
    # group of the glue map, against Kronecker products of the matrix forms
    rng = np.random.default_rng(31)
    groups = (discriminant_group(a1), discriminant_group(rescale(a2, 2)), glue.small_disc)
    axes = tuple(Axis(g, dual) for g, dual in zip(groups, (False, True, False)))
    shape = tuple(g.order for g in groups)

    def random_array(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    arr = random_array(shape)
    vec = RepVector.from_array(axes, arr)
    rng_words = random.Random(32)
    for g in (MP_T, MP_S, MP_Z, random_element(rng_words), random_element(rng_words)):
        kron = np.ones((1, 1))
        for ax in axes:
            kron = np.kron(kron, rho_matrix(ax.group, g, ax.dual))
        got = rho_apply(g, vec).array
        assert np.abs(got.ravel() - kron @ arr.ravel()).max() < 1e-12
    # the arrows along the last axis contract it with the 0/1 glue matrix
    # (up: its transpose)
    down = glue_matrix(glue)
    lowered = down_arrow(glue, vec, axis=2)
    assert lowered.axes == axes[:2] + (Axis(glue.big_disc),)
    assert np.abs(lowered.array - np.einsum("ij,abj->abi", down, arr)).max() < 1e-14
    assert down_arrow(glue, vec).axes == lowered.axes
    raised = up_arrow(glue, lowered, axis=2)
    assert raised.axes == axes
    assert np.abs(raised.array - np.einsum("ji,abj->abi", down, lowered.array)).max() < 1e-14
    # pairing contracts A2(2)* and the small group against a (small*, A2(2)) vector
    w_arr = random_array((shape[2], shape[1]))
    w = RepVector.from_array((Axis(groups[2], True), Axis(groups[1], False)), w_arr)
    paired = pair(vec, w, groups=groups[1:])
    assert paired.axes == axes[:1]
    assert np.abs(paired.array - np.einsum("abc,cb->a", arr, w_arr)).max() < 1e-12
