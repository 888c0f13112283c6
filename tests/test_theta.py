import cmath
import functools
import hashlib
import itertools
import json
import math
import pathlib
import random
from collections import namedtuple
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest

from vvtheta import (
    BoundTooLarge,
    HomogeneousPolynomial,
    NegativeBound,
    NonHomogeneousPolynomial,
    NotPositiveDefiniteSpan,
    NotRational,
    Polynomial,
    TailTooLarge,
    TauNotInUpperHalfPlane,
    VectorNotInComplement,
    constant_poly,
    construct_lattice,
    direct_sum,
    direct_sum_grassmann,
    disc_product_iso,
    discriminant_group,
    enumerate_vectors,
    lift_product,
    make_grassmann_point,
    mixed_theta_composed,
    mixed_theta_direct,
    mixed_theta_family,
    modularity_defects,
    orthogonal_complement,
    orthogonal_subgroup,
    Seesaw,
    siegel_theta,
    siegel_theta_evaluator,
    siegel_theta_family,
    split_data,
    sublattice,
    theta_negation_residuals,
    theta_weight,
)
import vvtheta.theta as theta_mod
from vvtheta import exact
from vvtheta.grassmann import as_pair, coordinate_poly, laplacian_series
from vvtheta.weil import MP_S, MP_T, MP_Z, Axis, RepVector

TAU_SAMPLES = [0.2 + 1.1j, -0.37 + 0.9j]
BUNDLED = pathlib.Path(__file__).resolve().parents[1] / "scenarios" / "ii11_seesaw.json"

_Row = namedtuple("_Row", "key vector a b poly_coeffs phase")


def _rows(table) -> list:
    """Every row of a TermTable, with exact (Fraction) a, b and phase."""
    def fractions(num, den):
        return [F(x, den) for x in num.tolist()]

    a = fractions(table.a_num, table.ab_den)
    b = fractions(table.b_num, table.ab_den)
    phase = fractions(table.phase_num, table.phase_den)
    return [_Row(table.keys[k], vector, a[r], b[r], tuple(table.poly[r].tolist()), phase[r])
            for r, (k, vector) in enumerate(zip(table.key_index.tolist(),
                                                table.vector_tuples()))]


@functools.cache
def _projections(point) -> tuple:
    """(P+, P-): the exact projections onto v+ and v-, P+ = B (B^T G B)^-1 B^T G
    for the span B of v+ as columns and P- = 1 - P+; an independent route to
    the norms that the engine reads from its forms Q+- = P+-^T G P+-."""
    n = point.lattice.rank
    if point.span_plus:
        b = exact.transpose(point.span_plus)
        bt_g = exact.mat_mul(point.span_plus, point.lattice.gram_rows())
        p_plus = exact.mat_mul(exact.mat_mul(b, exact.mat_inv(exact.mat_mul(bt_g, b))), bt_g)
    else:
        p_plus = [[F(0)] * n for _ in range(n)]
    p_minus = [[int(i == j) - x for j, x in enumerate(row)] for i, row in enumerate(p_plus)]
    return p_plus, p_minus


def _project(point, vec) -> tuple:
    """(vec_{v+}, vec_{v-}) of a rational vector, exactly."""
    p_plus, p_minus = _projections(point)
    v = [F(x) for x in vec]
    return exact.mat_vec(p_plus, v), exact.mat_vec(p_minus, v)


def _majorant(point) -> list:
    """The exact majorant P+^T G P+ - P-^T G P- of the reference projections."""
    g = point.lattice.gram_rows()
    plus, minus = (exact.mat_mul(exact.mat_mul(exact.transpose(p), g), p)
                   for p in _projections(point))
    return [[x - y for x, y in zip(rp, rm)] for rp, rm in zip(plus, minus)]


def _majorant_value(point, vec):
    """The majorant of vec: its plus norm minus its minus norm."""
    plus, minus = _project(point, vec)
    return point.lattice.norm(plus) - point.lattice.norm(minus)


def _term_multiset(table) -> dict:
    """Exact (key, a, b, phase) -> summed coefficient of a table with no 1/y
    dependence (harmonic or constant polynomials)."""
    assert table.poly.shape[1] == 1
    out: dict = {}
    for t in _rows(table):
        k = (t.key, t.a, t.b, t.phase)
        out[k] = out.get(k, 0j) + t.poly_coeffs[0]
    return {k: v for k, v in out.items() if abs(v) > 1e-15}


# ---------------------------------------------------------------------------
# enumeration

def test_enumerate_a1_examples(a1):
    v = make_grassmann_point(a1, [[1]])
    got = enumerate_vectors(a1, [0], v, None, 1.5)
    assert got == [(-1,), (0,), (1,)]
    # nonzero coset below the minimal majorant is empty
    assert enumerate_vectors(a1, [F(1, 2)], v, None, 0.1) == []


def test_enumerate_ii11_box_oracle(ii11):
    v = make_grassmann_point(ii11, [[1, 1]])
    got = set(enumerate_vectors(ii11, [0, 0], v, None, 1.0))
    oracle = set()
    for m, n in itertools.product(range(-3, 4), repeat=2):
        if m * m + n * n <= 2:
            oracle.add((F(m), F(n)))
    assert got == oracle


def test_enumerate_random_forms_against_scan():
    # Fincke-Pohst against a brute-force box scan on random definite forms
    rng = random.Random(21)
    for _ in range(12):
        a = rng.randint(1, 4)
        c = rng.randint(1, 4)
        b = rng.randint(-min(a, c) + 1, min(a, c) - 1) if min(a, c) > 1 else 0
        gram = [[2 * a, b], [b, 2 * c]]
        lat = construct_lattice(gram)
        if lat.sig_minus:
            continue
        v = make_grassmann_point(lat, [[1, 0], [0, 1]])
        shift = [F(rng.randint(-2, 2), 3), F(rng.randint(-2, 2), 3)]
        bound = rng.uniform(1.0, 6.0)
        got = set(enumerate_vectors(lat, shift, v, None, bound))
        oracle = set()
        for m, n in itertools.product(range(-12, 13), repeat=2):
            lam = (shift[0] + m, shift[1] + n)
            if lat.norm(lam) <= 2 * F(bound):
                oracle.add(lam)
        assert got == oracle


def test_enumeration_cap(monkeypatch):
    # the cap holds on every level of the walk: on A1^3 at bound 8 (|x|^2 <= 8)
    # the walk keeps 5 nodes for the first coordinate, 25 for the first two,
    # and tests 117 candidates for the 93 members, so a cap of 20 stops it
    # on its middle level
    a1_cubed = construct_lattice([[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    point = make_grassmann_point(a1_cubed, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    monkeypatch.setenv("THETA_MAX_VECTORS", "117")
    assert len(enumerate_vectors(a1_cubed, [0, 0, 0], point, None, 8.0)) == 93
    for cap, level in (("116", 0), ("20", 1)):
        monkeypatch.setenv("THETA_MAX_VECTORS", cap)
        with pytest.raises(BoundTooLarge, match=f"level {level} "):
            enumerate_vectors(a1_cubed, [0, 0, 0], point, None, 8.0)


@pytest.mark.parametrize("raw", ["abc", "1e5", "-3", "", " 7", "+5", "7.0", "\u0663"])
def test_enumeration_cap_must_be_a_decimal_count(ii11, monkeypatch, raw):
    # a cap that is not a non-negative decimal integer is a ParseError naming
    # the variable, from the walk and from the family store's key alike
    from vvtheta import ParseError

    v = make_grassmann_point(ii11, [[1, 1]])
    monkeypatch.setenv("THETA_MAX_VECTORS", raw)
    with pytest.raises(ParseError, match="THETA_MAX_VECTORS"):
        enumerate_vectors(ii11, [0, 0], v, None, 2.0)
    with pytest.raises(ParseError, match="THETA_MAX_VECTORS"):
        siegel_theta(ii11, 1j, v, constant_poly(1, 1), None, 2.0)


def test_enumeration_env_cap(ii11, monkeypatch):
    v = make_grassmann_point(ii11, [[1, 1]])
    monkeypatch.setenv("THETA_MAX_VECTORS", "10")
    with pytest.raises(BoundTooLarge):
        enumerate_vectors(ii11, [0, 0], v, None, 50.0)
    monkeypatch.setenv("THETA_MAX_VECTORS", "100000")
    assert enumerate_vectors(ii11, [0, 0], v, None, 2.0)


def _skewed_case(rng, rank):
    """(lattice, splitting, U): the lattice is U^T diag(+-2a) U for a unimodular
    shear U (unit upper triangular, entries up to 6), and the splitting leans
    each positive direction of y = U x into the negative ones by rational
    amounts, so the majorant is skewed in x and has denominators."""
    while True:
        shear = [[int(i == j) if j <= i else rng.randint(-6, 6) for j in range(rank)]
                 for i in range(rank)]
        n_minus = rng.randint(0, rank - 1)
        diag = [2 * rng.randint(1, 3) for _ in range(rank - n_minus)] \
            + [-2 * rng.randint(1, 3) for _ in range(n_minus)]
        gram = [[sum(shear[k][i] * diag[k] * shear[k][j] for k in range(rank))
                 for j in range(rank)] for i in range(rank)]
        u_inv = exact.mat_inv(shear)
        span = []
        for j in range(rank - n_minus):
            y = [F(int(i == j)) for i in range(rank - n_minus)] \
                + [F(rng.randint(-1, 1), rng.randint(2, 4)) for _ in range(n_minus)]
            span.append(exact.mat_vec(u_inv, y))
        lat = construct_lattice(gram)
        try:
            return lat, make_grassmann_point(lat, span), shear
        except NotPositiveDefiniteSpan:
            continue


def _ball_scan(point, shear, shift, bound):
    """Exact oracle: {m: maj(shift + m)} over every integral m in the majorant
    ball maj <= 2 bound, by scanning a box without pruning.

    The box is taken in y = U x, where the majorant is nearly diagonal: m
    runs over U^-1 k for every integral k with |(U shift)_i + k_i| <= r_i, r_i^2
    >= 2 bound (U M^-1 U^T)_ii, a box that holds the whole ball.
    """
    rank = len(shift)
    majorant = _majorant(point)
    m_inv = exact.mat_inv(majorant)
    lo, hi = [], []
    for row in shear:
        reach = math.isqrt(math.ceil(2 * bound * sum(
            a * m_inv[j][k] * b for j, a in enumerate(row) for k, b in enumerate(row)))) + 1
        centre = sum(a * x for a, x in zip(row, shift))
        lo.append(math.floor(-reach - centre))
        hi.append(math.ceil(reach - centre))
    grid = np.meshgrid(*(np.arange(a, b + 1) for a, b in zip(lo, hi)), indexing="ij")
    u_inv = np.array(exact.mat_inv(shear), dtype=np.int64).reshape(rank, rank)
    m = np.stack([g.ravel() for g in grid], axis=1) @ u_inv.T
    den = math.lcm(*(x.denominator for row in majorant for x in row))
    big_d = math.lcm(*(x.denominator for x in shift))
    form = np.array([[int(x * den) for x in row] for row in majorant], dtype=np.int64)
    w = big_d * m + np.array([int(big_d * x) for x in shift], dtype=np.int64)
    num = np.einsum("ri,ij,rj->r", w, form, w)
    inside = num <= math.floor(2 * bound * den * big_d * big_d)
    return {tuple(row): F(int(q), den * big_d * big_d)
            for row, q in zip(m[inside].tolist(), num[inside].tolist())}


def test_enumeration_complete_on_skewed_majorants():
    # the walk against an unpruned exact scan of the ball, with a member
    # exactly on maj = 2 bound; ranks 1-5, four cases each
    rng = random.Random(1985)
    kinds = set()
    for rank in [1, 2, 3, 4, 5] * 4:
        lat, point, shear = _skewed_case(rng, rank)
        q_coset, q_beta = rng.randint(1, 12), rng.randint(1, 12)
        coset = [F(rng.randint(-11, 11), q_coset) for _ in range(rank)]
        beta = [F(rng.randint(-11, 11), q_beta) for _ in range(rank)]
        shift = [c + b for c, b in zip(coset, beta)]
        # a vector near the centre in y = U x sets the bound: it lies on the shell
        y = exact.mat_vec(shear, shift)
        k = [-round(t) + rng.randint(-1, 1) for t in y]
        on_shell = tuple(exact.mat_vec(exact.mat_inv(shear), k))
        bound = _majorant_value(point, [s + m for s, m in zip(shift, on_shell)]) / 2
        oracle = _ball_scan(point, shear, shift, bound)
        assert oracle[on_shell] == 2 * bound

        def lam(m):
            return tuple(c + x for c, x in zip(coset, m))

        inner = {m for m, maj in oracle.items() if maj < 2 * bound}
        assert set(enumerate_vectors(lat, coset, point, beta, bound)) == \
            {lam(m) for m in oracle}
        assert set(enumerate_vectors(lat, coset, point, beta, bound - 1e-9)) == \
            {lam(m) for m in inner}
        # the walk on the Python-int levels, which it runs on where int64
        # could overflow, returns the same rows
        forms = theta_mod._IntegerForms(theta_mod._Cosets(lat, [((), coset)]), point,
                                        as_pair(([0] * rank, beta), rank), bound)
        kinds.update(a.dtype.kind for a, _c in forms.levels)
        walks = [theta_mod._fincke_pohst(levels, forms.steps, forms.bounds, forms.denominator,
                                         forms.shifts, forms.box)
                 for levels in (forms.levels, point.majorant_levels)]
        _d, n_plus, n_minus = point.integer_forms
        n_maj = np.array([[p - m for p, m in zip(rp, rm)] for rp, rm in zip(n_plus, n_minus)],
                         dtype=object).reshape(rank, rank)
        for _index, w, value in walks:
            # one vector per column, in (W_0, ..., W_{n-1}) order, and each
            # carries its exact majorant form value W^T N_maj W down the walk
            assert w.shape == (rank, len(oracle))
            assert w.T.tolist() == sorted(w.T.tolist())
            assert value.tolist() == theta_mod._quad(w.astype(object), n_maj).tolist()
        assert walks[0][1].tolist() == walks[1][1].tolist()
    # the walks above ran on int64 levels as well as on Python-int ones
    assert kinds == {"i", "O"}


_COLUMNS = ("key_index", "vectors", "a_num", "b_num", "phase_num", "poly")


def _assert_rows_in_lexsort_order(table, seed):
    """Shuffle the table's rows, sort them with one np.lexsort on the key
    index, then lambda_0, ..., lambda_{n-1}, and require every column to
    come back byte for byte."""
    shuffle = np.random.default_rng(seed).permutation(len(table))
    lam = table.vectors[shuffle]
    order = shuffle[np.lexsort(tuple(lam.T[::-1]) + (table.key_index[shuffle],))]
    for name in _COLUMNS:
        column = getattr(table, name)
        want = column[order]
        assert (column.dtype, column.shape) == (want.dtype, want.shape), name
        assert column.tobytes() == want.tobytes(), name


def _build_without_sorting(monkeypatch, *args):
    def no_sort(*_args, **_kwargs):
        raise AssertionError("a build sorted its rows")

    with monkeypatch.context() as m:
        for name in ("lexsort", "argsort", "sort"):
            m.setattr(np, name, no_sort)
        return theta_mod.build_term_table(*args)


def _coset_minimum(point, shear, shift):
    """The least majorant over shift + Z^n, from the unpruned ball scan."""
    bound = F(1)
    while True:
        values = _ball_scan(point, shear, shift, bound).values()
        if values:
            return min(values)
        bound *= 2


def test_walk_emits_rows_in_table_order(monkeypatch):
    # a build walks the cosets in key order and each coset's vectors in
    # (lambda_0, ..., lambda_{n-1}) order, so its rows need no sort: every
    # column equals a lexsort of the same rows.  Seeded skewed splittings
    # of rank 1-5, four cosets under shuffled keys, at a bound that leaves one
    # coset empty and at a larger one
    rng = random.Random(1968)
    empty_tables = 0
    for rank in [1, 2, 3, 4, 5] * 2:
        lat, point, shear = _skewed_case(rng, rank)
        while True:
            cosets = [[F(rng.randint(-11, 11), rng.randint(1, 6)) for _ in range(rank)]
                      for _ in range(4)]
            minima = sorted(_coset_minimum(point, shear, c) for c in cosets)
            if minima[2] < minima[3]:
                break
        keys = rng.sample(range(100), 4)
        coset_list = theta_mod._Cosets(lat, [((k,), c) for k, c in zip(keys, cosets)])
        series = laplacian_series(coordinate_poly(lat.sig_plus, lat.sig_minus, 0).multiply(
            coordinate_poly(lat.sig_plus, lat.sig_minus, 0)))
        alpha = [F(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(rank)]
        beta = [0] * rank
        for bound in ((minima[2] + minima[3]) / 4, minima[3] / 2 + 2):
            table = _build_without_sorting(monkeypatch, lat, point, series, coset_list,
                                           (alpha, beta), bound)
            assert table.keys == tuple(sorted(table.keys))
            empty_tables += len(table.keys) == 3
            _assert_rows_in_lexsort_order(table, rank)
    assert empty_tables == 10


def test_bundled_scenario_tables_in_table_order(monkeypatch):
    # every table of both bundled seesaws, the mixed ones included
    from vvtheta.cli import run_scenario

    tables = []
    build = theta_mod.build_term_table

    def recording(*args, **kwargs):
        tables.append(build(*args, **kwargs))
        return tables[-1]

    monkeypatch.setattr(theta_mod, "build_term_table", recording)
    for path in sorted(BUNDLED.parent.glob("*.json")):
        run_scenario(str(path))
    assert len(tables) == 22
    assert sum(len(t.keys[0]) == 2 for t in tables) >= 4  # keys over D_L x D_M
    for seed, table in enumerate(tables):
        _assert_rows_in_lexsort_order(table, seed)


GOLDEN_TABLES = pathlib.Path(__file__).resolve().parent / "golden" / "term_tables.json"


def _table_digest(table) -> dict:
    """A table's row count, denominators and one sha256 over its keys and
    the bytes of every column."""
    digest = hashlib.sha256(repr(table.keys).encode())
    for name in _COLUMNS:
        digest.update(getattr(table, name).tobytes())
    return {"rows": len(table), "vector_den": table.vector_den, "ab_den": table.ab_den,
            "phase_den": table.phase_den, "sha256": digest.hexdigest()}


def _scenario_builds(monkeypatch, path) -> list:
    """(args, table) of every build one run of a scenario makes, in order."""
    from vvtheta.cli import run_scenario

    builds = []
    build = theta_mod.build_term_table

    def recording(*args, **kwargs):
        builds.append((args, build(*args, **kwargs)))
        return builds[-1][1]

    with monkeypatch.context() as m:
        m.setattr(theta_mod, "build_term_table", recording)
        run_scenario(str(path))
    return builds


def _term_table_digests(monkeypatch, a2, ii11) -> dict:
    """The digest of every table one run of each bundled scenario builds, in
    build order, and of the theta-rank4 benchmark table."""
    digests = {path.stem: [_table_digest(table) for _args, table in
                           _scenario_builds(monkeypatch, path)]
               for path in sorted(BUNDLED.parent.glob("*.json"))}
    digests["theta-rank4"] = [_table_digest(_rank4_table(a2, ii11))]
    return digests


def test_term_tables_match_golden(monkeypatch, a2, ii11):
    # every exact column and every poly bit of every table the bundled runs
    # and the theta-rank4 benchmark build, against digests of the same builds
    # made before the build's point data was cached (less the symbolic
    # contraction's own copy of the stored mixed table, which each bundled
    # run built first until it read the store)
    want = json.loads(GOLDEN_TABLES.read_text())
    got = _term_table_digests(monkeypatch, a2, ii11)
    assert [len(got[k]) for k in sorted(got)] == [11, 11, 1]
    assert got == want


def test_walk_numbers_past_int64_run_on_python_ints(a1, a2, ii11):
    # with a shift denominator near 10^9 every table numerator fits int64,
    # but the walk's u (p x + b)^2 + v Q on some level could pass 2^62: that
    # level keeps Python ints, and the rows and their exact data match a
    # Fraction reference, so nothing wraps
    cases = [(a1, [[1]], 10 ** 9 + 1), (a2, [[1, 0], [0, 1]], 5 * 10 ** 8 + 1),
             (ii11, [[1, F(1, 2)]], 4 * 10 ** 8 + 1)]
    for lat, span, den in cases:
        point = make_grassmann_point(lat, span)
        n = lat.rank
        beta = [F(1, den)] + [F(0)] * (n - 1)
        alpha = [F(1, 3)] * n
        pair = as_pair((alpha, beta), n)
        cosets = theta_mod._Cosets(lat, [((), [0] * n)])
        forms = theta_mod._IntegerForms(cosets, point, pair, 1.0)
        assert {a.dtype.kind for a, _c in forms.levels} == {"i", "O"}
        table = theta_mod.build_term_table(lat, point, [], cosets, pair, 1.0)
        assert table.a_num.dtype == table.b_num.dtype == np.int64
        want = {}
        for m in itertools.product(range(-3, 4), repeat=n):
            w = [x + b for x, b in zip(m, beta)]
            if _majorant_value(point, w) <= 2:
                plus, minus = _project(point, w)
                want[m] = (lat.norm(plus) / 2, lat.norm(minus) / 2)
        got = {tuple(int(x) for x in v): (F(a, table.ab_den), F(b, table.ab_den))
               for v, a, b in zip(table.vector_tuples(), table.a_num.tolist(),
                                  table.b_num.tolist())}
        assert got == want
        assert len(want) > 1


def test_exact_columns_from_the_sparser_form_match_quad(a1, a2, ii11):
    # a_num and b_num from the walk's value and the sparser of N+ and N- on
    # its support, against W^T N+- W over every coordinate in Python ints:
    # signature (3, 1), II(1,1), a positive and a negative definite lattice
    # (no form to read), a support that is not a run of coordinates, and the
    # lattices whose walk runs on Python ints
    from vvtheta.grassmann import GrassmannPoint

    def case(lat, span, beta):
        return lat, make_grassmann_point(lat, span), beta

    split = construct_lattice([[0, 0, 1], [0, 2, 0], [1, 0, 0]])
    a2_neg = construct_lattice([[-2, -1], [-1, -2]])
    cases = [case(direct_sum(a2, ii11), [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]],
                  [F(1, 2), F(1, 3), F(1, 5), F(1, 4)]),
             case(ii11, [[1, F(1, 3)]], [F(1, 3), F(1, 7)]),
             case(a2, [[1, 0], [0, 1]], [F(1, 3), F(1, 4)]),
             (a2_neg, GrassmannPoint(a2_neg, [], [(1, 0), (0, 1)], np.eye(2)),
              [F(1, 3), F(1, 4)]),
             case(split, [[0, 1, 0], [1, 0, 1]], [F(1, 2), F(1, 3), F(1, 5)]),
             case(a1, [[1]], [F(1, 10 ** 9 + 1)]),
             case(a2, [[1, 0], [0, 1]], [F(1, 5 * 10 ** 8 + 1), 0]),
             case(ii11, [[1, F(1, 2)]], [F(1, 4 * 10 ** 8 + 1), 0])]
    supports = []
    for lat, point, beta in cases:
        n = lat.rank
        cosets = theta_mod._Cosets(lat, [((), [0] * n)])
        table = theta_mod.build_term_table(lat, point, [], cosets, ([F(1, 3)] * n, beta), 1.0)
        assert len(table) > 1
        sign, support, _form = point.build_data.exact_form
        supports.append((sign, np.arange(n)[support].tolist()))
        w = table.vectors.T.astype(object) + np.array(
            [int(b * table.vector_den) for b in beta], dtype=object)[:, None]
        _d, n_plus, n_minus = point.integer_forms
        for got, form in ((table.a_num, n_plus), (table.b_num, n_minus)):
            want = theta_mod._quad(w, np.array(form, dtype=object).reshape(n, n))
            assert got.dtype == np.int64 and got.tolist() == want.tolist()
    assert supports == [(-1, [2, 3]), (1, [0, 1]), (-1, []), (1, []), (-1, [0, 2]),
                        (-1, []), (-1, []), (1, [0, 1])]


def test_point_data_made_once_per_point(monkeypatch):
    # one run of the II(1,1) seesaw builds 11 tables on 4 points, and makes
    # each point's build data once
    from vvtheta.grassmann import PointBuildData

    made = []
    init = PointBuildData.__init__

    def counting(self, point):
        made.append(point)
        init(self, point)

    monkeypatch.setattr(PointBuildData, "__init__", counting)
    builds = _scenario_builds(monkeypatch, BUNDLED)
    points = {id(args[1]) for args, _table in builds}
    assert (len(builds), len(points), len(made)) == (11, 4, 4)
    assert {id(point) for point in made} == points


def test_build_takes_one_coset_per_key(a1):
    # two cosets under one key would interleave their rows, so a build's
    # cosets refuse them
    from vvtheta import DuplicateCosetKey

    point = make_grassmann_point(a1, [[1]])
    with pytest.raises(DuplicateCosetKey):
        theta_mod._Cosets(a1, [((0,), [0]), ((1,), [F(1, 2)]), ((0,), [F(1, 2)])])
    cosets = theta_mod._Cosets(a1, [((1,), [F(1, 2)]), ((0,), [0])])
    table = theta_mod.build_term_table(a1, point, [], cosets)
    assert table.keys == ((0,), (1,))


def _loop_lin(x, mat):
    """_lin by a pure-Python loop: each output from zero, one coordinate at a
    time, both factors taken in the result type."""
    kind = np.result_type(x, mat)
    zero = np.zeros(1, dtype=kind).tolist()[0]
    x, mat = (np.asarray(a, dtype=kind).tolist() for a in (x, mat))
    out = [[zero] * len(x[0]) for _c in mat[0]]
    for i, row in enumerate(mat):
        for c, coeff in enumerate(row):
            for r, value in enumerate(x[i]):
                out[c][r] = out[c][r] + coeff * value
    return out


def test_lin_quad_accumulation_contract():
    # _lin equals a coordinate-by-coordinate loop bit for bit on the dtypes
    # the build and the evaluation use, and _quad on the integer ones it
    # reads, refusing float and complex data; the float path and the exact
    # bytes of a table rely on this
    rng = np.random.default_rng(8)

    def floats(shape):
        return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8, 8, shape)

    def dyadic(shape):
        # m 2^e with m < 2^20: every product is exact, so only the order of the
        # sums can move a bit (numpy may fuse the complex multiply, Python does not)
        return rng.integers(-2 ** 20, 2 ** 20, shape) * 2.0 ** rng.integers(-30, 30, shape)

    makers = {
        "float64": floats,
        "complex": lambda shape: dyadic(shape) + 1j * dyadic(shape),
        "int64": lambda shape: rng.integers(-2 ** 20, 2 ** 20, shape),
        "object": lambda shape: np.array(
            [3 ** 45 * int(v) for v in rng.integers(-99, 99, shape).flat],
            dtype=object).reshape(shape),
    }
    for name, make in makers.items():
        for k in range(1, 6):
            for count in (0, 1, 7):
                x = make((k, count))
                for width in (1, k):
                    mat = make((k, width))
                    got = theta_mod._lin(x, mat)
                    assert got.shape == (width, count)
                    assert got.dtype == np.result_type(x, mat)
                    assert got.tolist() == _loop_lin(x, mat), (name, k, count, width)
                form = make((k, k))
                if name in ("float64", "complex"):
                    with pytest.raises(TypeError):
                        theta_mod._quad(x, form)
                    with pytest.raises(TypeError):
                        theta_mod._quad(x.real.astype(np.int64), form)
                    continue
                lin = _loop_lin(x, form)
                want = [0] * count
                for i in range(k):
                    want = [w + v * t for w, v, t in zip(want, x[i].tolist(), lin[i])]
                got = theta_mod._quad(x, form)
                assert got.shape == (count,)
                assert got.tolist() == want, (name, k, count)
    # real rows against complex ones
    y_powers, poly_t = floats((3, 4)), floats((3, 6)) + 1j * floats((3, 6))
    assert theta_mod._lin(y_powers, poly_t).tolist() == _loop_lin(y_powers, poly_t)


def test_truncation_monotonic(ii11):
    v = make_grassmann_point(ii11, [[1, 1]])
    p = constant_poly(1, 1)
    small = siegel_theta_evaluator(ii11, v, p, None, 4.0).terms
    large = siegel_theta_evaluator(ii11, v, p, None, 9.0).terms
    small_terms = {(t.key, t.vector): t for t in _rows(small)}
    large_terms = {(t.key, t.vector): t for t in _rows(large)}
    assert set(small_terms) <= set(large_terms)
    for k, t in small_terms.items():
        other = large_terms[k]
        assert (t.a, t.b, t.phase, t.poly_coeffs) == \
            (other.a, other.b, other.phase, other.poly_coeffs)


def test_int64_guard_large_denominator(a1, monkeypatch):
    # a shift with denominator 10^10 would need numerators near 10^20: the
    # guard refuses before any enumeration starts
    v = make_grassmann_point(a1, [[1]])
    beta = [F(1, 10 ** 10)]

    def no_walk(*args):
        raise AssertionError("enumeration started before the int64 guard")

    with monkeypatch.context() as m:
        m.setattr(theta_mod, "_fincke_pohst", no_walk)
        with pytest.raises(BoundTooLarge):
            enumerate_vectors(a1, [0], v, beta, 1.0)
        with pytest.raises(BoundTooLarge):
            siegel_theta(a1, 1j, v, constant_poly(1, 0), ([0], beta), 1.0)
    # a denominator of 10^6 stays inside int64 and exact
    got = enumerate_vectors(a1, [0], v, [F(1, 10 ** 6)], 1.0)
    assert got == [(-1,), (0,)]


def test_phase_denominator_past_int64(a1):
    # an alpha denominator of 10^20 puts the phase denominator past int64
    # while its numerators stay small; the phase of size < 1e-19 is read as
    # is, unreduced, and the theta is the unshifted one
    v = make_grassmann_point(a1, [[1]])
    p = constant_poly(1, 0)
    table = siegel_theta_evaluator(a1, v, p, ([F(1, 10 ** 20)], [0]), 4.0).terms
    assert table.phase_den > 2 ** 63
    shifted = siegel_theta(a1, 0.1 + 1j, v, p, ([F(1, 10 ** 20)], [0]), 4.0).value.array
    plain = siegel_theta(a1, 0.1 + 1j, v, p, None, 4.0).value.array
    assert np.allclose(shifted, plain, rtol=1e-15, atol=0)

def test_rank0_lattice_single_term():
    zero = construct_lattice([])
    v = make_grassmann_point(zero, [])
    theta = siegel_theta(zero, 1j, v, constant_poly(0, 0))
    assert theta.value.coeffs == {((),): 1}
    table = siegel_theta_evaluator(zero, v, constant_poly(0, 0)).terms
    assert [(t.vector, t.a, t.b) for t in _rows(table)] == [((), 0, 0)]
    assert enumerate_vectors(zero, [], v, None, 1.0) == [()]


def _random_even_lattice(rng, rank):
    while True:
        gram = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            gram[i][i] = rng.choice([-4, -2, 2, 4])
            for j in range(i):
                gram[i][j] = gram[j][i] = rng.randint(-2, 2)
        det = round(float(np.linalg.det(np.array(gram, dtype=float))))
        if det != 0 and abs(det) <= 16:
            return construct_lattice(gram)


def _random_splitting(rng, lat):
    while True:
        span = [[rng.randint(-3, 3) for _ in range(lat.rank)] for _ in range(lat.sig_plus)]
        try:
            return make_grassmann_point(lat, span)
        except NotPositiveDefiniteSpan:
            continue


def _reference_row(lat, point, series, t, alpha, beta):
    """(a, b, phase, maj, poly coefficients) of one row, vector by vector."""
    w = [x + y for x, y in zip(t.vector, beta)]
    plus, minus = _project(point, w)
    a, b = lat.norm(plus) / 2, lat.norm(minus) / 2
    phase = lat.pairing([x + F(y) / 2 for x, y in zip(t.vector, beta)], alpha)
    coords = point.adapted_coords(w)
    poly = [p.evaluate(coords) * (-1.0 / (8.0 * math.pi)) ** j
            for j, p in enumerate(series)]
    return a, b, phase, _majorant_value(point, w), poly


def test_table_rows_match_per_vector_reference():
    rng = random.Random(2024)
    for rank, bound in ((2, 3), (2, 3), (3, 3), (3, 3), (4, 2), (5, 1)):
        lat = _random_even_lattice(rng, rank)
        point = _random_splitting(rng, lat)
        # t_1^2 t_n: a two-term 1/y series, odd in the last adapted coordinate
        expo = [0] * rank
        expo[0] += 2
        expo[-1] += 1
        degrees = (sum(expo[:lat.sig_plus]), sum(expo[lat.sig_plus:]))
        poly = HomogeneousPolynomial(degrees, lat.sig_plus, lat.sig_minus,
                                     {tuple(expo): 1.0})
        series = laplacian_series(poly)
        alpha = [F(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(rank)]
        beta = [F(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(rank)]
        group = discriminant_group(lat)
        table = siegel_theta_evaluator(lat, point, poly, (alpha, beta), bound).terms
        assert len(table) > 0
        rows = _rows(table)
        assert len(rows) == len(table)
        for t in rows:
            coset = group.dual_vector(t.key[0])
            offsets = [x - c for x, c in zip(t.vector, coset)]
            assert all(abs(d - round(d)) < 1e-9 for d in offsets)
            a, b, phase, maj, ref_poly = _reference_row(lat, point, series, t, alpha, beta)
            assert (t.a, t.b, t.phase) == (a, b, phase)
            assert maj <= 2 * bound
            for got, want in zip(t.poly_coeffs, ref_poly, strict=True):
                assert abs(got - want) <= 1e-12 * (1 + abs(want))
        # a row's data does not depend on the other rows of its table
        larger = {(r.key, r.vector): r
                  for r in _rows(siegel_theta_evaluator(lat, point, poly, (alpha, beta),
                                                        bound + 2).terms)}
        assert all(larger[(t.key, t.vector)] == t for t in rows)
        # batched evaluation against a term-by-term loop
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.3))
        x, y = tau.real, tau.imag
        loop = {}
        for t in rows:
            term = sum(c * y ** (-j) for j, c in enumerate(t.poly_coeffs)) \
                * cmath.exp(2j * math.pi * (x * float(t.a + t.b) - float(t.phase))) \
                * math.exp(-2 * math.pi * y * float(t.a - t.b))
            loop[t.key] = loop.get(t.key, 0j) + term
        got = table.evaluate([tau])[:, 0]
        pref = y ** float(table.prefactor_exponent)
        scale = sum(abs(v) for v in loop.values())
        for key, val in zip(table.keys, got):
            assert abs(val - pref * loop[key]) <= 1e-12 * pref * (1 + scale)
        # a vector exactly on the boundary maj = 2 * bound is included, and
        # excluded once the bound drops by 10^-9
        t = max(rows, key=lambda r: r.a - r.b)
        edge = t.a - t.b
        on = _rows(siegel_theta_evaluator(lat, point, poly, (alpha, beta), edge).terms)
        assert (t.key, t.vector) in {(r.key, r.vector) for r in on}
        below = _rows(siegel_theta_evaluator(lat, point, poly, (alpha, beta),
                                             edge - F(1, 10 ** 9)).terms)
        assert (t.key, t.vector) not in {(r.key, r.vector) for r in below}


def _evaluate_terms_major(table, taus):
    """TermTable.evaluate with (terms x taus) work arrays, the reference
    layout.  Each key's rows are one contiguous segment, summed at each tau
    as the segment's first row plus numpy's pairwise sum of the rest."""
    coeff, rate, omega, group, starts, power = table._factors
    taus = np.asarray(taus, dtype=complex).reshape(-1)
    n_keys, n_terms = len(table.keys), len(table)
    segments = list(zip(starts.tolist(), starts[1:].tolist() + [n_terms]))
    out = np.zeros((n_keys, len(taus)), dtype=complex)
    step = max(1, theta_mod._EVAL_CHUNK // max(n_terms, 1))
    for lo in range(0, len(taus), step):
        x = taus.real[lo:lo + step]
        y = taus.imag[lo:lo + step]
        width = len(y)
        decay = np.exp(rate[:, None] * y)
        values = decay * coeff[0][:, None]
        for j in range(1, len(coeff)):
            values += decay * y ** -j * coeff[j][:, None]
        values *= np.exp(omega[:, None] * x)[group]
        block = np.zeros((n_keys, width), dtype=complex)
        for k, (first, end) in enumerate(segments):
            for t in range(width):
                column = values[first:end, t]
                block[k, t] = column[0] + column[1:].sum() if end - first > 1 else column[0]
        out[:, lo:lo + width] = block * y ** power
    return out


def test_evaluate_bits_do_not_depend_on_the_layout(monkeypatch, a2, ii11):
    # the (taus x terms) layout computes every element with the same floats
    # and sums each key's segment the same way: bit for bit the (terms x
    # taus) evaluation, at 1, 2, 5 and 7 taus, with the taus split over
    # chunks of 2^13 or 2^16 entries or all in one, and on a table without rows
    lat = direct_sum(a2, ii11)
    m_sub = sublattice(lat, [(1, 0, 0, 0), (0, 1, 0, 0)])
    sd = split_data(lat, m_sub)
    u_perp = make_grassmann_point(sd.mperp_sub.lattice, [[1, F(3, 10)]])
    x1_sq = HomogeneousPolynomial((2, 0), 3, 1, {(2, 0, 0, 0): 1.0})
    pair = ([F(1, 3), F(1, 5), F(1, 2), F(1, 7)], [F(1, 2), F(1, 3), F(1, 5), F(1, 4)])
    split = make_grassmann_point(lat, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]])
    float_split = make_grassmann_point(lat, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0.3]])
    tables = [siegel_theta_evaluator(lat, split, x1_sq, pair, 8).terms,
              siegel_theta_evaluator(lat, float_split, x1_sq, pair, 6).terms,
              mixed_theta_family(lat, m_sub, u_perp, constant_poly(1, 1))
              .evaluator(None, 6).terms,
              siegel_theta_evaluator(lat, split, x1_sq, pair, 0).terms]
    assert [len(t) > 100 for t in tables] == [True, True, True, False]
    assert len(tables[-1]) == 0 and theta_mod._EVAL_CHUNK == 2 ** 13
    rng = np.random.default_rng(11)
    taus = rng.uniform(-0.5, 0.5, 7) + 1j * rng.uniform(0.7, 1.4, 7)
    for table in tables:
        for chunk in (2 ** 13, 2 ** 16, 7 * max(len(table), 1)):
            monkeypatch.setattr(theta_mod, "_EVAL_CHUNK", chunk)
            for count in (1, 2, 5, 7):
                got = table.evaluate(taus[:count])
                want = _evaluate_terms_major(table, taus[:count])
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()


def _rank4_table(a2, ii11):
    """The 3420-row table of the theta-rank4 benchmark: A2 (+) II(1,1) at the
    splitting A2 (+) (1, 1), x1^2 lifted, a shift pair, bound 10."""
    lat = direct_sum(a2, ii11)
    sd = split_data(lat, sublattice(lat, [(1, 0, 0, 0), (0, 1, 0, 0)]))
    u = make_grassmann_point(sd.m_sub.lattice, [[1, 0], [0, 1]])
    u_perp = make_grassmann_point(sd.mperp_sub.lattice, [[1, 1]])
    p_v = lift_product(HomogeneousPolynomial((2, 0), 2, 0, {(2, 0): 1.0}),
                       constant_poly(1, 1))
    pair = ([F(1, 3), F(1, 5), F(1, 2), F(1, 7)], [F(1, 2), F(1, 3), F(1, 5), F(1, 4)])
    return siegel_theta_evaluator(lat, direct_sum_grassmann(sd.m_sub, sd.mperp_sub, u, u_perp),
                                  p_v, pair, 10).terms


def _glued_seesaw():
    """(L, M, u, u_perp) of the bundled glued scenario, at its default
    splittings."""
    data = json.loads((BUNDLED.parent / "a2a2a1_glued.json").read_text())
    lat = construct_lattice(data["lattices"]["L"]["gram"])
    m_sub = sublattice(lat, data["sublattice"]["basis"])
    sd = split_data(lat, m_sub)
    return (lat, m_sub, make_grassmann_point(sd.m_sub.lattice, [[1, 0, 0], [0, 1, 0]]),
            make_grassmann_point(sd.mperp_sub.lattice, [[1, 0], [0, 1]]))


def _glued_mixed_table(bound):
    """The mixed theta table of the bundled glued scenario, with its shift
    pair projected to the complement, in complement coordinates."""
    data = json.loads((BUNDLED.parent / "a2a2a1_glued.json").read_text())
    lat, m_sub, _u, u_perp = _glued_seesaw()
    perp = split_data(lat, m_sub).mperp_sub
    pair = [perp.coords_of([F(x) for x in data[name]]) for name in ("alpha", "beta")]
    return mixed_theta_family(lat, m_sub, u_perp, constant_poly(2, 0)).evaluator(
        pair, bound).terms


def _mp_sums(table, tau) -> tuple:
    """Per key: the sum of the table's terms at tau to 30 digits, from the
    exact a, b and phase and the float poly, and the sum of their absolute
    values; both times y^prefactor_exponent."""
    with mpmath.workdps(30):
        x, y = mpmath.mpf(tau.real), mpmath.mpf(tau.imag)
        pref = y ** (mpmath.mpf(table.prefactor_exponent.numerator)
                     / table.prefactor_exponent.denominator)
        sums = [mpmath.mpc(0)] * len(table.keys)
        mags = [mpmath.mpf(0)] * len(table.keys)
        for k, a, b, phase, coeffs in zip(table.key_index.tolist(), table.a_num.tolist(),
                                          table.b_num.tolist(), table.phase_num.tolist(),
                                          table.poly.tolist()):
            a, b = mpmath.mpf(a) / table.ab_den, mpmath.mpf(b) / table.ab_den
            phase = mpmath.mpf(phase) / table.phase_den
            term = sum(mpmath.mpc(c) * y ** -j for j, c in enumerate(coeffs)) \
                * mpmath.exp(-2 * mpmath.pi * y * (a - b)) \
                * mpmath.expjpi(2 * (x * (a + b) - phase)) * pref
            sums[k] += term
            mags[k] += abs(term)
    return [complex(v) for v in sums], [float(v) for v in mags]


def test_evaluate_matches_a_30_digit_sum(a2, ii11):
    # the three-factor kernel against mpmath on the same exact rows: within
    # 1e-14 of the sum of the terms' absolute values, key by key
    taus = [0.13 + 0.97j, -0.37 + 0.9j, 0.41 + 0.6j]
    for table in (_rank4_table(a2, ii11), _glued_mixed_table(8)):
        assert len(table) > 1000
        got = table.evaluate(taus)
        for i, tau in enumerate(taus):
            sums, mags = _mp_sums(table, tau)
            for k in range(len(table.keys)):
                assert abs(got[k, i] - sums[k]) <= 1e-14 * mags[k], (k, tau)


def _frequency_groups(table) -> list:
    """The exact numerator a_num + b_num of each frequency group, after
    checking that every row of a group has that one numerator."""
    _coeff, _rate, omega, group, _starts, _power = table._factors
    numerators = {}
    for g, f in zip(group.tolist(), (table.a_num + table.b_num).tolist()):
        numerators.setdefault(g, set()).add(f)
    assert sorted(numerators) == list(range(len(omega)))
    assert all(len(rows) == 1 for rows in numerators.values())
    return [numerators[g].pop() for g in range(len(omega))]


def _glued_l_table(pair):
    """Theta_L of the bundled glued scenario at its splitting, a constant
    polynomial and bound 8."""
    lat, m_sub, u, u_perp = _glued_seesaw()
    sd = split_data(lat, m_sub)
    return siegel_theta_evaluator(
        lat, direct_sum_grassmann(sd.m_sub, sd.mperp_sub, u, u_perp),
        lift_product(constant_poly(2, 1), constant_poly(2, 0)), pair, 8).terms


def test_frequency_groups_are_exact(a2, ii11):
    # every row of a group shares its exact numerator, and the groups are
    # the distinct numerators, ascending, once each; the unshifted Theta_L of
    # the glued scenario has 73 frequencies over 23 831 rows
    glued_l = _glued_l_table(None)
    for table in (_rank4_table(a2, ii11), _glued_mixed_table(6), glued_l):
        freq = (table.a_num + table.b_num).tolist()
        numerators = _frequency_groups(table)
        assert numerators == sorted(set(freq))
        omega = table._factors[2]
        want = 2j * math.pi * np.array(numerators) / table.ab_den
        assert np.allclose(omega, want, rtol=1e-15, atol=0)
    assert (len(glued_l), len(glued_l._factors[2])) == (23831, 73)
    # two numerators one apart whose frequencies are one float: two groups
    a_num = np.array([2 ** 60, 2 ** 60 + 1, 2 ** 60], dtype=np.int64)
    zeros = np.zeros(3, dtype=np.int64)
    table = theta_mod.TermTable(keys=((0,),), key_index=zeros, vectors=zeros[:, None],
                                vector_den=1, a_num=a_num, b_num=zeros, ab_den=2 ** 61,
                                phase_num=zeros, phase_den=1, poly=np.ones((3, 1), complex),
                                prefactor_exponent=F(0), phase_step=1, freq_step=1,
                                starts=np.zeros(1, dtype=np.intp))
    assert float(a_num[0]) / 2 ** 61 == float(a_num[1]) / 2 ** 61
    assert _frequency_groups(table) == [2 ** 60, 2 ** 60 + 1]
    assert table._factors[3].tolist() == [0, 1, 0]


def test_residue_fold_matches_one_exp_per_row(a2, ii11, monkeypatch):
    # e(-phase) folded over the m residues of the phase numerators against
    # one complex exp per row, bit for bit: the theta-rank4 table (m = 210 of
    # 3420 rows), a 15-row seesaw table with m = rows, the unshifted 15-row
    # mixed table (m = 1) and the 22 827-row glued Theta_L with the
    # scenario's shifts (m = 210); _phase_wave folds the two large ones.
    # The build's phase_step, made from the shifts alone, divides every
    # row's difference, and on all four it is the rows' own step
    seesaw = [table for _args, table in _scenario_builds(monkeypatch, BUNDLED)]
    data = json.loads((BUNDLED.parent / "a2a2a1_glued.json").read_text())
    glued_l = _glued_l_table([[F(x) for x in data[name]] for name in ("alpha", "beta")])
    folds = []
    fold = theta_mod._residue_wave
    monkeypatch.setattr(theta_mod, "_residue_wave",
                        lambda *args: folds.append(args) or fold(*args))
    cases = [(_rank4_table(a2, ii11), 3420, 210, True), (seesaw[5], 15, 15, False),
             (seesaw[0], 15, 1, False), (glued_l, 22827, 210, True)]
    for table, rows, m, folded in cases:
        reduced = table.phase_num % table.phase_den
        step = math.gcd(table.phase_den, *(reduced - reduced[0]).tolist())
        assert (len(table), table.phase_den // step) == (rows, m)
        assert table.phase_den % table.phase_step == 0
        assert not ((table.phase_num - table.phase_num[0]) % table.phase_step).any()
        assert table.phase_step == step
        want = np.exp(reduced * (-1j * theta_mod.TWO_PI / table.phase_den))
        assert fold(reduced, table.phase_den, step).tobytes() == want.tobytes()
        folds.clear()
        got = theta_mod._phase_wave(reduced, table.phase_den, table.phase_step)
        assert got.tobytes() == want.tobytes()
        assert len(folds) == folded
        coeff = table._factors[0]
        assert coeff.tobytes() == np.multiply(table.poly.T, want, order="C").tobytes()


def test_frequency_grouping_runs_once_per_table(a2, ii11, monkeypatch):
    # a build groups nothing, and four one-tau calls on one stored table
    # group it once, by counting: no argsort
    calls = []
    distinct = theta_mod._distinct
    argsort = np.argsort
    monkeypatch.setattr(theta_mod, "_distinct",
                        lambda num, step: calls.append(num) or distinct(num, step))
    monkeypatch.setattr(np, "argsort", lambda *args, **kwargs: calls.append(args)
                        or argsort(*args, **kwargs))
    lat = direct_sum(a2, ii11)
    split = make_grassmann_point(lat, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]])
    x1_sq = HomogeneousPolynomial((2, 0), 3, 1, {(2, 0, 0, 0): 1.0})
    pair = ([F(1, 3), F(1, 5), F(1, 2), F(1, 7)], [F(1, 2), F(1, 3), F(1, 5), F(1, 4)])
    table = siegel_theta_family(lat, split, x1_sq).evaluator(pair, 6).terms
    assert calls == []
    for tau in (0.2 + 1.1j, -0.37 + 0.9j, 0.05 + 0.7j, 0.41 + 1.3j):
        siegel_theta(lat, tau, split, x1_sq, pair, 6)
    assert len(calls) == 1 and calls[0].shape == (len(table),)
    assert siegel_theta_family(lat, split, x1_sq).evaluator(pair, 6).terms is table


def _argsort_groups(table) -> tuple:
    """(omega, group) of _factors by one argsort of the frequency numerators,
    the reference for the grouping by counting."""
    freq_num = table.a_num + table.b_num
    order = np.argsort(freq_num)
    ranked = freq_num[order]
    first = np.empty(len(ranked), dtype=bool)
    first[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    group = np.empty(len(ranked), dtype=np.intp)
    group[order] = first.cumsum() - 1
    return ranked[first] * (1j * (theta_mod.TWO_PI / table.ab_den)), group


def _numerator_table(a_num) -> "theta_mod.TermTable":
    """A one-key table whose frequency numerators are ``a_num``."""
    a_num = np.array(a_num, dtype=np.int64)
    zeros = np.zeros(len(a_num), dtype=np.int64)
    return theta_mod.TermTable(keys=((0,),) if len(a_num) else (), key_index=zeros,
                               vectors=zeros[:, None], vector_den=1, a_num=a_num,
                               b_num=zeros, ab_den=2 ** 61, phase_num=zeros, phase_den=1,
                               poly=np.ones((len(a_num), 1), complex),
                               prefactor_exponent=F(0), phase_step=1, freq_step=1,
                               starts=np.zeros(1 if len(a_num) else 0, dtype=np.intp))


def test_grouping_by_counting_matches_the_argsort(monkeypatch, a2, ii11):
    # a fresh table's omega and group are the argsort reference's, bit for
    # bit: the theta-rank4 table and all 22 tables of the two bundled runs
    # count with no argsort; numerators {0, 1, 2^60} span too many slots and
    # sort; two numerators near 2^60 and a table without rows count
    tables = [_rank4_table(a2, ii11)]
    for path in sorted(BUNDLED.parent.glob("*.json")):
        tables += [table for _args, table in _scenario_builds(monkeypatch, path)]
    assert len(tables) == 23
    sparse = _numerator_table([0, 2 ** 60, 1, 0])
    cases = [(table, 0) for table in tables] + [
        (sparse, 1), (_numerator_table([2 ** 60, 2 ** 60 + 1, 2 ** 60]), 0),
        (_numerator_table([]), 0)]
    argsort = np.argsort
    for table, sorts in cases:
        want = _argsort_groups(table)
        calls = []
        table.__dict__.pop("_factors", None)
        with monkeypatch.context() as m:
            m.setattr(np, "argsort", lambda *args, **kwargs: calls.append(args)
                      or argsort(*args, **kwargs))
            _coeff, _rate, omega, group, _starts, _power = table._factors
        assert len(calls) == sorts
        assert omega.dtype == want[0].dtype and group.dtype == want[1].dtype
        assert omega.tobytes() == want[0].tobytes()
        assert group.tobytes() == want[1].tobytes()
    assert sparse._factors[3].tolist() == [0, 2, 1, 0]


def test_frequency_step_comes_from_the_shifts(monkeypatch, a2, ii11):
    # the build's freq_step, made from its shifts and cosets alone, divides
    # every difference of the frequency numerators a_num + b_num and is their
    # gcd on the theta-rank4 table and all 22 tables of the two bundled runs;
    # a table without rows and a one-row table carry a step too, and no
    # table's _factors calls np.gcd
    tables = [_rank4_table(a2, ii11)]
    for path in sorted(BUNDLED.parent.glob("*.json")):
        tables += [table for _args, table in _scenario_builds(monkeypatch, path)]
    assert len(tables) == 23
    for table in tables:
        freq = (table.a_num + table.b_num).tolist()
        assert table.freq_step == math.gcd(*(f - freq[0] for f in freq)) > 0
    lat = direct_sum(a2, ii11)
    split = make_grassmann_point(lat, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]])
    pair = ([F(1, 3), F(1, 5), F(1, 2), F(1, 7)], [F(1, 2), F(1, 3), F(1, 5), F(1, 4)])
    empty = siegel_theta_evaluator(lat, split, constant_poly(3, 1), pair, 0).terms
    single = siegel_theta_evaluator(lat, split, constant_poly(3, 1), None, 0).terms
    assert (len(empty), len(single)) == (0, 1) and empty.freq_step > 0 < single.freq_step
    for table in tables + [empty, single]:
        want = _argsort_groups(table)
        table.__dict__.pop("_factors", None)
        with monkeypatch.context() as m:
            m.setattr(np, "gcd", None)
            _coeff, _rate, omega, group, _starts, _power = table._factors
        assert omega.tobytes() == want[0].tobytes() and group.tobytes() == want[1].tobytes()


def test_bundled_run_counts(monkeypatch):
    # one run of the bundled II(1,1) scenario walks 16 levels over its 11
    # tables, looks a table up 28 times, evaluates 15 batches and takes 26
    # tail certificates: one per table and tau batch, of every table a
    # check reads
    from vvtheta.cli import run_scenario

    counts = {"levels": 0, "evaluator": 0, "_sums": 0, "tail": 0}
    walk = theta_mod._fincke_pohst

    def counted_walk(levels, steps, bounds, scale, offsets, box):
        counts["levels"] += offsets.shape[0]
        return walk(levels, steps, bounds, scale, offsets, box)

    monkeypatch.setattr(theta_mod, "_fincke_pohst", counted_walk)
    for cls, name in ((theta_mod.ThetaFamily, "evaluator"), (theta_mod.TermTable, "_sums"),
                      (theta_mod.ThetaEvaluator, "tail")):
        def counted(*args, _method=getattr(cls, name), _name=name, **kwargs):
            counts[_name] += 1
            return _method(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    assert run_scenario(str(BUNDLED))["pass"]
    assert counts == {"levels": 16, "evaluator": 28, "_sums": 15, "tail": 26}


def test_bundled_run_tables_die_with_the_run(monkeypatch):
    # a run keeps its tables on the points its scenario parses, so they are
    # freed by reference counting when the run returns, with the cycle
    # collector off; a second run builds its own 11 again
    import gc
    import weakref

    from vvtheta.cli import run_scenario

    built = []
    init = theta_mod.ThetaEvaluator.__init__

    def recording(self, *args, **kwargs):
        built.append(weakref.ref(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(theta_mod.ThetaEvaluator, "__init__", recording)
    gc.disable()
    try:
        for runs in (1, 2):
            assert run_scenario(str(BUNDLED))["pass"]
            assert len(built) == 11 * runs
            assert [ref for ref in built if ref() is not None] == []
    finally:
        gc.enable()


def test_bundled_scenario_tables_have_one_segment_per_key(monkeypatch):
    # the kernel sums each key over one contiguous run of rows: in every
    # table of a run of each bundled scenario, key_index never decreases,
    # every key has a row, and _factors' starts are each key's first row
    from vvtheta.cli import run_scenario

    tables = []
    build = theta_mod.build_term_table

    def recording(*args, **kwargs):
        tables.append(build(*args, **kwargs))
        return tables[-1]

    monkeypatch.setattr(theta_mod, "build_term_table", recording)
    for path in sorted(BUNDLED.parent.glob("*.json")):
        run_scenario(str(path))
    assert len(tables) == 22
    for table in tables:
        index = table.key_index
        assert (np.diff(index) >= 0).all()
        assert np.array_equal(np.unique(index), np.arange(len(table.keys)))
        starts = table._factors[4]
        assert starts.tolist() == [index.tolist().index(k) for k in range(len(table.keys))]


def test_table_without_rows_evaluates_to_no_keys(a2, ii11):
    # no vector of any coset meets bound 0 once shifted by beta, so the
    # table has no rows and no keys, and every evaluation is (0, taus)
    lat = direct_sum(a2, ii11)
    split = make_grassmann_point(lat, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]])
    x1_sq = HomogeneousPolynomial((2, 0), 3, 1, {(2, 0, 0, 0): 1.0})
    pair = ([F(1, 3), F(1, 5), F(1, 2), F(1, 7)], [F(1, 2), F(1, 3), F(1, 5), F(1, 4)])
    ev = siegel_theta_evaluator(lat, split, x1_sq, pair, 0)
    assert (len(ev.terms), ev.terms.keys) == (0, ())
    for count in (1, 2, 5):
        got = ev.terms.evaluate(TAU_SAMPLES[:1] * count)
        assert got.shape == (0, count) and got.dtype == complex
    assert all(not vec.array.any() for vec in ev.vectors(TAU_SAMPLES))


def test_vectors_keep_the_last_batch(ii11, monkeypatch):
    # an evaluator asked again for exactly its last taus returns the same
    # read-only vectors without evaluating; one run of the bundled II(1,1)
    # scenario makes 15 evaluations (26 without this)
    from vvtheta.cli import run_scenario

    calls = []
    sums = theta_mod.TermTable._sums

    def counting(self, taus):
        calls.append(len(taus))
        return sums(self, taus)

    # every evaluation, TermTable.evaluate's included, goes through _sums
    monkeypatch.setattr(theta_mod.TermTable, "_sums", counting)
    v = make_grassmann_point(ii11, [[1, 1]])
    ev = siegel_theta_evaluator(ii11, v, constant_poly(1, 1), None, 8.0)
    first = ev.vectors(TAU_SAMPLES)
    again = ev.vectors([complex(t) for t in TAU_SAMPLES])
    assert [a is b for a, b in zip(first, again)] == [True, True] and calls == [2]
    assert not any(vec.array.flags.writeable for vec in first)
    with pytest.raises(ValueError):
        first[0].array[...] = 0
    # one bit of one tau, or another batch, evaluates again
    nudged = complex(TAU_SAMPLES[0].real, np.nextafter(TAU_SAMPLES[0].imag, 2.0))
    ev.vectors([nudged, TAU_SAMPLES[1]])
    ev.at(TAU_SAMPLES[0])
    value = ev.at(TAU_SAMPLES[0]).value
    assert calls == [2, 2, 1] and np.array_equal(value.array, first[0].array)
    calls.clear()
    report = run_scenario(str(BUNDLED))
    assert all(result["pass"] for result in report["results"].values())
    assert len(calls) == 15


def _full_poly_matrix(series, point, w):
    """The poly columns from every adapted coordinate of the columns of w."""
    coords = theta_mod._lin(w, point.lattice.gram_np() @ point.adapted)
    coords[point.dim_plus:] *= -1.0
    out = np.zeros((w.shape[1], len(series)), dtype=complex)
    for j, poly in enumerate(series):
        col = np.zeros(w.shape[1], dtype=complex)
        for expo, coeff in poly.monomials.items():
            term = np.full(w.shape[1], coeff, dtype=complex)
            for e, t in zip(expo, coords):
                if e:
                    term = term * t ** e
            col = col + term
        out[:, j] = col * (-1.0 / (8.0 * math.pi)) ** j
    return out


def test_poly_matrix_reads_only_the_used_coordinates(a2, ii11, monkeypatch):
    # computing only the adapted coordinates that a monomial reads gives the
    # poly columns of all of them bit for bit: lifted x1^2 reads one, a
    # (1,1) polynomial three (one of them a minus coordinate), and a
    # constant series none, so it calls no _lin
    calls = []
    poly_matrix = theta_mod._poly_matrix

    def recording(*args):
        calls.append((*args, poly_matrix(*args)))
        return calls[-1][-1]

    monkeypatch.setattr(theta_mod, "_poly_matrix", recording)
    _rank4_table(a2, ii11)
    lat = direct_sum(a2, ii11)
    split = make_grassmann_point(lat, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, F(3, 10)]])
    mixed = HomogeneousPolynomial((1, 1), 3, 1, {(1, 0, 0, 1): 1.0, (0, 1, 0, 1): 0.5})
    pair = ([F(1, 3), F(1, 5), F(1, 2), F(1, 7)], [F(1, 2), F(1, 3), F(1, 5), F(1, 4)])
    siegel_theta_evaluator(lat, split, mixed, pair, 6)
    assert [len(call[0]) for call in calls] == [2, 1]
    for series, point, w, den, got in calls:
        assert len(got) > 100
        assert got.tobytes() == _full_poly_matrix(series, point, w / float(den)).tobytes()
    lin_calls = []
    lin = theta_mod._lin
    monkeypatch.setattr(theta_mod, "_lin", lambda *args: lin_calls.append(args) or lin(*args))
    series, point, w, den, _got = calls[1]
    constant = theta_mod._poly_matrix(laplacian_series(constant_poly(3, 1)), point, w, den)
    assert lin_calls == []
    assert constant.shape == (w.shape[1], 1) and (constant == 1).all()


def test_float_poly_columns_match_the_complex_ones(a2, ii11):
    # real coefficients are summed in floats and cast once; each column is
    # the complex product's, bit for bit: signed real coefficients over three
    # series terms (odd terms take a negative factor), a coefficient with a
    # signed-zero imaginary part, and a complex coefficient, which keeps the
    # complex path
    lat = direct_sum(a2, ii11)
    point = make_grassmann_point(lat, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, F(3, 10)]])
    w = _rank4_table(a2, ii11).vectors.T * 3 + 1
    polys = [HomogeneousPolynomial((4, 0), 3, 1, {(4, 0, 0, 0): -1.5, (2, 2, 0, 0): 0.25,
                                                   (1, 1, 2, 0): -2.0}),
             HomogeneousPolynomial((2, 1), 3, 1, {(2, 0, 0, 1): -0.5, (0, 1, 1, 1): 3.0}),
             HomogeneousPolynomial((2, 0), 3, 1, {(2, 0, 0, 0): complex(-1.0, -0.0)}),
             HomogeneousPolynomial((2, 1), 3, 1, {(2, 0, 0, 1): 1.0, (1, 1, 0, 1): 0.5 - 2j})]
    for poly in polys:
        series = poly.series
        got = theta_mod._poly_matrix(series, point, w, 7)
        want = _full_poly_matrix(series, point, w / 7.0)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert [len(poly.series) for poly in polys] == [3, 2, 2, 2]
    assert (np.signbit(_full_poly_matrix(polys[0].series, point, w / 7.0).imag)).any()


# ---------------------------------------------------------------------------
# Siegel theta values

def test_a1_series_oracle(a1):
    v = make_grassmann_point(a1, [[1]])
    p = constant_poly(1, 0)
    for y in (1.0, 0.7):
        theta = siegel_theta(a1, complex(0, y), v, p, None, 10.0)
        oracle = sum(math.exp(-2 * math.pi * y * n * n) for n in range(-8, 9))
        assert abs(theta.value.get(((0,),)) - oracle) < 1e-12
        oracle_1 = sum(math.exp(-2 * math.pi * y * (n + 0.5) ** 2)
                       for n in range(-8, 8))
        assert abs(theta.value.get(((1,),)) - oracle_1) < 1e-12


def test_ii11_value_oracle(ii11):
    v = make_grassmann_point(ii11, [[1, 1]])
    p = constant_poly(1, 1)
    theta = siegel_theta(ii11, 1j, v, p, None, 10.0)
    oracle = sum(math.exp(-math.pi * (m * m + n * n))
                 for m in range(-7, 8) for n in range(-7, 8))
    assert abs(theta.value.get(((),)) - oracle) < 1e-12
    assert theta.tail_estimate < 1e-8


def test_positive_definite_holomorphic(a1_plus_a1):
    # Cauchy-Riemann stencil: definite lattice, harmonic polynomial
    v = make_grassmann_point(a1_plus_a1, [[1, 0], [0, 1]])
    p = constant_poly(2, 0)

    def f(tau):
        return siegel_theta(a1_plus_a1, tau, v, p, None, 12.0).value.get(((0, 0),))

    tau = 0.13 + 0.9j
    h = 1e-5
    dx = (f(tau + h) - f(tau - h)) / (2 * h)
    dy = (f(tau + 1j * h) - f(tau - 1j * h)) / (2 * h)
    assert abs(dx + 1j * dy) < 1e-5  # d/d(conj tau) vanishes

    # negative control: the indefinite prefactor y^(1/2) breaks holomorphy
    ii = construct_lattice([[0, 1], [1, 0]])
    vii = make_grassmann_point(ii, [[1, 1]])
    def g(tau):
        return siegel_theta(ii, tau, vii, constant_poly(1, 1), None, 12.0) \
            .value.get(((),))
    dx = (g(tau + h) - g(tau - h)) / (2 * h)
    dy = (g(tau + 1j * h) - g(tau - 1j * h)) / (2 * h)
    assert abs(dx + 1j * dy) > 1e-3


def test_theta_input_validation(a1):
    v = make_grassmann_point(a1, [[1]])
    p = constant_poly(1, 0)
    with pytest.raises(TauNotInUpperHalfPlane):
        siegel_theta(a1, 0.5 - 1j, v, p)
    with pytest.raises(NonHomogeneousPolynomial):
        siegel_theta(a1, 1j, v, Polynomial(1, 0, {(0,): 1.0}))
    with pytest.raises(NonHomogeneousPolynomial):
        siegel_theta(a1, 1j, v, constant_poly(2, 0))


# ---------------------------------------------------------------------------
# modularity

def test_modularity_a1(a1):
    v = make_grassmann_point(a1, [[1]])
    fam = siegel_theta_family(a1, v, constant_poly(1, 0))
    assert max(modularity_defects(fam, MP_T, TAU_SAMPLES, 1, None, 30.0)) < 1e-10
    assert max(modularity_defects(fam, MP_S, TAU_SAMPLES, 1, None, 30.0, 1e-6)) < 1e-6
    assert max(modularity_defects(fam, MP_Z, TAU_SAMPLES, 1, None, 30.0)) < 1e-8


def test_modularity_with_pair_action(ii11):
    v = make_grassmann_point(ii11, [[1, 1]])
    fam = siegel_theta_family(ii11, v, constant_poly(1, 1))
    alpha = [F(1, 3), F(1, 5)]
    beta = [F(1, 2), F(1, 7)]
    for g, k in [(MP_T, 0), (MP_S, 0)]:
        assert modularity_defects(fam, g, [0.2 + 1.1j], k, (alpha, beta), 30.0)[0] < 1e-8


def test_modularity_composite_element_both_branches(a1):
    # a word-built element with c = 3 exercises the Euclidean decomposition,
    # branch tracking, and the phi power at once
    from vvtheta.weil import MetaplecticElement

    v = make_grassmann_point(a1, [[1]])
    fam = siegel_theta_family(a1, v, constant_poly(1, 0))
    tau = -0.66 + 0.9j
    for branch in (1, -1):
        g = MetaplecticElement(2, 1, 3, 2, branch)
        assert modularity_defects(fam, g, [tau], 1, None, 60.0, 1e-6)[0] < 1e-6


def test_modularity_negative_weight(a1_neg):
    v = make_grassmann_point(a1_neg, [])
    fam = siegel_theta_family(a1_neg, v, constant_poly(0, 1))
    assert max(modularity_defects(fam, MP_T, TAU_SAMPLES, -1, None, 30.0)) < 1e-10
    assert max(modularity_defects(fam, MP_S, TAU_SAMPLES, -1, None, 30.0)) < 1e-6


def test_theta_weight(a1, a1_neg, ii11):
    # (b+ - b-)/2 + m+ - m-: the weights the tests above pass as 2k by hand
    assert theta_weight(a1.signature, (0, 0)) == F(1, 2)
    assert theta_weight(a1_neg.signature, (0, 1)) == F(-3, 2)
    assert theta_weight(ii11.signature, (0, 0)) == 0
    assert theta_weight((2, 1), (1, 0)) == F(3, 2)
    # a degree-(1, 0) polynomial on A1 raises the weight to 3/2
    fam = siegel_theta_family(a1, make_grassmann_point(a1, [[1]]), coordinate_poly(1, 0, 0))
    k = 2 * theta_weight(a1.signature, (1, 0))
    assert k == 3
    assert modularity_defects(fam, MP_S, [0.2 + 1.1j], int(k), None, 30.0)[0] < 1e-6


def test_modularity_wrong_weight_fails(a1):
    v = make_grassmann_point(a1, [[1]])
    fam = siegel_theta_family(a1, v, constant_poly(1, 0))
    for k in (-1, 3):
        assert modularity_defects(fam, MP_S, [0.2 + 1.1j], k, None, 30.0)[0] > 1e-3


def test_modularity_tail_guard(a1):
    v = make_grassmann_point(a1, [[1]])
    fam = siegel_theta_family(a1, v, constant_poly(1, 0))
    with pytest.raises(TailTooLarge):
        modularity_defects(fam, MP_S, [0.05 + 0.4j], 1, None, 0.4, 1e-12)
    # only the second tau's certificate is too large: the guard covers every
    # tau of a batch
    taus = [0.2 + 1.1j, 0.05 + 0.05j]
    assert modularity_defects(fam, MP_S, taus[:1], 1, None, 30.0, 1e-6)[0] < 1e-6
    with pytest.raises(TailTooLarge):
        modularity_defects(fam, MP_S, taus, 1, None, 30.0, 1e-6)


def _tail_reference(q, translates, series, y, bound, prefactor_exponent):
    """The shell-volume integral of _tail_bound by 30-digit quadrature.

    e^{-lam bound} is taken out of the integral, so the quadrature's absolute
    tolerance does not swamp values near 1e-60.
    """
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 30
    n = q.shape[0]
    covol = mp.sqrt(mp.mpf(float(np.linalg.det(q))))
    rho = mp.mpf(0.5 * sum(math.sqrt(q[i, i]) for i in range(n)))
    vol_n = mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2 + 1)
    pieces = [(abs(coeff) / (8 * mp.pi * y) ** j, sum(expo))
              for j, poly in enumerate(series) for expo, coeff in poly.monomials.items()]
    lam, bound = 2 * mp.pi * y, mp.mpf(bound)

    def shifted(u):
        s = mp.sqrt(2 * (bound + u))
        return (sum(c * s ** d for c, d in pieces) * vol_n * n * (s + rho) ** (n - 1)
                / (s * covol) * mp.exp(-lam * u))

    points = [j / lam for j in (0, 1, 2, 4, 8, 16, 32, 64)] + [mp.inf]
    total = mp.exp(-lam * bound) * mp.quad(shifted, points)
    return float(mp.mpf(y) ** float(prefactor_exponent) * translates * total)


def test_tail_bound_closed_form_against_quadrature():
    pytest.importorskip("mpmath")
    from vvtheta.grassmann import shell_count_weights
    from vvtheta.theta import _tail_bound, _tail_shell

    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(1, 5)
        a = np.array([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)], float)
        q = a.T @ a + n * np.eye(n)
        n_plus = rng.randint(0, n)
        deg = rng.randint(0, 3)
        deg_plus = deg if n_plus == n else (0 if n_plus == 0 else rng.randint(0, deg))
        monomials = {}
        for _m in range(3):
            expo = [0] * n
            for k in range(deg):
                plus = k < deg_plus
                expo[rng.randrange(n_plus) if plus else n_plus + rng.randrange(n - n_plus)] += 1
            monomials[tuple(expo)] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        poly = HomogeneousPolynomial((deg_plus, deg - deg_plus), n_plus, n - n_plus, monomials)
        series = laplacian_series(poly)
        y, bound = rng.uniform(0.3, 3.0), rng.uniform(0.5, 14.0)
        prefactor = F(rng.randint(0, 4), 2)
        translates = rng.randint(1, 12)
        got = _tail_bound(_tail_shell(shell_count_weights(q), series), translates, y, bound,
                          prefactor)
        ref = _tail_reference(q, translates, series, y, bound, prefactor)
        assert abs(got - ref) <= 1e-12 * ref, (n, deg, y, bound)
    # nothing to omit: a rank-0 lattice, an empty or a zero series
    zero = Polynomial(1, 0, {})
    for q, series in [(np.zeros((0, 0)), [constant_poly(0, 0)]), (np.eye(1), []),
                      (np.eye(1), [zero])]:
        assert _tail_bound(_tail_shell(shell_count_weights(q), series), 1, 1.0, 2.0,
                           F(0)) == 0.0


# ---------------------------------------------------------------------------
# mixed theta

def test_mixed_coset_series(ii11_split):
    ii11, m_sub, mperp, u, u_perp = ii11_split
    p = constant_poly(1, 0)
    theta = mixed_theta_direct(ii11, m_sub, 1j, u_perp, p, None, 12.0)
    oracle0 = sum(math.exp(-2 * math.pi * n * n) for n in range(-5, 6))
    oracle1 = sum(math.exp(-2 * math.pi * (n + 0.5) ** 2) for n in range(-5, 5))
    assert abs(theta.value.get(((), (0,))) - oracle0) < 1e-12
    assert abs(theta.value.get(((), (1,))) - oracle1) < 1e-12


def test_mixed_trivial_glue_structure(a1a1_split, glue_class):
    lat, m_sub, mperp, u, u_perp = a1a1_split
    p = constant_poly(1, 0)
    theta = mixed_theta_direct(lat, m_sub, 0.4 + 0.9j, u_perp, p, None, 10.0)
    scalar = siegel_theta(mperp.lattice, 0.4 + 0.9j, u_perp, p, None, 10.0)
    sd = split_data(lat, m_sub)
    _combine, split_m, split_perp = disc_product_iso(sd.d_inner, sd.d_m, sd.d_perp)
    # tensor-with-identity structure: component ((dm, dp), dm) = theta_perp[dp]
    for key, val in theta.value.coeffs.items():
        gamma_l, delta_m = key
        inner = next(d for d in orthogonal_subgroup(sd.gm.subgroup)
                     if glue_class(sd.gm, d) == gamma_l)
        dm, dp = split_m(inner), split_perp(inner)
        assert dm == delta_m
        assert abs(val - scalar.value.get((dp,))) < 1e-12


def test_mixed_cross_construction(ii11_split, a1a1_split):
    for split in (ii11_split, a1a1_split):
        lat, m_sub, mperp, u, u_perp = split
        p = constant_poly(1, 0)
        d1 = mixed_theta_direct(lat, m_sub, 0.3 + 0.8j, u_perp, p, None, 12.0)
        d2 = mixed_theta_composed(lat, m_sub, 0.3 + 0.8j, u_perp, p, None, 12.0)
        assert (d1.value - d2.value).norm_inf() < 1e-9 + d1.tail_estimate + d2.tail_estimate


def test_mixed_cross_with_shifts(ii11_split):
    # the two constructions also agree with nonzero complement shifts
    ii11, m_sub, mperp, u, u_perp = ii11_split
    p = constant_poly(1, 0)
    xi = [F(1, 3), F(1, 3)]
    eta = [F(-1, 5), F(-1, 5)]
    for tau in TAU_SAMPLES:
        d1 = mixed_theta_direct(ii11, m_sub, tau, u_perp, p, (xi, eta), 12.0)
        d2 = mixed_theta_composed(ii11, m_sub, tau, u_perp, p, (xi, eta), 12.0)
        assert (d1.value - d2.value).norm_inf() < 1e-12


def test_composed_tail_certifies_omitted_mass(a2, ii11):
    # the push-down copies each complement coset into one entry per glue
    # class, so the certificate must cover every copy, as the direct one does
    lat = direct_sum(a2, ii11)
    m_sub = sublattice(lat, [(1, 0, 0, 0), (0, 1, 0, 0)])
    mperp = orthogonal_complement(lat, m_sub)
    u_perp = make_grassmann_point(mperp.lattice, [[1, 1]])
    p = constant_poly(1, 1)
    full = mixed_theta_direct(lat, m_sub, 0.25j, u_perp, p, None, 40.0)
    for bound in (2.0, 4.0):
        composed = mixed_theta_composed(lat, m_sub, 0.25j, u_perp, p, None, bound)
        direct = mixed_theta_direct(lat, m_sub, 0.25j, u_perp, p, None, bound)
        omitted = sum(abs(val - composed.value.get(key))
                      for key, val in full.value.coeffs.items())
        assert omitted > 0.0
        assert omitted <= composed.tail_estimate
        assert composed.tail_estimate == pytest.approx(direct.tail_estimate, rel=1e-12)


def test_negative_bound_is_a_typed_error(a2, ii11_split):
    # every theta value needs a tail certificate, which has no meaning below
    # bound 0: the evaluators refuse before enumerating, while the walk alone
    # returns no vectors
    point = make_grassmann_point(a2, [[1, 0], [0, 1]])
    p = constant_poly(2, 0)
    ii11, m_sub, mperp, u, u_perp = ii11_split
    p_perp = constant_poly(1, 0)
    for bound in (-1, -1e-9, F(-1, 3), float("nan")):
        with pytest.raises(NegativeBound):
            siegel_theta_evaluator(a2, point, p, None, bound)
        with pytest.raises(NegativeBound):
            siegel_theta(a2, 0.1 + 1j, point, p, None, bound)
        with pytest.raises(NegativeBound):
            mixed_theta_direct(ii11, m_sub, 1j, u_perp, p_perp, None, bound)
        with pytest.raises(NegativeBound):
            mixed_theta_composed(ii11, m_sub, 1j, u_perp, p_perp, None, bound)
    assert enumerate_vectors(a2, [0, 0], point, None, -1) == []
    zero = siegel_theta(a2, 0.1 + 1j, point, p, None, 0)
    table = siegel_theta_evaluator(a2, point, p, None, 0).terms
    assert [t.vector for t in _rows(table)] == [(0, 0)]
    assert zero.tail_estimate > 0


def test_mixed_rejects_bad_shift(ii11_split):
    ii11, m_sub, mperp, u, u_perp = ii11_split
    p = constant_poly(1, 0)
    with pytest.raises(VectorNotInComplement):
        mixed_theta_direct(ii11, m_sub, 1j, u_perp, p, ([1, 0], [0, 0]), 8.0)


def test_mixed_modularity(ii11_split):
    ii11, m_sub, mperp, u, u_perp = ii11_split
    p = constant_poly(1, 0)
    fam = mixed_theta_family(ii11, m_sub, u_perp, p)
    # weight exponent: (b+-c+) - (b--c-) + 0 = 1
    assert max(modularity_defects(fam, MP_T, TAU_SAMPLES, 1, None, 20.0)) < 1e-10
    assert max(modularity_defects(fam, MP_S, TAU_SAMPLES, 1, None, 20.0)) < 1e-6
    for k in (-1, 3):
        assert modularity_defects(fam, MP_S, [0.2 + 1.1j], k, None, 20.0)[0] > 1e-3


def test_mixed_with_complement_shifts(ii11_split):
    ii11, m_sub, mperp, u, u_perp = ii11_split
    p = constant_poly(1, 0)
    # the family takes its pair in complement coordinates: (1/3, 1/3) and
    # (-1/2, -1/2) are 1/3 and -1/2 times the complement's basis (1, 1)
    xi, eta = [F(1, 3)], [F(-1, 2)]
    assert [mperp.embed(x) for x in (xi, eta)] == [[F(1, 3)] * 2, [F(-1, 2)] * 2]
    fam = mixed_theta_family(ii11, m_sub, u_perp, p)
    for g in (MP_T, MP_S):
        assert modularity_defects(fam, g, [0.2 + 1.1j], 1, (xi, eta), 24.0)[0] < 1e-8


# ---------------------------------------------------------------------------
# negation symmetry

def test_negation_residuals(a1, ii11):
    va1 = make_grassmann_point(a1, [[1]])
    assert theta_negation_residuals(a1, [0.2 + 1.1j], va1, constant_poly(1, 0),
                                    None, 12.0)[0] < 1e-10
    vii = make_grassmann_point(ii11, [[1, 1]])
    p_real = coordinate_poly(1, 1, 0)
    pair_v = ([F(1, 3), F(1, 5)], [F(1, 2), F(1, 7)])
    assert theta_negation_residuals(ii11, [0.2 + 1.1j], vii, p_real, pair_v, 12.0)[0] < 1e-10
    p_cplx = p_real.scale(0.5 + 2.0j)
    assert theta_negation_residuals(ii11, [0.2 + 1.1j], vii, p_cplx, pair_v, 12.0)[0] < 1e-10


@pytest.mark.parametrize("case", ["beta_nan", "alpha_inf", "span_nan", "span_inf"])
def test_non_finite_entries_raise_not_rational(ii11, case):
    # a non-finite entry has no rational value: a typed error, not a theta
    # of no rows or of NaN values, nor a raw ValueError or OverflowError
    nan, inf = float("nan"), float("inf")
    v = make_grassmann_point(ii11, [[1, 1]])
    p = constant_poly(1, 1)
    calls = {
        "beta_nan": lambda: siegel_theta(ii11, 0.1 + 1j, v, p, ([0, 0], [nan, 0]), 4.0),
        "alpha_inf": lambda: siegel_theta(ii11, 0.1 + 1j, v, p, ([inf, 0], [0, 0]), 4.0),
        "span_nan": lambda: make_grassmann_point(ii11, [[1, nan]]),
        "span_inf": lambda: make_grassmann_point(ii11, [[1, inf]]),
    }
    with pytest.raises(NotRational):
        calls[case]()


# ---------------------------------------------------------------------------
# residuals and their certificates

def test_residual_is_a_float_with_its_certificate():
    a, b = theta_mod.Residual(1e-3, 1e-20), theta_mod.Residual(1e-5, 1e-2)
    assert isinstance(a, float) and type(float(a)) is float and float(a) == 1e-3
    assert max([a, b]) is a and a > b and a + b == 1e-3 + 1e-5
    with pytest.raises(AttributeError):
        a.stats = {}
    # the worst residual and the worst certificate, each taken separately
    worst = theta_mod.Residual.worst([a, b])
    assert (float(worst), worst.certificate) == (1e-3, 1e-2)


def test_tails_keep_the_last_batch(ii11, monkeypatch):
    # tails reads tail once per tau of a batch, and a batch of the same
    # imaginary parts gets the same values back without a tail call
    calls = []
    tail = theta_mod.ThetaEvaluator.tail

    def counting(self, y):
        calls.append(y)
        return tail(self, y)

    monkeypatch.setattr(theta_mod.ThetaEvaluator, "tail", counting)
    v = make_grassmann_point(ii11, [[1, 1]])
    ev = siegel_theta_evaluator(ii11, v, constant_poly(1, 1), None, 3.0)
    first = ev.tails(TAU_SAMPLES)
    assert calls == [t.imag for t in TAU_SAMPLES] and all(x > 0 for x in first)
    assert first == [tail(ev, t.imag) for t in TAU_SAMPLES]
    assert ev.tails([t + 1 for t in TAU_SAMPLES]) == first and len(calls) == 2
    ev.tails(TAU_SAMPLES[:1])
    assert len(calls) == 3


@pytest.mark.parametrize("split", ["ii11_split", "a1a1_split"])
def test_residual_certificates_sum_the_tables_read(split, request):
    # every residual carries the tails, at its tau, of the tables its two
    # sides read, summed; the composed mixed theta's tail is scaled by
    # SplitData.composed_tail, a transformation law's by |phi_g|^k, and the
    # negation symmetry's right side by the y^w the residual scales it by
    from vvtheta import block_swapped_poly, rescale, swap_blocks_point

    lat, m_sub, mperp, u, u_perp = request.getfixturevalue(split)
    mlat, plat = m_sub.lattice, mperp.lattice
    pu = coordinate_poly(mlat.sig_plus, mlat.sig_minus, 0)
    pp = constant_poly(plat.sig_plus, plat.sig_minus)
    ab = ([F(1, 3), F(2, 5)], [F(1, 2), F(-1, 7)])
    taus, bound = [0.2 + 1.1j, -0.37 + 0.9j], 3.0
    sw = Seesaw(lat, m_sub, u, u_perp, pu, pp)
    vp, on_m, on_perp = sw._pairs(ab)
    big, theta_m = sw.theta_l.evaluator(vp, bound), sw.theta_m.evaluator(on_m, bound)
    perp, mixed = sw.theta_perp.evaluator(on_perp, bound), sw.mixed.evaluator(on_perp, bound)

    def tails(*evaluators):
        return [sum(ev.tail(t.imag) for ev in evaluators) for t in taus]

    def certificates(residuals):
        return [r.certificate for r in residuals]

    assert all(c > 0 for c in tails(big, theta_m, perp, mixed))
    assert certificates(sw.split_residuals(taus, ab, bound)) == tails(big, theta_m, perp)
    assert certificates(sw.pairing_residuals(taus, ab, bound)) == tails(big, theta_m, mixed)
    dl = discriminant_group(lat)
    test_vec = RepVector((Axis(dl, dual=True),), {(x,): 1.0 for x in dl.elements()})
    both = sw.pairing_expression_residuals(taus, test_vec, ab, bound)
    assert certificates(r for r, _ in both) == tails(big, theta_m, perp)
    assert certificates(r for _, r in both) == tails(big, theta_m, mixed)
    direct, perp0 = sw.mixed.evaluator(None, bound), sw.theta_perp.evaluator(None, bound)
    assert certificates(sw.mixed_cross_residuals(taus, bound)) == \
        [direct.tail(t.imag) + sw.sd.composed_tail(perp0.tail(t.imag)) for t in taus]
    neg = rescale(lat, -1)
    lhs = siegel_theta_evaluator(neg, swap_blocks_point(sw.v, neg), block_swapped_poly(sw.p_v),
                                 ab, bound)
    rhs = siegel_theta_family(lat, sw.v, sw.p_v.conjugate()).evaluator(ab, bound)
    w = theta_weight(lat.signature, sw.p_v.degrees)
    negation = certificates(theta_negation_residuals(lat, taus, sw.v, sw.p_v, ab, bound))
    assert negation == [lhs.tail(t.imag) + t.imag ** float(w) * rhs.tail(t.imag) for t in taus]
    # w is -1 or 2 here and no y is 1, so the unscaled sum would differ
    assert w != 0 and all(a != b for a, b in zip(negation, tails(lhs, rhs)))
    k = int(2 * theta_weight(lat.signature, sw.p_v.degrees))
    for g in (MP_T, MP_S):
        moved = sw.theta_l.evaluator(g.act_pair(vp.alpha, vp.beta), bound)
        assert certificates(modularity_defects(sw.theta_l, g, taus, k, ab, bound)) == \
            [moved.tail(g.act(t).imag) + abs(g.phi(t) ** k) * big.tail(t.imag) for t in taus]


# ---------------------------------------------------------------------------
# seesaw identities

def test_seesaw_ii11(ii11_split):
    ii11, m_sub, mperp, u, u_perp = ii11_split
    seesaw = Seesaw(ii11, m_sub, u, u_perp, constant_poly(0, 1), constant_poly(1, 0))
    assert max(seesaw.split_residuals(TAU_SAMPLES, None, 12.0)) < 1e-9
    assert max(seesaw.pairing_residuals(TAU_SAMPLES, None, 12.0)) < 1e-9


def test_seesaw_with_degree_and_shifts(ii11_split):
    ii11, m_sub, mperp, u, u_perp = ii11_split
    pu = coordinate_poly(0, 1, 0)  # degree (0,1) on the negative definite side
    pp = constant_poly(1, 0)
    ab = ([F(1, 3), F(2, 5)], [F(1, 2), F(-1, 7)])
    seesaw = Seesaw(ii11, m_sub, u, u_perp, pu, pp)
    assert max(seesaw.split_residuals(TAU_SAMPLES, ab, 14.0)) < 1e-9
    assert max(seesaw.pairing_residuals(TAU_SAMPLES, ab, 14.0)) < 1e-9


def test_seesaw_a1a1(a1a1_split):
    lat, m_sub, mperp, u, u_perp = a1a1_split
    pu = coordinate_poly(1, 0, 0)  # degree (1,0)
    pp = constant_poly(1, 0)
    ab = ([F(1, 3), F(2, 5)], [F(1, 2), F(-1, 7)])
    seesaw = Seesaw(lat, m_sub, u, u_perp, pu, pp)
    assert max(seesaw.split_residuals(TAU_SAMPLES, ab, 14.0)) < 1e-9
    assert max(seesaw.pairing_residuals(TAU_SAMPLES, ab, 14.0)) < 1e-9


def test_pairing_expressions_both_forms(ii11_split, a1a1_split):
    rng = random.Random(31)
    for split in (ii11_split, a1a1_split):
        lat, m_sub, mperp, u, u_perp = split
        pu = constant_poly(m_sub.lattice.sig_plus, m_sub.lattice.sig_minus)
        pp = constant_poly(mperp.lattice.sig_plus, mperp.lattice.sig_minus)
        dl = discriminant_group(lat)
        test_vec = RepVector((Axis(dl, dual=True),),
                             {(x,): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                              for x in dl.elements()})
        ab = ([F(1, 3)] * lat.rank, [F(-1, 4)] * lat.rank)
        [(r1, r2)] = Seesaw(lat, m_sub, u, u_perp, pu, pp).pairing_expression_residuals(
            [0.2 + 1.1j], test_vec, ab, 14.0)
        assert r1 < 1e-9 and r2 < 1e-9


@pytest.mark.parametrize("split", ["ii11_split", "a1a1_split"])
@pytest.mark.parametrize("shifted", [False, True])
def test_seesaw_batches_equal_single_tau(split, shifted, request):
    # one Seesaw evaluates each table over all taus in one batch; every
    # residual must equal, bit for bit, the same call made at one tau
    lat, m_sub, mperp, u, u_perp = request.getfixturevalue(split)
    mlat, plat = m_sub.lattice, mperp.lattice
    pu = coordinate_poly(mlat.sig_plus, mlat.sig_minus, 0)
    pp = constant_poly(plat.sig_plus, plat.sig_minus)
    ab = ([F(1, 3), F(2, 5)], [F(1, 2), F(-1, 7)]) if shifted else None
    taus = [0.2 + 1.1j, -0.37 + 0.9j, 0.05 + 0.7j]
    bound = 10.0
    seesaw = Seesaw(lat, m_sub, u, u_perp, pu, pp)
    args = (lat, m_sub, u, u_perp, pu, pp)
    split_r = seesaw.split_residuals(taus, ab, bound)
    assert split_r == [Seesaw(*args).split_residuals([t], ab, bound)[0] for t in taus]
    assert max(split_r) < 1e-9
    assert seesaw.pairing_residuals(taus, ab, bound) == \
        [Seesaw(*args).pairing_residuals([t], ab, bound)[0] for t in taus]
    dl = discriminant_group(lat)
    rng = random.Random(7)
    test_vec = RepVector((Axis(dl, dual=True),),
                         {(x,): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                          for x in dl.elements()})
    assert seesaw.pairing_expression_residuals(taus, test_vec, ab, bound) == \
        [Seesaw(*args).pairing_expression_residuals([t], test_vec, ab, bound)[0]
         for t in taus]
    assert seesaw.mixed_cross_residuals(taus, bound) == \
        [(mixed_theta_direct(lat, m_sub, t, u_perp, pp, None, bound).value
          - mixed_theta_composed(lat, m_sub, t, u_perp, pp, None, bound).value).norm_inf()
         for t in taus]
    assert theta_negation_residuals(lat, taus, seesaw.v, seesaw.p_v, ab, bound) == \
        [theta_negation_residuals(lat, [t], seesaw.v, seesaw.p_v, ab, bound)[0]
         for t in taus]
    # modularity: the seesaw's families keep their tables across taus and
    # checks; a fresh family per tau reads the same stored tables
    k_l = int(2 * theta_weight(lat.signature, seesaw.p_v.degrees))
    k_mixed = int(2 * theta_weight(plat.signature, pp.degrees))
    for g in (MP_T, MP_S):
        assert modularity_defects(seesaw.theta_l, g, taus, k_l, ab, bound) == \
            [modularity_defects(siegel_theta_family(lat, seesaw.v, seesaw.p_v), g, [t],
                                k_l, ab, bound)[0] for t in taus]
        assert modularity_defects(seesaw.mixed, g, taus, k_mixed, None, bound) == \
            [modularity_defects(mixed_theta_family(lat, m_sub, u_perp, pp), g, [t],
                                k_mixed, None, bound)[0] for t in taus]
    assert seesaw.theta_l.evaluator(ab, bound) is seesaw.theta_l.evaluator(ab, bound)


def test_rank3_enumeration_box_oracle(ii11, a1):
    big = direct_sum(ii11, a1)
    v = make_grassmann_point(big, [[1, 1, 0], [0, 0, 1]])
    rng = random.Random(6)
    for m, n, k in itertools.product(range(-4, 5), repeat=3):
        assert _majorant_value(v, [m, n, k]) == m * m + n * n + 2 * k * k
    shift = [F(1, 2), F(0), F(1, 2)]
    bound = 3.0
    got = set(enumerate_vectors(big, shift, v, None, bound))
    oracle = set()
    for m, n, k in itertools.product(range(-6, 7), repeat=3):
        lam = (shift[0] + m, shift[1] + n, shift[2] + k)
        if _majorant_value(v, lam) <= 2 * F(bound):
            oracle.add(lam)
    assert got == oracle
    del rng


def test_rank3_seesaw(ii11, a1):
    big = direct_sum(ii11, a1)
    m_sub = sublattice(big, [(1, -1, 0)])
    mperp = orthogonal_complement(big, m_sub)
    assert mperp.lattice.signature == (2, 0)
    u = make_grassmann_point(m_sub.lattice, [])
    u_perp = make_grassmann_point(mperp.lattice, [[1, 0], [0, 1]])
    pu = constant_poly(0, 1)
    pp = constant_poly(2, 0)
    ab = ([F(1, 3), F(0), F(1, 5)], [F(1, 2), F(-1, 7), F(0)])
    seesaw = Seesaw(big, m_sub, u, u_perp, pu, pp)
    for tau in TAU_SAMPLES[:1]:
        assert seesaw.split_residuals([tau], ab, 10.0)[0] < 1e-9
        assert seesaw.pairing_residuals([tau], ab, 10.0)[0] < 1e-9
        d1 = mixed_theta_direct(big, m_sub, tau, u_perp, pp, None, 10.0)
        d2 = mixed_theta_composed(big, m_sub, tau, u_perp, pp, None, 10.0)
        assert (d1.value - d2.value).norm_inf() < 1e-9


def test_coset_factorization_exact(ii11_split):
    # scalar coset series of the big lattice factor through the glue exactly:
    # the (a, b) multiset of Theta_L equals the glue-sum of convolutions
    ii11, m_sub, mperp, u, u_perp = ii11_split
    pu = constant_poly(0, 1)
    pp = constant_poly(1, 0)
    v = make_grassmann_point(ii11, [[1, 1]])
    bound = 9.0
    big = siegel_theta_evaluator(ii11, v, constant_poly(1, 1), None, 2 * bound).terms
    lhs = {}
    for (key, a, b, _ph), c in _term_multiset(big).items():
        if a - b <= bound:  # restrict to majorant <= 2 * bound
            lhs[(a, b)] = lhs.get((a, b), 0j) + c
    sd = split_data(ii11, m_sub)
    theta_m = siegel_theta_evaluator(m_sub.lattice, u, pu, None, 2 * bound).terms
    theta_p = siegel_theta_evaluator(mperp.lattice, u_perp, pp, None, 2 * bound).terms
    m_terms = {}
    for (key, a, b, _ph), c in _term_multiset(theta_m).items():
        m_terms.setdefault(key[0], []).append((a, b, c))
    p_terms = {}
    for (key, a, b, _ph), c in _term_multiset(theta_p).items():
        p_terms.setdefault(key[0], []).append((a, b, c))
    _combine, split_m, split_perp = disc_product_iso(sd.d_inner, sd.d_m, sd.d_perp)
    rhs = {}
    for h in sd.gm.subgroup.elements:
        hm, hp = split_m(h), split_perp(h)
        for a1_, b1, c1 in m_terms.get(hm, []):
            for a2, b2, c2 in p_terms.get(hp, []):
                if (a1_ + a2) - (b1 + b2) <= bound:
                    key = (a1_ + a2, b1 + b2)
                    rhs[key] = rhs.get(key, 0j) + c1 * c2
    assert set(lhs) == set(rhs)
    for k in lhs:
        assert abs(lhs[k] - rhs[k]) < 1e-12


# ---------------------------------------------------------------------------
# the ThetaFamily evaluator store

def _count_builds(monkeypatch) -> list:
    """Record each build_term_table call of the theta module."""
    calls = []
    original = theta_mod.build_term_table

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(theta_mod, "build_term_table", counted)
    return calls


def test_negation_check_reads_the_stored_theta(ii11, monkeypatch):
    # the right side of the negation symmetry, Theta_L with the conjugated
    # polynomial, is the family's stored table: after siegel_theta on the
    # same objects only the L(-1) side is built
    v = make_grassmann_point(ii11, [[1, 1]])
    p = coordinate_poly(1, 1, 0)
    assert p.conjugate() == p
    pair_v = ([F(1, 3), F(1, 5)], [F(1, 2), F(1, 7)])
    calls = _count_builds(monkeypatch)
    siegel_theta(ii11, 0.2 + 1.1j, v, p, pair_v, 12.0)
    assert len(calls) == 1
    residuals = theta_negation_residuals(ii11, [0.2 + 1.1j, -0.37 + 0.9j], v, p,
                                         pair_v, 12.0)
    assert len(calls) == 2 and max(residuals) < 1e-10


def test_siegel_theta_builds_once_across_taus(ii11, monkeypatch):
    # four taus on the same objects: one table, and every value bit for bit
    # the one of a fresh evaluator
    v = make_grassmann_point(ii11, [[1, 1]])
    p = coordinate_poly(1, 1, 0)
    pair_v = ([F(1, 3), F(1, 5)], [F(1, 2), F(1, 7)])
    taus = [0.2 + 1.1j, -0.37 + 0.9j, 0.05 + 0.7j, 0.41 + 1.3j]
    calls = _count_builds(monkeypatch)
    got = [siegel_theta(ii11, t, v, p, pair_v, 10.0) for t in taus]
    assert len(calls) == 1
    fresh = siegel_theta_evaluator(ii11, v, p, pair_v, 10.0)
    for t, value in zip(taus, got):
        want = fresh.at(t)
        assert np.array_equal(value.value.array, want.value.array)
        assert value.tail_estimate == want.tail_estimate
    # the mixed theta, direct and composed, reads stored tables the same way
    m_sub = sublattice(ii11, [(1, -1)])
    u_perp = make_grassmann_point(orthogonal_complement(ii11, m_sub).lattice, [[1]])
    pp = constant_poly(1, 0)
    for fn in (mixed_theta_direct, mixed_theta_composed):
        before = len(calls)
        for t in taus:
            fn(ii11, m_sub, t, u_perp, pp, None, 10.0)
        assert len(calls) == before + 1


def test_store_keys_polynomials_by_value(ii11, monkeypatch):
    # a polynomial made afresh per call hits the store when it is equal to
    # the stored one, and a different coefficient builds again
    v = make_grassmann_point(ii11, [[1, 1]])
    calls = _count_builds(monkeypatch)
    p1, p2 = constant_poly(1, 1), constant_poly(1, 1)
    assert p1 is not p2 and p1 == p2 and hash(p1) == hash(p2)
    siegel_theta(ii11, 1j, v, p1, None, 10.0)
    siegel_theta(ii11, 0.2 + 1j, v, p2, None, 10.0)
    assert len(calls) == 1
    p3 = constant_poly(1, 1, value=2.0)
    assert p3 != p1
    siegel_theta(ii11, 1j, v, p3, None, 10.0)
    assert len(calls) == 2


def test_store_respects_a_lowered_cap(ii11, monkeypatch):
    v = make_grassmann_point(ii11, [[1, 1]])
    p = constant_poly(1, 1)
    siegel_theta(ii11, 1j, v, p, None, 10.0)
    monkeypatch.setenv("THETA_MAX_VECTORS", "10")
    with pytest.raises(BoundTooLarge):
        siegel_theta(ii11, 1j, v, p, None, 10.0)
    # the failed build was not kept on the point
    assert not any(key[-1] == 10 for key in v.tables)


def test_store_shares_one_build_for_float_and_rational_shifts(a1, monkeypatch):
    # a shift entry is read as the decimal written, so the float 0.5 and 1/2
    # are one key, and so are 0.1 and 1/10
    v = make_grassmann_point(a1, [[1]])
    p = constant_poly(1, 0)
    calls = _count_builds(monkeypatch)
    siegel_theta(a1, 1j, v, p, ([0], [F(1, 2)]), 4.0)
    siegel_theta(a1, 1j, v, p, ([0], [0.5]), 4.0)
    assert len(calls) == 1
    siegel_theta(a1, 1j, v, p, ([0.1], [0]), 4.0)
    siegel_theta(a1, 1j, v, p, ([F(1, 10)], [0]), 4.0)
    assert len(calls) == 2


def test_store_keys_the_pair_by_integer_ratios(a1):
    # a hit hashes the pair as (numerator, denominator) ints, not Fractions
    v = make_grassmann_point(a1, [[1]])
    siegel_theta(a1, 1j, v, constant_poly(1, 0), ([F(1, 3)], [0.5]), 4.0)
    (key,) = v.tables
    assert key[1] == ((1, 3), (1, 2))
    assert all(type(x) is int for ratio in key[1] for x in ratio)


def test_shift_pair_is_read_once(ii11, monkeypatch):
    # the family reads each shift entry once, and the evaluator and the build
    # it calls take the VectorPair as it is; so does a second evaluator call
    # on a VectorPair, which reads nothing
    from vvtheta import VectorPair, exact

    v = make_grassmann_point(ii11, [[1, 1]])
    family = theta_mod.siegel_theta_family(ii11, v, constant_poly(1, 1))
    read = []
    rational = exact.rational

    def counting(x):
        read.append(x)
        return rational(x)

    monkeypatch.setattr(exact, "rational", counting)
    family.evaluator(([F(1, 3), 0.5], [F(1, 5), F(1, 7)]), 4.0)
    assert read == [F(1, 3), 0.5, F(1, 5), F(1, 7)]
    pair = VectorPair([F(1, 3), F(1, 2)], [F(1, 5), F(1, 7)])
    read.clear()
    evaluator = family.evaluator(pair, 4.0)
    assert read == [] and len(evaluator.terms) > 0

def test_vector_pair_carries_its_store_key(ii11):
    # a VectorPair holds its entries' (numerator, denominator) ints, alpha
    # first, made with the pair, and its int rows over each side's least
    # common denominator; the zero pair of a rank is made once
    from vvtheta import VectorPair

    pair = VectorPair([F(1, 3), 0.5], [2, F(-3, 4)])
    assert pair.key == ((1, 3), (1, 2), (2, 1), (-3, 4))
    assert all(type(x) is int for ratio in pair.key for x in ratio)
    assert pair.integer_rows == (([2, 3], 6), ([8, -3], 4))
    assert as_pair(None, 2) is as_pair(None, 2)
    assert as_pair(None, 2).key == ((0, 1),) * 4


def test_seesaw_reads_each_pair_once(ii11_split, monkeypatch):
    # the seesaw projects an ambient pair once, into VectorPairs it hands its
    # families, so once its tables are stored every residual method on the
    # pair reads no entry, builds nothing and gives the same values
    from vvtheta import VectorPair

    lat, m_sub, _mperp, u, u_perp = ii11_split
    sw = Seesaw(lat, m_sub, u, u_perp, constant_poly(0, 1), constant_poly(1, 0))
    pair = VectorPair([F(1, 3), F(1, 5)], [F(1, 2), F(1, 7)])
    test = RepVector.basis_vector((Axis(sw.sd.d_l, dual=True),), ((),))

    def residuals():
        return (sw.split_residuals(TAU_SAMPLES, pair, 8.0),
                sw.pairing_residuals(TAU_SAMPLES, pair, 8.0),
                sw.pairing_expression_residuals(TAU_SAMPLES, test, pair, 8.0))

    first = residuals()
    read = []
    rational = exact.rational
    monkeypatch.setattr(exact, "rational", lambda x: read.append(x) or rational(x))
    calls = _count_builds(monkeypatch)
    assert residuals() == first
    assert (read, calls) == ([], [])
