import json
import pathlib
import random
from fractions import Fraction as F

import pytest

from vvtheta import (
    Degenerate,
    DegenerateSublattice,
    NotEven,
    NotIntegral,
    NotIsotropic,
    NotPrimitive,
    NotSymmetric,
    check_isotropic,
    construct_lattice,
    direct_sum,
    discriminant_group,
    orthogonal_complement,
    rescale,
    sublattice,
)
from vvtheta.discforms import overlattice_from_isotropic


def test_construct_signatures():
    assert construct_lattice([[2]]).signature == (1, 0)
    assert construct_lattice([[0, 1], [1, 0]]).signature == (1, 1)
    assert construct_lattice([[2, 1], [1, 2]]).signature == (2, 0)
    assert construct_lattice([[-2]]).signature == (0, 1)


def _skew_ii11(k: int) -> list:
    """[[2k, 2k+1], [2k+1, 2k+2]]: determinant -1, so isometric to II(1,1)."""
    return [[2 * k, 2 * k + 1], [2 * k + 1, 2 * k + 2]]


E8 = [[2, -1, 0, 0, 0, 0, 0, 0], [-1, 2, -1, 0, 0, 0, 0, 0], [0, -1, 2, -1, 0, 0, 0, -1],
      [0, 0, -1, 2, -1, 0, 0, 0], [0, 0, 0, -1, 2, -1, 0, 0], [0, 0, 0, 0, -1, 2, -1, 0],
      [0, 0, 0, 0, 0, -1, 2, 0], [0, 0, -1, 0, 0, 0, 0, 2]]
GLUED_L = json.loads((pathlib.Path(__file__).resolve().parents[1] / "scenarios"
                      / "a2a2a1_glued.json").read_text())["lattices"]["L"]["gram"]

#: Gram matrices and their signatures: id -> (gram, (b+, b-))
SIGNATURE_CASES = {
    "ii11_k581786674": (_skew_ii11(581_786_674), (1, 1)),
    "ii11_k1e8": (_skew_ii11(10 ** 8), (1, 1)),
    "a2": ([[2, 1], [1, 2]], (2, 0)),
    "ii11": ([[0, 1], [1, 0]], (1, 1)),
    "a2_neg": ([[-2, -1], [-1, -2]], (0, 2)),
    "e8": (E8, (8, 0)),
    "glued_l": (GLUED_L, (4, 1)),
}


def _unimodular(rng: random.Random, n: int) -> list:
    """A seeded integer matrix of determinant +-1: elementary row operations
    (add a multiple of one row to another, swap two rows, negate a row) on
    the identity."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(4 * n):
        i, j = rng.sample(range(n), 2)
        move = rng.randrange(3)
        if move == 0:
            c = rng.randint(-3, 3)
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
        elif move == 1:
            u[i], u[j] = u[j], u[i]
        else:
            u[i] = [-a for a in u[i]]
    return u


@pytest.mark.parametrize("case", sorted(SIGNATURE_CASES))
def test_signature_is_exact(case):
    # the signature is the inertia of an exact elimination: a float
    # eigensolver read (2, 0) off ii11_k581786674 and called ii11_k1e8
    # degenerate; five seeded unimodular changes of basis U^T G U of each
    # case keep the signature of the unchanged lattice
    gram, signature = SIGNATURE_CASES[case]
    assert construct_lattice(gram).signature == signature
    rng = random.Random(case)
    n = len(gram)
    for _ in range(5):
        u = _unimodular(rng, n)
        changed = [[sum(u[a][i] * gram[a][b] * u[b][j] for a in range(n) for b in range(n))
                    for j in range(n)] for i in range(n)]
        assert construct_lattice(changed).signature == signature


def test_construct_rejects():
    with pytest.raises(NotEven):
        construct_lattice([[1]])
    with pytest.raises(NotSymmetric):
        construct_lattice([[2, 1], [0, 2]])
    with pytest.raises(NotSymmetric):
        construct_lattice([[2, 1]])
    with pytest.raises(Degenerate):
        construct_lattice([[2, 2], [2, 2]])


def test_rank_zero_lattice():
    empty = construct_lattice([])
    assert empty.rank == 0 and empty.signature == (0, 0)
    assert discriminant_group(empty).order == 1


def test_direct_sum(a1, a1_neg, ii11):
    s = direct_sum(a1, a1_neg)
    assert s.gram == ((2, 0), (0, -2))
    assert s.signature == (1, 1)
    assert direct_sum(a1, a1).signature == (2, 0)
    t = direct_sum(ii11, a1)
    assert t.rank == 3 and t.signature == (2, 1)


def test_disc_order_multiplicative(a1, a2, a1_neg):
    for l1, l2 in [(a1, a2), (a1, a1_neg), (a2, a2)]:
        d = discriminant_group(direct_sum(l1, l2))
        assert d.order == discriminant_group(l1).order * discriminant_group(l2).order


def test_rescale(a1, ii11):
    neg = rescale(a1, -1)
    assert neg.gram == ((-2,),) and neg.signature == (0, 1)
    assert rescale(neg, -1).gram == a1.gram
    assert rescale(ii11, -1).signature == (1, 1)
    with pytest.raises(Degenerate):
        rescale(a1, 0)


def test_orthogonal_complement_examples(ii11):
    m = sublattice(ii11, [(1, 1)])
    assert m.lattice.gram == ((2,),)
    comp = orthogonal_complement(ii11, m)
    assert comp.lattice.gram == ((-2,),)
    assert comp.basis in (((1, -1),), ((-1, 1),))

    m2 = sublattice(ii11, [(1, -1)])
    comp2 = orthogonal_complement(ii11, m2)
    assert comp2.lattice.gram == ((2,),)

    block = construct_lattice([[2, 0], [0, -2]])
    mb = sublattice(block, [(1, 0)])
    assert orthogonal_complement(block, mb).basis in (((0, 1),), ((0, -1),))


def test_complement_rank_and_primitivity(ii11, a1_plus_a1neg, a2):
    for lat, gens in [(ii11, [(1, 1)]), (a1_plus_a1neg, [(1, 0)]),
                      (a2, [(1, 0)]), (a2, [(1, 1)])]:
        m = sublattice(lat, gens)
        comp = orthogonal_complement(lat, m)
        assert m.rank + comp.rank == lat.rank
        # the complement is saturated: rebuilding it changes nothing
        again = sublattice(lat, comp.basis)
        assert again.basis == comp.basis


def test_nonprimitive_and_degenerate_rejected(ii11):
    with pytest.raises(NotPrimitive):
        sublattice(ii11, [(2, 2)])
    with pytest.raises(DegenerateSublattice):
        sublattice(ii11, [(1, 1), (2, 2)])
    # isotropic generator spans a degenerate sublattice
    with pytest.raises(DegenerateSublattice):
        sublattice(ii11, [(1, 0)])


def test_overlattice_from_isotropic(a1_plus_a1neg):
    d = discriminant_group(a1_plus_a1neg)
    h = check_isotropic(d, [(1, 1)])
    emb = overlattice_from_isotropic(a1_plus_a1neg, h)
    assert emb.index == 2
    assert discriminant_group(emb.big).order == 1
    assert emb.big.signature == (1, 1)
    # trivial subgroup gives back the lattice
    triv = check_isotropic(d, [])
    emb0 = overlattice_from_isotropic(a1_plus_a1neg, triv)
    assert emb0.index == 1 and emb0.big.gram == a1_plus_a1neg.gram


def test_overlattice_rejects_anisotropic(a1_plus_a1neg, a1_plus_a1):
    d = discriminant_group(a1_plus_a1neg)
    with pytest.raises(NotIsotropic):
        check_isotropic(d, [(1, 0)])
    d2 = discriminant_group(a1_plus_a1)
    with pytest.raises(NotIsotropic):
        check_isotropic(d2, [(1, 1)])


def test_overlattice_disc_order_property(a1, a1_neg):
    # |D_big| = |D_small| / |H|^2 on a rank 3 example as well
    lam = direct_sum(direct_sum(a1_neg, a1_neg), a1)
    d = discriminant_group(lam)
    h = check_isotropic(d, [(1, 0, 1)])
    emb = overlattice_from_isotropic(lam, h)
    assert discriminant_group(emb.big).order == d.order // h.order ** 2


def test_sublattice_coords_roundtrip(ii11):
    m = sublattice(ii11, [(1, 1)])
    vec = m.embed([F(3, 2)])
    assert m.coords_of(vec) == [F(3, 2)]
    # projection of an orthogonal vector is zero
    assert m.coords_of([1, -1]) == [0]


#: one non-integral entry per id; each used to reach a lattice as a truncated
#: int or to stop with a raw ValueError
NON_INTEGRAL = {
    "gram_half": lambda: construct_lattice([[0, 1], [1, 0.5]]),
    "gram_string": lambda: construct_lattice([[0, 1], [1, "x"]]),
    "sublattice_half": lambda: sublattice(construct_lattice([[0, 1], [1, 0]]), [[1.5, -1]]),
}


@pytest.mark.parametrize("case", sorted(NON_INTEGRAL))
def test_non_integral_entries_rejected(case):
    with pytest.raises(NotIntegral):
        NON_INTEGRAL[case]()


def test_integral_rationals_and_floats_accepted():
    assert construct_lattice([[F(2), 1.0], [1, 2]]).gram == ((2, 1), (1, 2))
    ii11 = construct_lattice([[0, 1], [1, 0]])
    assert sublattice(ii11, [[1.0, F(-1)]]).basis == ((1, -1),)


def test_lattice_equality_ignores_name():
    # the caches and the evaluator store key lattices by Gram data, not label
    x = construct_lattice([[2, 1], [1, 2]], name="A2")
    y = construct_lattice([[2, 1], [1, 2]], name="hexagonal")
    assert x is not y and x == y and hash(x) == hash(y)
    assert x != rescale(x, -1) and x != "A2"
    assert {x: 1}[y] == 1


def test_sublattice_equality_is_by_value(ii11):
    # the mixed theta store keys on the sublattice: two builds from the same
    # generators are one key, other generators another
    m1 = sublattice(ii11, [(1, 1)])
    m2 = sublattice(ii11, [[1.0, F(1)]])
    assert m1 is not m2 and m1 == m2 and hash(m1) == hash(m2)
    assert m1 != sublattice(ii11, [(1, -1)]) and m1 != m1.lattice


def test_hash_reads_the_value_once(monkeypatch, ii11):
    # lattices and sublattices are immutable, so each computes its hash once:
    # a store hit hashes the same lattice for the family key and the store key
    from vvtheta.lattice import Lattice, Sublattice

    lat = construct_lattice([[2, 1, 0], [1, 2, 1], [0, 1, 4]])
    sub = sublattice(ii11, [(1, 2)])
    for cls, obj in ((Lattice, lat), (Sublattice, sub)):
        calls = []
        value = cls._value

        def counting(self, value=value, calls=calls):
            calls.append(self)
            return value(self)

        monkeypatch.setattr(cls, "_value", counting)
        assert hash(obj) == hash(obj) == hash(value(obj))
        assert calls == [obj]
