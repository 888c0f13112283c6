import os

# one BLAS thread, as in bench/run.py: the Weil and glue matrix products are
# small, and thread hand-off costs more than it saves on a loaded host
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402

from vvtheta import (  # noqa: E402
    construct_lattice,
    direct_sum,
    make_grassmann_point,
    orthogonal_complement,
    rescale,
    sublattice,
)
from vvtheta import theta  # noqa: E402


@pytest.fixture(autouse=True)
def empty_evaluator_store():
    """Each test starts with an empty ThetaFamily store, so no test depends on
    which ran before it, and a monkeypatched walk or cap is always reached."""
    theta._EVALUATORS.clear()


@pytest.fixture(scope="session")
def a1():
    return construct_lattice([[2]], name="A1")


@pytest.fixture(scope="session")
def a1_neg(a1):
    return rescale(a1, -1, name="A1(-1)")


@pytest.fixture(scope="session")
def ii11():
    return construct_lattice([[0, 1], [1, 0]], name="II11")


@pytest.fixture(scope="session")
def a2():
    return construct_lattice([[2, 1], [1, 2]], name="A2")


@pytest.fixture(scope="session")
def a1_plus_a1(a1):
    return direct_sum(a1, a1, name="A1+A1")


@pytest.fixture(scope="session")
def a1_plus_a1neg(a1, a1_neg):
    return direct_sum(a1, a1_neg, name="A1+A1(-1)")


@pytest.fixture(scope="session")
def test_lattices(a1, a1_neg, ii11, a2, a1_plus_a1neg):
    return [a1, a1_neg, ii11, a2, a1_plus_a1neg]


@pytest.fixture(scope="session")
def ii11_split(ii11):
    """L = II11 with M = span{(1,-1)} and its complement span{(1,1)}."""
    m_sub = sublattice(ii11, [(1, -1)])
    mperp = orthogonal_complement(ii11, m_sub)
    u = make_grassmann_point(m_sub.lattice, [])
    u_perp = make_grassmann_point(mperp.lattice, [[1]])
    return ii11, m_sub, mperp, u, u_perp


@pytest.fixture(scope="session")
def a1a1_split(a1_plus_a1):
    m_sub = sublattice(a1_plus_a1, [(1, 0)])
    mperp = orthogonal_complement(a1_plus_a1, m_sub)
    u = make_grassmann_point(m_sub.lattice, [[1]])
    u_perp = make_grassmann_point(mperp.lattice, [[1]])
    return a1_plus_a1, m_sub, mperp, u, u_perp
