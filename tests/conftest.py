import os

# one BLAS thread, as in bench/run.py: the Weil and glue matrix products are
# small, and thread hand-off costs more than it saves on a loaded host
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from vvtheta import (  # noqa: E402
    construct_lattice,
    direct_sum,
    make_grassmann_point,
    orthogonal_complement,
    rescale,
    sublattice,
)
from vvtheta import exact  # noqa: E402
from vvtheta.discforms import orthogonal_subgroup  # noqa: E402


def _glue_class(gm, x):
    """The class in D_big of an element x of H-perp, read off its own dual
    vector: glue^-1 times that lift is a big dual vector, classified by
    from_dual.  A reference that shares no array with the glue map."""
    glue_inv = exact.mat_inv(gm.embedding.glue_rows())
    return gm.big_disc.from_dual(exact.mat_vec(glue_inv, gm.small_disc.dual_vector(x)))


@pytest.fixture(scope="session")
def glue_class():
    """_glue_class, for tests that check the glue map's arrays against it."""
    return _glue_class


@pytest.fixture(scope="session")
def glue_matrix():
    """gm -> the 0/1 matrix of the down arrow (rows D_big, columns D_small),
    one entry per element of H-perp, placed by _glue_class."""
    def matrix(gm):
        mat = np.zeros((gm.big_disc.order, gm.small_disc.order))
        for x in orthogonal_subgroup(gm.subgroup):
            mat[gm.big_disc.index(_glue_class(gm, x)), gm.small_disc.index(x)] = 1.0
        return mat
    return matrix


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


@pytest.fixture
def ii11_split(ii11):
    """L = II11 with M = span{(1,-1)} and its complement span{(1,1)}; fresh
    points per test, so no test reads the tables another built on them."""
    m_sub = sublattice(ii11, [(1, -1)])
    mperp = orthogonal_complement(ii11, m_sub)
    u = make_grassmann_point(m_sub.lattice, [])
    u_perp = make_grassmann_point(mperp.lattice, [[1]])
    return ii11, m_sub, mperp, u, u_perp


@pytest.fixture
def a1a1_split(a1_plus_a1):
    """L = A1+A1 with M = span{(1,0)}, on fresh points per test."""
    m_sub = sublattice(a1_plus_a1, [(1, 0)])
    mperp = orthogonal_complement(a1_plus_a1, m_sub)
    u = make_grassmann_point(m_sub.lattice, [[1]])
    u_perp = make_grassmann_point(mperp.lattice, [[1]])
    return a1_plus_a1, m_sub, mperp, u, u_perp
