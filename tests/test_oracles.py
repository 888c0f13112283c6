"""Closed-form values that no engine path shares.

Every identity check compares two outputs of one engine, so a convention
error both sides share cancels.  These classical values share none of them:
Theta_E8 = E4 at tau = i and at tau = rho, its coefficients 240 sigma_3(n),
and the representation numbers of the A2 form x^2 + xy + y^2.  Float values
are compared with the theta value's tail certificate as the tolerance, so a
pass also says that the certificate covers the true error.
"""

import cmath
import math
from fractions import Fraction as F

from vvtheta import constant_poly, construct_lattice, make_grassmann_point, siegel_theta
from vvtheta.theta import siegel_theta_evaluator

E8 = [[2, -1, 0, 0, 0, 0, 0, 0], [-1, 2, -1, 0, 0, 0, 0, 0], [0, -1, 2, -1, 0, 0, 0, -1],
      [0, 0, -1, 2, -1, 0, 0, 0], [0, 0, 0, -1, 2, -1, 0, 0], [0, 0, 0, 0, -1, 2, -1, 0],
      [0, 0, 0, 0, 0, -1, 2, 0], [0, 0, -1, 0, 0, 0, 0, 2]]


def _definite(gram):
    """(lattice, point, constant polynomial) of a positive definite Gram."""
    lat = construct_lattice(gram)
    n = lat.rank
    point = make_grassmann_point(lat, [[int(i == j) for j in range(n)] for i in range(n)])
    return lat, point, constant_poly(n, 0)


def _sigma3(n: int) -> int:
    return sum(d ** 3 for d in range(1, n + 1) if n % d == 0)


def test_e8_at_i_and_rho_within_its_tail():
    # E4(i) = 3 Gamma(1/4)^8 / (2 pi)^6 and E4(rho) = 0; at bound 5 the
    # errors are 2.6e-12 and 4.0e-10.  Catches a wrong power of q, a dropped
    # last shell or a wrong prefactor, and a tail below the true error
    lat, point, poly = _definite(E8)
    at_i = siegel_theta(lat, 1j, point, poly, None, 5.0)
    want = 3 * math.gamma(0.25) ** 8 / (2 * math.pi) ** 6
    error = abs(complex(at_i.value.array.reshape(-1)[0]) - want)
    assert 1e-13 < error <= at_i.tail_estimate
    at_rho = siegel_theta(lat, cmath.exp(2j * math.pi / 3), point, poly, None, 5.0)
    error = abs(complex(at_rho.value.array.reshape(-1)[0]))
    assert 1e-11 < error <= at_rho.tail_estimate


def test_e8_coefficients_are_240_sigma3():
    # exactly 240 sigma_3(n) vectors of norm 2n for n <= 5, and one of norm 0
    lat, point, poly = _definite(E8)
    table = siegel_theta_evaluator(lat, point, poly, None, 5.0).terms
    (series,) = table.q_series().values()
    assert series == {F(n): complex(240 * _sigma3(n) if n else 1) for n in range(6)}


def test_a2_zero_coset_counts_divisors_mod_3():
    # the zero coset of Theta_A2 counts the solutions of x^2 + xy + y^2 = n:
    # 6 (d_1,3(n) - d_2,3(n)), d_j,3(n) the divisors of n that are j mod 3
    lat, point, poly = _definite([[2, 1], [1, 2]])
    table = siegel_theta_evaluator(lat, point, poly, None, 14.0).terms
    zero = table.q_series()[table.keys.index(((0,),))]

    def count(n):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        return 6 * (sum(d % 3 == 1 for d in divisors) - sum(d % 3 == 2 for d in divisors))

    want = {F(n): complex(count(n) if n else 1) for n in range(15)}
    assert zero == {e: c for e, c in want.items() if c}
