"""Theta contraction of dual-representation forms, and lift diagnostics.

A q-expansion form is a finite coset-indexed expansion with exact rational
exponents; pairing it against the mixed theta of (L, M) pointwise gives the
contraction, and when the complement is positive definite the same object is
assembled symbolically as an exact product of q-series.  The regularized
lift itself is out of scope; what is computed is its integrand and a naive
quadrature over a truncated fundamental domain, which is enough to check the
restriction identity.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from . import exact
from .discforms import DiscriminantGroup, discriminant_group
from .errors import (
    ComplementNotDefinite,
    EmptyGrid,
    InconsistentDegrees,
    IndexMismatch,
    PolynomialNotHarmonic,
)
from .grassmann import GrassmannPoint, HomogeneousPolynomial
from .lattice import Lattice, Sublattice
from .theta import (
    TWO_PI,
    Residual,
    Seesaw,
    ThetaEvaluator,
    _check_bound,
    mixed_theta_family,
    siegel_theta_evaluator,
    split_data,
    theta_weight,
)
from .weil import Axis, RepVector, pair as rep_pair


class QExpansionForm:
    """Finite q-expansion valued in the dual group algebra of a lattice.

    ``terms`` maps (coset coordinates, exact exponent) to a coefficient; the
    exponent of a term on coset gamma must be congruent to -q(gamma) mod 1
    (the dual-side convention, so pairings against theta vectors have
    integral q-powers).  Negative exponents (principal parts) are allowed.
    """

    def __init__(self, lattice: Lattice, weight, terms: dict):
        self.lattice = lattice
        self.weight = Fraction(weight)
        group = discriminant_group(lattice)
        elements = set(group.elements())
        canon = {}
        for (coset, expo), coeff in terms.items():
            coset = tuple(int(c) for c in coset)
            expo = Fraction(expo)
            if coset not in elements:
                raise IndexMismatch(f"coset {coset} is not a reduced element of {group}")
            if exact.mod1(expo + group.q(coset)) != 0:
                raise IndexMismatch(
                    f"exponent {expo} on coset {coset} violates the dual "
                    f"congruence (needs -q = {exact.mod1(-group.q(coset))} mod 1)")
            if complex(coeff) != 0:
                canon[(coset, expo)] = complex(coeff)
        self.terms = canon

    @property
    def group(self) -> DiscriminantGroup:
        return discriminant_group(self.lattice)

    def min_exponent(self) -> Fraction:
        return min((e for (_c, e) in self.terms), default=Fraction(0))

    def evaluate(self, tau: complex) -> RepVector:
        group = self.group
        out = np.zeros(group.order, dtype=complex)
        for (coset, expo), coeff in self.terms.items():
            out[group.index(coset)] += coeff * cmath.exp(2j * math.pi * tau * float(expo))
        return RepVector.from_array((Axis(group, dual=True),), out)

    def component(self, coset) -> dict:
        coset = tuple(coset)
        return {e: c for (g, e), c in self.terms.items() if g == coset}

    def __add__(self, other: "QExpansionForm") -> "QExpansionForm":
        if other.lattice != self.lattice or other.weight != self.weight:
            raise IndexMismatch("adding incompatible q-expansions")
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0j) + v
        return QExpansionForm(self.lattice, self.weight, out)


def _form_value(form, tau: complex) -> RepVector:
    if isinstance(form, QExpansionForm):
        return form.evaluate(tau)
    if isinstance(form, RepVector):
        return form
    return form(tau)


def _contract(vectors, form, taus, group) -> list:
    """<vector, F(tau)> over ``group`` at each tau: the one pairing of a theta
    vector with the form."""
    return [rep_pair(vec, _form_value(form, tau), groups=[group])
            for vec, tau in zip(vectors, taus)]


def contract_pointwise(form, lat: Lattice, m_sub: Sublattice,
                       u_perp, p_uperp: HomogeneousPolynomial, tau: complex,
                       bound: float = 10.0) -> RepVector:
    """<mixed theta (tau), F(tau)> over D_L: a vector over the dual of D_M.

    ``form`` may be a QExpansionForm, a constant RepVector over the dual
    axis, or a callable tau -> RepVector.  The mixed theta's table is the
    one mixed_theta_family keeps on u_perp, so calls at many tau on the same
    point, inputs and bound build it once.
    """
    mixed = mixed_theta_family(lat, m_sub, u_perp, p_uperp).vectors([tau], None, bound)
    return _contract(mixed, form, [tau], split_data(lat, m_sub).d_l)[0]


def seesaw_contractions(seesaw: Seesaw, form, taus,
                        bound: float = 10.0) -> list[RepVector]:
    """contract_pointwise at each tau (unshifted), from the seesaw's mixed
    theta."""
    mixed = seesaw.mixed.vectors(taus, None, bound)
    return _contract(mixed, form, taus, seesaw.sd.d_l)


# ---------------------------------------------------------------------------
# symbolic contraction (positive definite complement)

def contract_symbolic(form: QExpansionForm, lat: Lattice, m_sub: Sublattice,
                      u_perp: GrassmannPoint, p_uperp: HomogeneousPolynomial,
                      bound: float = 10.0) -> QExpansionForm:
    """Exact q-expansion of the contraction over D_M: the mixed theta's
    q-series paired with the form over D_L, at the form's weight plus the
    complement's theta weight.

    Requires a positive definite complement, whose Grassmannian is the one
    point ``u_perp``, and a harmonic polynomial there; a polynomial whose
    variables do not match the complement raises NonHomogeneousPolynomial
    from the mixed family's build.  The mixed theta's table is the one
    mixed_theta_family keeps on u_perp, as in contract_pointwise, so a
    seesaw on the same point shares it.  Each key (gamma_L, delta_M) of the
    table contributes the products of the form's component on gamma_L with
    that key's q-series (TermTable.q_series) to the output component on
    delta_M, up to a total exponent of ``bound``; _symbolic_tail bounds what
    that cap leaves out.
    """
    _check_bound(bound)
    sd = split_data(lat, m_sub)
    perp_lat = sd.mperp_sub.lattice
    if perp_lat.sig_minus != 0:
        raise ComplementNotDefinite(
            f"complement has signature {perp_lat.signature}; needs positive definite")
    if not p_uperp.laplacian().is_zero():
        raise PolynomialNotHarmonic("symbolic contraction needs a harmonic polynomial")
    if form.lattice != lat:
        raise IndexMismatch("form is indexed by a different lattice")
    table = mixed_theta_family(lat, m_sub, u_perp, p_uperp).evaluator(
        None, _symbolic_bound(form, bound)).terms
    out: dict = {}
    cap = Fraction(bound)
    for k, theta_part in table.q_series().items():
        gamma_l, delta_m = table.keys[k]
        for e_f, c_f in form.component(gamma_l).items():
            for e_t, c_t in theta_part.items():
                if e_f + e_t <= cap:
                    key = (delta_m, e_f + e_t)
                    out[key] = out.get(key, 0j) + c_f * c_t
    weight = form.weight + theta_weight(perp_lat.signature, p_uperp.degrees)
    return QExpansionForm(m_sub.lattice, weight, out)


def _symbolic_bound(form: QExpansionForm, bound) -> Fraction:
    """The bound of the mixed table that contract_symbolic reads: a form
    term of negative exponent pairs with theta terms that much higher."""
    return Fraction(bound) - min(Fraction(0), form.min_exponent())


def _symbolic_tail(form: QExpansionForm, table: ThetaEvaluator, mixed: RepVector,
                   bound, y: float) -> float:
    """The l1 bound at y on what contract_symbolic(form, ..., bound) leaves
    out of the contraction, from the mixed table it reads and a mixed theta
    vector at y with its tail.

    A form term c_f q^e_f meets the mixed q-series up to exponent
    bound - e_f, so it leaves out |c_f| e^(-2 pi y e_f) times the mixed
    family's tail at that bound; a term with e_f > bound meets none of it,
    and leaves out at most |c_f| e^(-2 pi y e_f) times the untruncated
    mixed vector's l1 norm, |mixed|_1 + its tail.
    """
    cap = Fraction(bound)
    total = 0.0
    for (_coset, e_f), c_f in form.terms.items():
        weight = abs(c_f) * math.exp(-TWO_PI * y * float(e_f))
        total += weight * (table.tail(y, cap - e_f) if e_f <= cap
                           else mixed.norm1() + mixed.tail)
    return total


def seesaw_contraction_residuals(seesaw: Seesaw, form: QExpansionForm, taus,
                                 bound: float = 10.0) -> list[Residual]:
    """Per tau: the symbolic contraction (contract_symbolic), evaluated at
    tau with its tail (_symbolic_tail), against the pointwise one
    (seesaw_contractions)."""
    sd = seesaw.sd
    symbolic = contract_symbolic(form, seesaw.lattice, sd.m_sub, seesaw.u_perp,
                                 seesaw.p_uperp, bound)
    pointwise = seesaw_contractions(seesaw, form, taus, bound)
    table = seesaw.mixed.evaluator(None, _symbolic_bound(form, bound))
    out = []
    # the mixed vectors of the batch seesaw_contractions has read
    for tau, mx, pw in zip(taus, seesaw.mixed.vectors(taus, None, bound), pointwise):
        value = symbolic.evaluate(tau)
        value = RepVector.from_array(value.axes, value.array,
                                     _symbolic_tail(form, table, mx, bound, tau.imag))
        out.append(Residual.of(value - pw))
    return out


# ---------------------------------------------------------------------------
# restriction identity, naive truncated lift

def seesaw_restriction_residuals(seesaw: Seesaw, form, taus,
                                 bound: float = 10.0) -> list[Residual]:
    """Pointwise form of the lift restriction, at each tau: the ambient
    integrand equals the sublattice integrand of the contraction.

    p_v(x) = p_u(x_M) p_uperp(x_Mperp) holds by the Seesaw's construction:
    each adapted coordinate of v = u (+) u_perp is the matching one of u or
    u_perp, in lift_product's variable order.
    """
    sd = seesaw.sd
    theta_l = seesaw.theta_l.vectors(taus, None, bound)
    contracted = _contract(seesaw.mixed.vectors(taus, None, bound), form, taus, sd.d_l)
    theta_m = seesaw.theta_m.vectors(taus, None, bound)
    ambient = _contract(theta_l, form, taus, discriminant_group(seesaw.lattice))
    return [Residual.of(big - rep_pair(m, c, groups=[sd.d_m]))
            for big, c, m in zip(ambient, contracted, theta_m)]


FUNDAMENTAL_Y0 = math.sqrt(3.0) / 2.0


def naive_truncated_lift(form, lat: Lattice, point, poly: HomogeneousPolynomial,
                         y_max: float, grid_n: int, bound: float = 10.0):
    """Midpoint quadrature of the integrand over the truncated fundamental
    domain {|x| <= 1/2, |tau| >= 1, y <= y_max}; diagnostic only.

    Returns (value, error_estimate) where the estimate is the difference
    against the half-resolution grid.  The theta terms are enumerated once
    and both grids are evaluated in one batched table evaluation.  Raises
    EmptyGrid when grid_n < 2 leaves no coarser grid, y_max is not a finite
    number above FUNDAMENTAL_Y0, or no midpoint has |tau| >= 1.
    """
    def grid(n: int):
        dx, dy = 1.0 / n, (y_max - FUNDAMENTAL_Y0) / n
        taus = [complex(-0.5 + (i + 0.5) * dx, FUNDAMENTAL_Y0 + (j + 0.5) * dy)
                for i in range(n) for j in range(n)]
        return [t for t in taus if t.real * t.real + t.imag * t.imag >= 1.0], dx, dy

    grids = ([grid(grid_n), grid(grid_n // 2)]
             if grid_n > 1 and FUNDAMENTAL_Y0 < y_max < math.inf else [])
    if not (grids and grids[0][0]):
        raise EmptyGrid(f"no quadrature grid for grid_n = {grid_n}, y_max = {y_max}")
    evaluator = siegel_theta_evaluator(lat, point, poly, None, bound)
    group = discriminant_group(lat)
    all_taus = [tau for taus, _dx, _dy in grids for tau in taus]
    values = iter(_contract(evaluator.vectors(all_taus), form, all_taus, group))
    totals = []
    for taus, dx, dy in grids:
        total = 0j
        for tau, val in zip(taus, values):
            total += complex(val.array) * dx * dy / (tau.imag * tau.imag)
        totals.append(total)
    value, coarse = totals
    return value, abs(value - coarse)


# ---------------------------------------------------------------------------
# weight bookkeeping

def expected_weights(f_weight, sig_big, sig_sub, degrees_big, degrees_sub) -> dict:
    """Weights of the mixed theta and the contraction from signature and
    degree data; checks the additivity that makes the contraction modular.

    sig_big = (b+, b-), sig_sub = (c+, c-), degrees_big = (m+, m-) for the
    ambient polynomial, degrees_sub = (n+, n-) for its sublattice factor.
    """
    b_plus, b_minus = sig_big
    c_plus, c_minus = sig_sub
    m_plus, m_minus = degrees_big
    n_plus, n_minus = degrees_sub
    if not (0 <= c_plus <= b_plus and 0 <= c_minus <= b_minus):
        raise InconsistentDegrees("sublattice signature exceeds the ambient one")
    if not (0 <= n_plus <= m_plus and 0 <= n_minus <= m_minus):
        raise InconsistentDegrees("sublattice degrees exceed the ambient ones")
    f_weight = Fraction(f_weight)
    ambient_form = -theta_weight(sig_big, degrees_big)
    mixed = theta_weight((b_plus - c_plus, b_minus - c_minus),
                         (m_plus - n_plus, m_minus - n_minus))
    contraction = -theta_weight(sig_sub, degrees_sub)
    paired = f_weight + mixed
    consistent = (f_weight == ambient_form)
    if consistent and paired != contraction:
        raise InconsistentDegrees("weight additivity failed; degree data inconsistent")
    return {
        "ambient_form": ambient_form,
        "mixed_theta": mixed,
        "contraction": contraction,
        "paired": paired,
        "consistent": consistent,
    }
