"""Command-line front end: JSON I/O, subcommands, scenario runner.

Rationals serialize as "p/q" strings and complex numbers as [re, im]; all
emitted JSON is canonical (sorted keys, fixed separators) so identical
inputs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import random
import re
import sys
from fractions import Fraction
from functools import cached_property

import numpy as np

from .contraction import (
    QExpansionForm,
    contract_symbolic,
    expected_weights,
    naive_truncated_lift,
    seesaw_contraction_residuals,
    seesaw_restriction_residuals,
)
from .discforms import (
    check_isotropic,
    discriminant_group,
    gauss_sum_check,
    gauss_sum_residual,
)
from .errors import (
    ComplementNotDefinite,
    NotRational,
    OutputNotWritable,
    ParseError,
    UnknownCheck,
    VvthetaError,
)
from .exact import rational
from .grassmann import (
    HomogeneousPolynomial,
    VectorPair,
    constant_poly,
    make_grassmann_point,
)
from .lattice import construct_lattice, orthogonal_complement, sublattice
from .theta import (
    TAIL_DIVISOR,
    Residual,
    Seesaw,
    ThetaValue,
    mixed_theta_composed,
    mixed_theta_direct,
    modularity_defects,
    siegel_theta,
    split_data,
    theta_negation_residuals,
    theta_weight,
)
from .weil import (
    MP_S,
    MP_T,
    Axis,
    MetaplecticElement,
    RepVector,
    mp_power,
    rho_generator,
    rho_matrix,
)

# ---------------------------------------------------------------------------
# JSON primitives


def frac_str(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def parse_frac(s) -> Fraction:
    """A rational from a string such as "3/10" or "0.3", or from a JSON number
    read by exact.rational, so a float is the decimal written: 0.3 is 3/10."""
    try:
        return Fraction(s if isinstance(s, str) else rational(s))
    except (NotRational, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {s!r}") from exc


def parse_float(x) -> float:
    """A float from a JSON number (or a string float() reads); a JSON true or
    false is no number, though Python reads it as 1 or 0."""
    if isinstance(x, bool):
        raise ParseError(f"bad number {x!r}")
    try:
        return float(x)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad number {x!r}") from exc


def parse_complex(pair) -> complex:
    """A complex number from its JSON pair [re, im]."""
    if not isinstance(pair, list) or len(pair) != 2:
        raise ParseError(f"expected a pair [re, im], got {pair!r}")
    return complex(parse_float(pair[0]), parse_float(pair[1]))


def parse_coefficient(pair) -> complex:
    """A finite complex coefficient from its JSON pair [re, im]."""
    z = parse_complex(pair)
    if not cmath.isfinite(z):
        raise ParseError(f"coefficient must be finite, got {pair!r}")
    return z


def _rows(rows) -> list:
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ParseError(f"expected a list of rows, got {rows!r}")
    return rows


def int_rows(rows) -> list[list[int]]:
    """An integer matrix from JSON rows; an entry may be any integral rational."""
    fracs = [[parse_frac(x) for x in row] for row in _rows(rows)]
    if any(x.denominator != 1 for row in fracs for x in row):
        raise ParseError(f"expected integer entries, got {rows!r}")
    return [[int(x) for x in row] for row in fracs]


def _ints(entries) -> list[int]:
    return int_rows([entries])[0]


def complex_pair(z: complex) -> list:
    z = complex(z)
    return [z.real + 0.0, z.imag + 0.0]  # + 0.0 prints a signed zero as 0.0


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _encode_key(key) -> str:
    return ";".join(",".join(str(c) for c in elt) for elt in key)


def theta_to_json(theta: ThetaValue) -> dict:
    coeffs = {_encode_key(k): complex_pair(v) for k, v in theta.value.coeffs.items()}
    return {
        "type": "theta",
        "tau": complex_pair(theta.tau),
        "bound": theta.bound,
        "tail": theta.tail_estimate,
        "prefactor_exponent": frac_str(theta.prefactor_exponent),
        "coefficients": coeffs,
    }


def qexpansion_to_json(form: QExpansionForm) -> dict:
    terms = []
    for (coset, expo), coeff in sorted(form.terms.items()):
        terms.append({"coset": list(coset), "exp": frac_str(expo),
                      "coef": complex_pair(coeff)})
    return {
        "type": "qexpansion",
        "gram": [list(r) for r in form.lattice.gram],
        "weight": frac_str(form.weight),
        "terms": terms,
    }


def emit_expansion(obj, path=None) -> None:
    """Write a ThetaValue or QExpansionForm, or any JSON payload, canonically
    to ``path``, or to stdout when path is None."""
    if isinstance(obj, ThetaValue):
        obj = theta_to_json(obj)
    elif isinstance(obj, QExpansionForm):
        obj = qexpansion_to_json(obj)
    text = canonical_dumps(obj)
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputNotWritable(f"cannot write {path}: {exc}") from exc


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# readers: one per input kind, shared by the scenario runner and every
# subcommand; only they index an input object, so a missing or wrongly typed
# entry is a ParseError (exit 2) wherever the object comes from

_KINDS = {dict: "an object", list: "a list", str: "a string"}


def _object(spec) -> dict:
    if not isinstance(spec, dict):
        raise ParseError(f"expected a JSON object, got {spec!r}")
    return spec


def _field(spec, key: str, kind=object, default=None):
    """spec[key] checked to be a ``kind``; a missing or null entry is
    ``default``, and an error when there is no default."""
    value = _object(spec).get(key)
    if value is None:
        if default is None:
            raise ParseError(f"missing entry {key!r} in {spec!r}")
        return default
    if not isinstance(value, kind):
        raise ParseError(f"{key!r} must be {_KINDS[kind]}, got {value!r}")
    return value


def read_lattice(spec, name=None):
    """A lattice {"gram": [[int]], "name": str?}; ``name`` overrides the file's."""
    gram = _rows(_field(spec, "gram", list))
    return construct_lattice(gram, name=name or spec.get("name"))


def read_sublattice(spec, ambient):
    """A sublattice {"basis": [[int], ...]} of ``ambient``, one generator per row."""
    return sublattice(ambient, int_rows(_field(spec, "basis", list)))


def read_splitting(spec, lat, key: str = "span_plus"):
    """The splitting of ``lat`` whose v+ is spanned by the rows spec[key] of
    rationals (parse_frac).  With no spec or no rows it is spanned by the
    first sig_plus unit vectors."""
    rows = _rows(_field(spec, key, list, [])) if spec is not None else []
    span = [[parse_frac(x) for x in row] for row in rows] \
        or [[Fraction(int(i == j)) for j in range(lat.rank)] for i in range(lat.sig_plus)]
    return make_grassmann_point(lat, span)


def read_poly(spec, lat) -> HomogeneousPolynomial:
    """A polynomial {"degrees": [m+, m-], "monomials": {"e1,e2,...": [re, im]}}
    in the adapted coordinates of a splitting of ``lat``; no spec is the
    constant 1."""
    if spec is None:
        return constant_poly(lat.sig_plus, lat.sig_minus)
    degrees = _ints(_field(spec, "degrees", list))
    if len(degrees) != 2:
        raise ParseError(f"degrees must be [m_plus, m_minus], got {degrees!r}")
    monomials = {tuple(_ints(key.split(","))) if key else (): parse_coefficient(coeff)
                 for key, coeff in _field(spec, "monomials", dict).items()}
    return HomogeneousPolynomial(degrees, lat.sig_plus, lat.sig_minus, monomials)


def read_pair(alpha, beta, rank):
    """The shift pair (alpha, beta) from two lists of rationals with one entry
    per basis vector, as a VectorPair, read once: a missing side is zero, and
    both missing is None."""
    if not (alpha or beta):
        return None
    if any(v and (not isinstance(v, list) or len(v) != rank) for v in (alpha, beta)):
        raise ParseError(f"alpha and beta need one entry per ambient basis vector, "
                         f"got {alpha!r} and {beta!r}")
    return VectorPair(*([parse_frac(x) for x in v] if v else [Fraction(0)] * rank
                        for v in (alpha, beta)))


def read_form(spec, lat=None) -> QExpansionForm:
    """A q-expansion form {"weight": "p/q", "terms": [{"coset": [int], "exp":
    "p/q", "coef": [re, im]}]} over ``lat``, by default over the lattice of
    its own "gram" entry."""
    lat = lat or read_lattice(spec)
    terms = {}
    for t in _field(spec, "terms", list):
        key = (tuple(_ints(_field(t, "coset", list))), parse_frac(_field(t, "exp")))
        if key in terms:
            # a second coefficient would replace the first; "0" and "0/5" are one exponent
            raise ParseError(f"duplicate form term at coset {list(key[0])}, "
                             f"exponent {frac_str(key[1])}")
        terms[key] = parse_coefficient(_field(t, "coef"))
    return QExpansionForm(lat, parse_frac(_field(spec, "weight")), terms)


def parse_tau(text: str) -> complex:
    try:
        x, y = map(float, text.split(","))
    except ValueError as exc:
        raise ParseError(f"tau must be 'x,y', got {text!r}") from exc
    return complex(x, y)


def parse_element(text: str) -> MetaplecticElement:
    parts = [parse_frac(x) for x in text.split(",")]
    if len(parts) == 4:
        parts.append(1)
    if len(parts) != 5 or any(p.denominator != 1 for p in parts):
        raise ParseError("element must be 'a,b,c,d[,branch]' with integer entries")
    return MetaplecticElement(*map(int, parts[:4]), branch=int(parts[4]))


# ---------------------------------------------------------------------------
# scenario runner

class Scenario:
    """Resolved objects of a scenario JSON file."""

    def __init__(self, data: dict):
        self.data = data
        self.name = _field(data, "name", str, default="scenario")
        self.lattices = {lname: read_lattice(spec, lname)
                         for lname, spec in _field(data, "lattices", dict, {}).items()}
        self.bound = parse_float(data.get("bound", 10.0))
        self.tolerance = parse_float(data.get("tolerance", 1e-8))
        if not (math.isfinite(self.tolerance) and self.tolerance >= 0):
            raise ParseError(f"tolerance must be a finite number >= 0, "
                             f"got {self.tolerance!r}")
        self.tau_samples = [parse_complex(t) for t in
                            _field(data, "tau_samples", list, [[0.2, 1.1], [-0.37, 0.9]])]
        if not self.tau_samples:
            raise ParseError("tau_samples must list at least one tau")
        self.checks = data.get("checks", [])
        if not isinstance(self.checks, list) or not all(isinstance(c, str) for c in self.checks):
            raise ParseError(f"checks must be a list of names, got {self.checks!r}")
        if not self.checks:
            raise ParseError("checks must name at least one check")
        sub = _field(data, "sublattice", dict, {})
        self.ambient = self._named(sub.get("ambient")) if sub else None
        #: the seesaw's inputs (L, M, u, u_perp, p_u, p_uperp), or None
        #: without a sublattice
        self._seesaw_inputs = None
        if sub:
            m_sub = read_sublattice(sub, self.ambient)
            mlat = m_sub.lattice
            plat = split_data(self.ambient, m_sub).mperp_sub.lattice
            gspec = _field(data, "grassmann", dict, {})
            polys = _field(data, "polys", dict, {})
            self._seesaw_inputs = (
                self.ambient, m_sub,
                read_splitting(gspec, mlat, "u_span_plus"),
                read_splitting(gspec, plat, "u_perp_span_plus"),
                read_poly(polys.get("p_u"), mlat),
                read_poly(polys.get("p_uperp"), plat))
        #: the shift pair (alpha, beta), or None for no shift
        self.pair = read_pair(data.get("alpha"), data.get("beta"),
                              self.ambient.rank if self.ambient else None)
        form = _field(data, "form", dict, {})
        self.form = None if not form else read_form(
            form, self._named(form["lattice"]) if "lattice" in form else self.ambient)

    def _named(self, name):
        if not isinstance(name, str) or name not in self.lattices:
            raise ParseError(f"unknown lattice name {name!r}")
        return self.lattices[name]

    @cached_property
    def seesaw(self) -> Seesaw:
        """The scenario's seesaw, built on first use: every theta check draws
        its term tables from it, so each is built once per scenario.  Every
        check that needs the sublattice M reads it here."""
        if self._seesaw_inputs is None:
            raise ParseError("this check needs a 'sublattice' entry")
        return Seesaw(*self._seesaw_inputs)


def _lattices(sc: Scenario):
    """The scenario's lattices, for a check that loops over them: with none
    it would check nothing."""
    if not sc.lattices:
        raise ParseError("this check needs at least one entry in 'lattices'")
    return sc.lattices.values()


def _check_weil_relations(sc: Scenario) -> Residual:
    worst = 0.0
    for lat in _lattices(sc):
        group = discriminant_group(lat)
        n = group.order
        t = rho_generator(group, "T")
        s = rho_generator(group, "S")
        z = rho_generator(group, "Z")
        eye = np.eye(n)
        worst = max(worst, float(np.abs(s @ s - z).max()))
        worst = max(worst, float(np.abs(np.linalg.matrix_power(s @ t, 3) - z).max()))
        worst = max(worst, float(np.abs(np.linalg.matrix_power(z, 4) - eye).max()))
        worst = max(worst, float(np.abs(s.conj().T @ s - eye).max()))
    return Residual(worst, 0.0)


def _check_gauss_sum(sc: Scenario) -> Residual:
    return Residual(max(gauss_sum_residual(discriminant_group(lat), lat.sig_plus,
                                           lat.sig_minus)
                        for lat in _lattices(sc)), 0.0)


def _check_arrows(sc: Scenario) -> Residual:
    """Glue intertwiners as matrix identities, with up = down^T:
    down up down = |H| down, and rho_L(g) down = down rho_small(g) per word."""
    gm = sc.seesaw.sd.gm
    down = np.zeros((gm.big_disc.order, gm.small_disc.order))
    down[np.arange(gm.big_disc.order)[:, None], gm.fibres] = 1.0
    worst = float(np.abs(down @ down.T @ down - gm.fibres.shape[1] * down).max())
    rng = random.Random(5)
    words = [MP_T, MP_S]
    for _ in range(5):
        g = MP_T
        for _step in range(4):
            g = g * rng.choice([MP_T, MP_S, mp_power(MP_T, -1)])
        words.append(g)
    for g in words:
        lhs = rho_matrix(gm.big_disc, g) @ down
        rhs = down @ rho_matrix(gm.small_disc, g)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return Residual(worst, 0.0)


def _check_modularity(sc: Scenario, g, mixed: bool) -> Residual:
    """Worst transformation defect at g over the tau samples, of Theta_L with
    the scenario's shift pair or of the unshifted mixed theta, at weight
    exponent k = 2 theta_weight of its lattice and polynomial."""
    sw = sc.seesaw
    family, lat, poly, pair = ((sw.mixed, sw.sd.mperp_sub.lattice, sw.p_uperp, None)
                               if mixed else (sw.theta_l, sw.lattice, sw.p_v, sc.pair))
    k = int(2 * theta_weight(lat.signature, poly.degrees))
    return Residual.worst(modularity_defects(family, g, sc.tau_samples, k, pair, sc.bound))


def _check_mixed_cross(sc: Scenario) -> Residual:
    return Residual.worst(sc.seesaw.mixed_cross_residuals(sc.tau_samples, sc.bound))


def _check_seesaw_split(sc: Scenario) -> Residual:
    return Residual.worst(sc.seesaw.split_residuals(sc.tau_samples, sc.pair, sc.bound))


def _check_seesaw_pairing(sc: Scenario) -> Residual:
    return Residual.worst(sc.seesaw.pairing_residuals(sc.tau_samples, sc.pair, sc.bound))


def _check_pairing_expressions(sc: Scenario) -> Residual:
    rng = random.Random(23)
    dl = sc.seesaw.sd.d_l
    test = RepVector((Axis(dl, dual=True),),
                     {(e,): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                      for e in dl.elements()})
    return Residual.worst(r for both in sc.seesaw.pairing_expression_residuals(
        sc.tau_samples, test, sc.pair, sc.bound) for r in both)


def _check_negation(sc: Scenario) -> Residual:
    return Residual.worst(theta_negation_residuals(
        sc.seesaw.lattice, sc.tau_samples, sc.seesaw.v, sc.seesaw.p_v, sc.pair, sc.bound))


def _check_contraction(sc: Scenario) -> Residual:
    if sc.form is None:
        raise ParseError("contraction check needs a 'form' entry")
    return Residual.worst(seesaw_contraction_residuals(sc.seesaw, sc.form, sc.tau_samples,
                                                       sc.bound))


def _check_restriction(sc: Scenario) -> Residual:
    if sc.form is None:
        raise ParseError("restriction check needs a 'form' entry")
    return Residual.worst(seesaw_restriction_residuals(sc.seesaw, sc.form, sc.tau_samples,
                                                       sc.bound))


def _check_weights(sc: Scenario) -> Residual:
    """The declared form weight against the ambient theta's, and the weight
    additivity of the contraction."""
    if sc.form is None:
        raise ParseError("weight check needs a 'form' entry")
    sw = sc.seesaw
    info = expected_weights(sc.form.weight, sw.lattice.signature,
                            sw.sd.m_sub.lattice.signature, sw.p_v.degrees, sw.p_u.degrees)
    return Residual(0.0 if info["consistent"] and info["paired"] == info["contraction"]
                    else 1.0, 0.0)


CHECKS = {
    "weil_relations": _check_weil_relations,
    "gauss_sum": _check_gauss_sum,
    "arrow_suite": _check_arrows,
    "theta_modularity_T": lambda sc: _check_modularity(sc, MP_T, mixed=False),
    "theta_modularity_S": lambda sc: _check_modularity(sc, MP_S, mixed=False),
    "mixed_modularity_T": lambda sc: _check_modularity(sc, MP_T, mixed=True),
    "mixed_modularity_S": lambda sc: _check_modularity(sc, MP_S, mixed=True),
    "mixed_cross": _check_mixed_cross,
    "seesaw_split": _check_seesaw_split,
    "seesaw_pairing": _check_seesaw_pairing,
    "pairing_expressions": _check_pairing_expressions,
    "negation_symmetry": _check_negation,
    "contraction_consistency": _check_contraction,
    "restriction_integrand": _check_restriction,
    "weight_bookkeeping": _check_weights,
}


def run_scenario(path) -> dict:
    """Execute all checks of a scenario file; report residuals and verdicts."""
    return _run_checks(Scenario(load_json(path)))


def _run_checks(sc: Scenario) -> dict:
    """Run the scenario's checks; the one place a verdict is given.

    A check is "uncertified" when its certificate exceeds tolerance /
    TAIL_DIVISOR, whatever its residual, else "fail" when its residual
    exceeds the tolerance, else "pass"; a NaN in either is not a pass.
    """
    results = {}
    for check in sorted(set(sc.checks)):
        fn = CHECKS.get(check)
        if fn is None:
            raise UnknownCheck(f"unknown check {check!r} (choose from "
                               f"{sorted(CHECKS)})")
        result = fn(sc)
        residual, certificate = float(result), result.certificate
        verdict = ("uncertified" if not certificate <= sc.tolerance / TAIL_DIVISOR
                   else "pass" if residual <= sc.tolerance else "fail")
        results[check] = {
            "residual": residual,
            "certificate": certificate,
            "tolerance": sc.tolerance,
            "verdict": verdict,
            "pass": verdict == "pass",
        }
    return {
        "scenario": sc.name,
        "results": results,
        "pass": all(r["pass"] for r in results.values()),
    }


# ---------------------------------------------------------------------------
# subcommands

def _cmd_disc_info(args) -> int:
    lat = read_lattice(load_json(args.lattice))
    group = discriminant_group(lat)
    if args.json:
        emit_expansion({
            "elementary_divisors": list(group.elementary_divisors),
            "q_table": {",".join(str(c) for c in x): frac_str(group.q(x))
                        for x in group.elements()},
        })
        return 0
    print(f"lattice rank {lat.rank}, signature {lat.signature}")
    print(f"elementary divisors: {list(group.elementary_divisors)}")
    print(f"|D| = {group.order}")
    gauss_sum_check(group, lat.sig_plus, lat.sig_minus)
    print("gauss sum check: ok")
    elements = group.elements()
    for x in elements:
        print(f"  q{x} = {frac_str(group.q(x))}")
    isotropic = [x for x in elements if group.q(x) == 0 and x != group.zero()]
    shown = 0
    for x in isotropic:
        if shown >= args.max_subgroups:
            break
        sub = check_isotropic(group, [x])
        print(f"  isotropic <{x}> of order {sub.order}")
        shown += 1
    return 0


def _cmd_weil_matrix(args) -> int:
    group = discriminant_group(read_lattice(load_json(args.lattice)))
    mat = rho_matrix(group, parse_element(args.element), dual=args.dual)
    # rows/columns follow the lexicographic element order of the group
    emit_expansion([[complex_pair(mat[i, j]) for j in range(mat.shape[1])]
                    for i in range(mat.shape[0])])
    return 0


def _cmd_theta(args) -> int:
    lat = read_lattice(load_json(args.lattice))
    point = read_splitting(args.grassmann and load_json(args.grassmann), lat)
    poly = read_poly(args.poly and load_json(args.poly), lat)
    pair = read_pair(*(v and v.split(",") for v in (args.alpha, args.beta)), lat.rank)
    emit_expansion(siegel_theta(lat, parse_tau(args.tau), point, poly, pair, args.bound),
                   args.out)
    return 0


def _cmd_theta_lm(args) -> int:
    lat = read_lattice(load_json(args.lattice))
    m_sub = read_sublattice(load_json(args.sublattice), lat)
    perp = orthogonal_complement(lat, m_sub).lattice
    point = read_splitting(args.grassmann and load_json(args.grassmann), perp)
    poly = read_poly(args.poly and load_json(args.poly), perp)
    pair = read_pair(*(v and v.split(",") for v in (args.xi, args.eta)), lat.rank)
    fn = mixed_theta_composed if args.composed else mixed_theta_direct
    emit_expansion(fn(lat, m_sub, parse_tau(args.tau), point, poly, pair, args.bound),
                   args.out)
    return 0


def _cmd_contract(args) -> int:
    lat = read_lattice(load_json(args.lattice))
    m_sub = read_sublattice(load_json(args.sublattice), lat)
    perp = orthogonal_complement(lat, m_sub).lattice
    form = read_form(load_json(args.form))
    poly = read_poly(args.poly and load_json(args.poly), perp)
    if perp.sig_minus:
        raise ComplementNotDefinite(
            f"complement has signature {perp.signature}; needs positive definite")
    # a positive definite complement has one splitting, spanned by the unit vectors
    point = read_splitting(None, perp)
    emit_expansion(contract_symbolic(form, lat, m_sub, point, poly, args.bound), args.out)
    return 0


def _scenario_subset(args, wanted) -> int:
    data = dict(_object(load_json(args.scenario)), checks=[c for c in wanted if c in CHECKS])
    if args.bound is not None:
        data["bound"] = args.bound
    if args.tolerance is not None:
        data["tolerance"] = args.tolerance
    if args.tau_samples is not None:
        data["tau_samples"] = [[t.real, t.imag] for t in map(parse_tau, args.tau_samples)]
    report = _run_checks(Scenario(data))
    emit_expansion(report)
    return 0 if report["pass"] else 1


def _cmd_verify_seesaw(args) -> int:
    return _scenario_subset(args, ["seesaw_split", "seesaw_pairing",
                                   "pairing_expressions", "mixed_cross"])


def _cmd_verify_restriction(args) -> int:
    return _scenario_subset(args, ["restriction_integrand",
                                   "contraction_consistency"])


def _cmd_naive_lift(args) -> int:
    lat = read_lattice(load_json(args.lattice))
    point = read_splitting(args.grassmann and load_json(args.grassmann), lat)
    poly = read_poly(args.poly and load_json(args.poly), lat)
    form = read_form(load_json(args.form))
    value, err = naive_truncated_lift(form, lat, point, poly, args.ymax,
                                      args.grid, args.bound)
    emit_expansion({"value": complex_pair(value), "error_estimate": err})
    return 0


def _cmd_run_scenario(args) -> int:
    report = run_scenario(args.scenario)
    emit_expansion(report)
    return 0 if report["pass"] else 1


# argparse reads a word that starts with "-" as an option unless it looks
# like a negative number; the subparsers that take a tau count "-x,y" as one
# too, so a tau with a negative real part is a value of --tau or --tau-samples
_NEGATIVE_TAU = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vvtheta",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("disc-info", help="discriminant form of a lattice")
    p.add_argument("--lattice", required=True)
    p.add_argument("--max-subgroups", type=int, default=16)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_disc_info)

    p = sub.add_parser("weil-matrix", help="representation matrix of an element")
    p.add_argument("--lattice", required=True)
    p.add_argument("--element", required=True, help="'a,b,c,d[,branch]'")
    p.add_argument("--dual", action="store_true")
    p.set_defaults(fn=_cmd_weil_matrix)

    p = sub.add_parser("theta", help="Siegel theta vector at tau")
    p.add_argument("--lattice", required=True)
    p.add_argument("--grassmann")
    p.add_argument("--poly")
    p.add_argument("--tau", required=True, help="'x,y'")
    p.add_argument("--bound", type=float, default=10.0)
    p.add_argument("--alpha")
    p.add_argument("--beta")
    p.add_argument("--out")
    p._negative_number_matcher = _NEGATIVE_TAU
    p.set_defaults(fn=_cmd_theta)

    p = sub.add_parser("theta-lm", help="mixed theta vector at tau")
    p.add_argument("--lattice", required=True)
    p.add_argument("--sublattice", required=True)
    p.add_argument("--grassmann")
    p.add_argument("--poly")
    p.add_argument("--tau", required=True)
    p.add_argument("--bound", type=float, default=10.0)
    p.add_argument("--xi")
    p.add_argument("--eta")
    p.add_argument("--composed", action="store_true")
    p.add_argument("--out")
    p._negative_number_matcher = _NEGATIVE_TAU
    p.set_defaults(fn=_cmd_theta_lm)

    p = sub.add_parser("contract", help="symbolic theta contraction")
    p.add_argument("--lattice", required=True)
    p.add_argument("--sublattice", required=True)
    p.add_argument("--form", required=True)
    p.add_argument("--poly")
    p.add_argument("--bound", type=float, default=10.0)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_contract)

    for name, fn in [("verify-seesaw", _cmd_verify_seesaw),
                     ("verify-restriction", _cmd_verify_restriction)]:
        p = sub.add_parser(name, help=f"{name} checks from a scenario file")
        p.add_argument("--scenario", required=True)
        p.add_argument("--bound", type=float)
        p.add_argument("--tolerance", type=float)
        p.add_argument("--tau-samples", nargs="*")
        p._negative_number_matcher = _NEGATIVE_TAU
        p.set_defaults(fn=fn)

    p = sub.add_parser("naive-lift", help="naive quadrature of the lift integrand")
    p.add_argument("--lattice", required=True)
    p.add_argument("--grassmann")
    p.add_argument("--poly")
    p.add_argument("--form", required=True)
    p.add_argument("--ymax", type=float, default=4.0)
    p.add_argument("--grid", type=int, default=16)
    p.add_argument("--bound", type=float, default=10.0)
    p.set_defaults(fn=_cmd_naive_lift)

    p = sub.add_parser("run-scenario", help="run every check in a scenario file")
    p.add_argument("scenario")
    p.set_defaults(fn=_cmd_run_scenario)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except VvthetaError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
