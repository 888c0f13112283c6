"""The four benchmark workloads, written against vvtheta's public API.

Each workload has four parts:

- ``make_inputs(seed, workdir)``: the benchmark's own input generation from
  the seed (tau batches, test vectors, coefficients).  Not timed.
- ``setup(inputs, tr)``: everything vvtheta builds before the first result:
  lattices, Smith forms and discriminant groups, split data, Grassmann
  points, scenario parsing.  Timed as ``setup_s``.
- ``iterate(state, tr)``: one pass of the workload with its output checks.
  Timed as one ``run_s`` sample; returns an ``Outcome``.
- ``probe(state, tr)``: traced-run extras that replay or split public calls
  to get per-layer counts.  Never part of a timed iteration.

``tr`` is a ``tracing.Tracer`` or ``NullTracer``; each span wraps one call
(or one tight group of calls) into a single vvtheta module, and the span
name starts with that module's name.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import vvtheta as vt
from vvtheta.cli import CHECKS, Scenario, load_json
from vvtheta.theta import inner_tensor_to_big

SCENARIO_FILE = os.path.join("scenarios", "ii11_seesaw.json")


@dataclass
class Outcome:
    """Operations attempted and failed in one iteration, plus diagnostics."""

    attempted: int
    failed: int
    detail: dict = field(default_factory=dict)


def _seeded_taus(rng: random.Random, count: int, y_lo: float, y_hi: float) -> list:
    return [complex(round(rng.uniform(-0.4, 0.4), 6), round(rng.uniform(y_lo, y_hi), 6))
            for _ in range(count)]


def _finite(x: float) -> bool:
    return isinstance(x, float) and math.isfinite(x)


# ---------------------------------------------------------------------------
# scenario: the bundled seesaw scenario through run_scenario

class ScenarioWorkload:
    """``run_scenario`` on the bundled II(1,1) scenario, every check.

    Many small calls on rank <= 2 lattices with |D| <= 4: per-call overhead,
    the split/disc caches and the cli/weil.rho_apply paths dominate.
    """

    name = "scenario"
    expected_checks = tuple(sorted(CHECKS))

    def make_inputs(self, seed: int, workdir: str) -> dict:
        with open(SCENARIO_FILE) as fh:
            data = json.load(fh)
        rng = random.Random(seed)
        data["tau_samples"] = [[t.real, t.imag] for t in _seeded_taus(rng, 2, 0.9, 1.2)]
        path = os.path.join(workdir, f"scenario_seed{seed}.json")
        with open(path, "w") as fh:
            json.dump(data, fh, sort_keys=True)
        return {"path": path, "data": data}

    def setup(self, inputs: dict, tr) -> dict:
        data = inputs["data"]
        with tr.span("lattice.build"):
            lattices = {name: vt.construct_lattice(spec["gram"], name=name)
                        for name, spec in data["lattices"].items()}
            sub = data["sublattice"]
            ambient = lattices[sub["ambient"]]
            m_sub = vt.sublattice(ambient, sub["basis"])
        with tr.span("discforms.group"):
            for lat in lattices.values():
                vt.discriminant_group(lat)
        with tr.span("theta.split"):
            vt.split_data(ambient, m_sub)
        with tr.span("cli.scenario_parse"):
            scenario = Scenario(load_json(inputs["path"]))
        return {"path": inputs["path"], "scenario": scenario}

    def iterate(self, state: dict, tr) -> Outcome:
        n = len(self.expected_checks)
        try:
            with tr.span("cli.run_scenario"):
                report = vt.run_scenario(state["path"])
        except vt.VvthetaError as exc:
            return Outcome(n, n, {"error": repr(exc)})
        results = report["results"]
        passed = sum(1 for c in self.expected_checks
                     if c in results and results[c]["pass"]
                     and _finite(results[c]["residual"]))
        return Outcome(n, n - passed,
                       {"worst_residual": max(r["residual"] for r in results.values())})

    def probe(self, state: dict, tr) -> dict:
        sc = state["scenario"]
        passed = 0
        for check in self.expected_checks:
            with tr.span(f"cli.check.{check}"):
                residual = float(CHECKS[check](sc))
            passed += residual <= sc.tolerance
        return {"cli.checks_passed": passed}


# ---------------------------------------------------------------------------
# theta-rank4: one rank-4 Siegel theta with its seesaw split check

class ThetaRank4Workload:
    """One ``siegel_theta_evaluator`` on A2 (+) II(1,1) at bound 10.

    Signature (3,1), splitting from A2 and its complement II(1,1), polynomial
    x1^2 (two-term 1/y series) and a rational shift pair.  Exact Fraction
    term construction dominates (build-heavy).
    """

    name = "theta-rank4"
    bound = 10.0
    n_tau = 4
    tolerance = 1e-8
    alpha = (Fraction(1, 3), Fraction(1, 5), Fraction(1, 2), Fraction(1, 7))
    beta = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 4))

    def make_inputs(self, seed: int, workdir: str) -> dict:
        rng = random.Random(seed)
        return {"taus": _seeded_taus(rng, self.n_tau, 0.8, 1.3)}

    def setup(self, inputs: dict, tr) -> dict:
        with tr.span("lattice.build"):
            a2 = vt.construct_lattice([[2, 1], [1, 2]], name="A2")
            ii11 = vt.construct_lattice([[0, 1], [1, 0]], name="II11")
            lat = vt.direct_sum(a2, ii11, name="A2+II11")
            m_sub = vt.sublattice(lat, [(1, 0, 0, 0), (0, 1, 0, 0)])
        with tr.span("discforms.group"):
            vt.discriminant_group(lat)
        with tr.span("theta.split"):
            sd = vt.split_data(lat, m_sub)
        with tr.span("grassmann.point"):
            u = vt.make_grassmann_point(sd.m_sub.lattice, [[1, 0], [0, 1]])
            u_perp = vt.make_grassmann_point(sd.mperp_sub.lattice, [[1, 1]])
            v = vt.direct_sum_grassmann(sd.m_sub, sd.mperp_sub, u, u_perp)
        with tr.span("grassmann.poly"):
            p_u = vt.HomogeneousPolynomial((2, 0), 2, 0, {(2, 0): 1.0})
            p_uperp = vt.constant_poly(1, 1)
            p_v = vt.lift_product(p_u, p_uperp)
        with tr.span("lattice.project"):
            alpha, beta = list(self.alpha), list(self.beta)
            pair_m = (sd.m_sub.coords_of(alpha), sd.m_sub.coords_of(beta))
            pair_p = (sd.mperp_sub.coords_of(alpha), sd.mperp_sub.coords_of(beta))
        return {"lat": lat, "sd": sd, "u": u, "u_perp": u_perp, "v": v,
                "p_u": p_u, "p_uperp": p_uperp, "p_v": p_v,
                "pair": (alpha, beta), "pair_m": pair_m, "pair_p": pair_p,
                "taus": inputs["taus"]}

    def iterate(self, state: dict, tr) -> Outcome:
        taus = state["taus"]
        sd = state["sd"]
        state.pop("evaluator", None)  # keep at most one term list alive
        try:
            with tr.span("theta.evaluator"):
                ev = vt.siegel_theta_evaluator(state["lat"], state["v"], state["p_v"],
                                               state["pair"], self.bound)
            failed = 0
            worst = 0.0
            worst_tail = 0.0
            for tau in taus:
                with tr.span("theta.at"):
                    big = ev.at(tau)
                with tr.span("theta.seesaw_check"):
                    theta_m = vt.siegel_theta(sd.m_sub.lattice, tau, state["u"],
                                              state["p_u"], state["pair_m"], self.bound)
                    theta_p = vt.siegel_theta(sd.mperp_sub.lattice, tau, state["u_perp"],
                                              state["p_uperp"], state["pair_p"], self.bound)
                    rhs = inner_tensor_to_big(sd, theta_m, theta_p)
                    residual = (big.value - rhs).norm_inf()
                ok = _finite(residual) and residual <= self.tolerance and len(ev.terms) > 0
                failed += not ok
                worst = max(worst, residual)
                worst_tail = max(worst_tail, big.tail_estimate, theta_m.tail_estimate,
                                 theta_p.tail_estimate)
        except vt.VvthetaError as exc:
            return Outcome(len(taus), len(taus), {"error": repr(exc)})
        state["evaluator"] = ev
        return Outcome(len(taus), failed, {"worst_residual": worst, "worst_tail": worst_tail,
                                           "terms": len(ev.terms)})

    def probe(self, state: dict, tr) -> dict:
        lat, v = state["lat"], state["v"]
        beta = state["pair"][1]
        group = vt.discriminant_group(lat)
        vectors = 0
        for gamma in group.elements():
            coset = group.dual_vector(gamma)
            with tr.span("theta.enumerate"):
                vectors += len(vt.enumerate_vectors(lat, coset, v, beta, self.bound))
        ev = state["evaluator"]
        for tau in state["taus"]:
            with tr.span("theta.tail"):
                ev.tail(tau.imag)
        return {"theta.vectors": vectors, "theta.terms": len(ev.terms),
                "n_tau": len(state["taus"])}


# ---------------------------------------------------------------------------
# weil-192: Weil representation of A2(8)

class Weil192Workload:
    """Weil representation of A2(8), |D| = 192: generators, relations,
    Milgram sum and one rho_apply.  Only discforms/weil work, no theta."""

    name = "weil-192"
    scale = 8
    tolerance = 1e-9
    n_form_pairs = 400

    def make_inputs(self, seed: int, workdir: str) -> dict:
        rng = random.Random(seed)
        order = 3 * self.scale ** 2
        vector = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(order)]
        pairs = [(rng.randrange(order), rng.randrange(order))
                 for _ in range(self.n_form_pairs)]
        return {"vector": vector, "pairs": pairs}

    def setup(self, inputs: dict, tr) -> dict:
        with tr.span("lattice.build"):
            lat = vt.rescale(vt.construct_lattice([[2, 1], [1, 2]]), self.scale,
                             name=f"A2({self.scale})")
        with tr.span("discforms.group"):
            group = vt.discriminant_group(lat)
            elements = group.elements()
        with tr.span("weil.vector"):
            axes = (vt.Axis(group, dual=False),)
            vec = vt.RepVector(axes, {(e,): c for e, c in zip(elements, inputs["vector"])})
        dense = np.array(inputs["vector"])
        pairs = [(elements[i], elements[j]) for i, j in inputs["pairs"]]
        return {"lat": lat, "group": group, "vec": vec, "dense": dense,
                "elements": elements, "pairs": pairs}

    def iterate(self, state: dict, tr) -> Outcome:
        group, lat = state["group"], state["lat"]
        # four relations, the Milgram sum from T, gauss_sum_check, rho_apply
        checks = 7
        try:
            with tr.span("weil.generator.T"):
                t = vt.rho_generator(group, "T")
            with tr.span("weil.generator.S"):
                s = vt.rho_generator(group, "S")
            with tr.span("weil.generator.Z"):
                z = vt.rho_generator(group, "Z")
            with tr.span("bench.relations"):
                eye = np.eye(group.order)
                residuals = [
                    np.abs(s @ s - z).max(),
                    np.abs(np.linalg.matrix_power(s @ t, 3) - z).max(),
                    np.abs(np.linalg.matrix_power(z, 4) - eye).max(),
                    np.abs(s.conj().T @ s - eye).max(),
                ]
                # Milgram: the trace of T is the Gauss sum of the form
                milgram = abs(np.trace(t) - math.sqrt(group.order)
                              * cmath.exp(2j * math.pi * (lat.sig_plus - lat.sig_minus) / 8))
            with tr.span("discforms.gauss_sum"):
                vt.gauss_sum_check(group, lat.sig_plus, lat.sig_minus)
            with tr.span("weil.rho_apply"):
                applied = vt.rho_apply(vt.MP_S, state["vec"])
            with tr.span("bench.apply_check"):
                got = np.array([applied.get((e,)) for e in state["elements"]])
                apply_residual = np.abs(got - s @ state["dense"]).max()
        except vt.VvthetaError as exc:
            return Outcome(checks, checks, {"error": repr(exc)})
        values = [float(r) for r in residuals] + [float(milgram), float(apply_residual)]
        failed = sum(1 for r in values if not (_finite(r) and r <= self.tolerance))
        return Outcome(checks, failed, {"worst_residual": max(values)})

    def probe(self, state: dict, tr) -> dict:
        group = state["group"]
        with tr.span("discforms.form"):
            for x, y in state["pairs"]:
                group.q(x)
                group.b(x, y)
        return {"discforms.form_calls": 2 * len(state["pairs"]),
                "weil.order": group.order}


# ---------------------------------------------------------------------------
# lift-grid: both sides of the naive lift restriction at a 32x32 grid

class LiftGridWorkload:
    """Both sides of the naive-lift restriction identity on II(1,1).

    Ambient side: one theta build, then an evaluation per grid point
    (evaluation-heavy).  Small side: a benchmark-owned callback into
    ``contract_pointwise`` rebuilds the mixed theta at every grid point
    (rebuild-heavy).
    """

    name = "lift-grid"
    grid = 32
    y_max = 3.0
    bound = 10.0

    def make_inputs(self, seed: int, workdir: str) -> dict:
        rng = random.Random(seed)
        return {"coef": complex(rng.uniform(0.5, 1.5), rng.uniform(-1, 1))}

    def setup(self, inputs: dict, tr) -> dict:
        with tr.span("lattice.build"):
            ii11 = vt.construct_lattice([[0, 1], [1, 0]], name="II11")
            m_sub = vt.sublattice(ii11, [(1, -1)])
        with tr.span("theta.split"):
            sd = vt.split_data(ii11, m_sub)
        with tr.span("grassmann.point"):
            v = vt.make_grassmann_point(ii11, [[1, 1]])
            u = vt.make_grassmann_point(sd.m_sub.lattice, [])
            u_perp = vt.make_grassmann_point(sd.mperp_sub.lattice, [[1]])
        with tr.span("grassmann.poly"):
            p_v = vt.constant_poly(1, 1)
            p_u = vt.constant_poly(0, 1)
            p_uperp = vt.constant_poly(1, 0)
        with tr.span("contraction.form"):
            form = vt.QExpansionForm(ii11, Fraction(0), {((), Fraction(0)): inputs["coef"]})
        return {"lat": ii11, "sd": sd, "v": v, "u": u, "u_perp": u_perp,
                "p_v": p_v, "p_u": p_u, "p_uperp": p_uperp, "form": form}

    def iterate(self, state: dict, tr) -> Outcome:
        lat, sd, form = state["lat"], state["sd"], state["form"]
        points = 0

        def contracted(tau):
            nonlocal points
            points += 1
            with tr.span("contraction.pointwise"):
                return vt.contract_pointwise(form, lat, sd.m_sub, state["u_perp"],
                                             state["p_uperp"], tau, self.bound)

        try:
            with tr.span("contraction.lift_ambient"):
                fine, err = vt.naive_truncated_lift(form, lat, state["v"], state["p_v"],
                                                    self.y_max, self.grid, self.bound)
            with tr.span("contraction.lift_small"):
                small, _ = vt.naive_truncated_lift(contracted, sd.m_sub.lattice, state["u"],
                                                   state["p_u"], self.y_max, self.grid,
                                                   self.bound)
        except vt.VvthetaError as exc:
            return Outcome(1, 1, {"error": repr(exc)})
        diff = abs(fine - small)
        ok = _finite(diff) and _finite(err) and abs(fine) > 0 and diff <= 1e-9 + err
        return Outcome(1, 0 if ok else 1, {"difference": diff, "error_estimate": err,
                                           "grid_points": points})

    def probe(self, state: dict, tr) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (ScenarioWorkload(), ThetaRank4Workload(),
                                 Weil192Workload(), LiftGridWorkload())}
