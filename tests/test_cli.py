import argparse
import json
import pathlib
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

from vvtheta import (
    ParseError,
    QExpansionForm,
    UnknownCheck,
    construct_lattice,
    discriminant_group,
    make_grassmann_point,
    run_scenario,
    siegel_theta,
    sublattice,
)
from vvtheta.cli import (
    CHECKS,
    build_parser,
    canonical_dumps,
    emit_expansion,
    frac_str,
    load_json,
    main,
    qexpansion_to_json,
    read_form,
)
from vvtheta.exact import mod1
from vvtheta.grassmann import constant_poly

SCENARIO = {
    "name": "cli-test",
    "lattices": {"L": {"gram": [[0, 1], [1, 0]]}},
    "sublattice": {"ambient": "L", "basis": [[1, -1]]},
    "form": {"lattice": "L", "weight": "0",
             "terms": [{"coset": [], "exp": "0", "coef": [1.0, 0.0]}]},
    "bound": 10,
    "tolerance": 1e-08,
    "tau_samples": [[0.2, 1.1]],
    "checks": ["weil_relations", "seesaw_split", "contraction_consistency"],
}

GOLDEN_CONTRACTION = (
    '{"gram":[[-2]],"terms":[{"coef":[2.0,0.0],"coset":[0],"exp":"0"},'
    '{"coef":[-20.0,0.0],"coset":[0],"exp":"1"},'
    '{"coef":[-48.0,0.0],"coset":[0],"exp":"2"},'
    '{"coef":[4.0,0.0],"coset":[0],"exp":"4"},'
    '{"coef":[-48.0,0.0],"coset":[0],"exp":"5"},'
    '{"coef":[4.0,0.0],"coset":[1],"exp":"1/4"},'
    '{"coef":[-48.0,0.0],"coset":[1],"exp":"5/4"},'
    '{"coef":[4.0,0.0],"coset":[1],"exp":"9/4"},'
    '{"coef":[-48.0,0.0],"coset":[1],"exp":"13/4"}],'
    '"type":"qexpansion","weight":"1/2"}\n'
)


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_run_scenario_deterministic(tmp_path):
    path = write_json(tmp_path / "sc.json", SCENARIO)
    r1 = canonical_dumps(run_scenario(path))
    r2 = canonical_dumps(run_scenario(path))
    assert r1 == r2
    report = run_scenario(path)
    assert report["pass"]
    assert set(report["results"]) == set(SCENARIO["checks"])


def test_run_scenario_zero_tolerance(tmp_path):
    strict = dict(SCENARIO, tolerance=0.0, checks=["weil_relations"],
                  lattices={"L": {"gram": [[0, 1], [1, 0]]},
                            "A1": {"gram": [[2]]}})
    path = write_json(tmp_path / "strict.json", strict)
    report = run_scenario(path)
    assert not report["pass"]
    assert main(["run-scenario", path]) == 1


def test_weight_bookkeeping_reads_form_weight(tmp_path):
    # II(1,1) at signature (1,1) with constant polynomials pairs with weight 0
    for weight, passes in (("0", True), ("7", False), ("-1", False)):
        sc = dict(SCENARIO, checks=["weight_bookkeeping"],
                  form=dict(SCENARIO["form"], weight=weight))
        path = write_json(tmp_path / "weights.json", sc)
        assert run_scenario(path)["pass"] is passes, weight
        assert main(["run-scenario", path]) == (0 if passes else 1)


def test_run_scenario_unknown_check(tmp_path):
    bad = dict(SCENARIO, checks=["no_such_check"])
    path = write_json(tmp_path / "bad.json", bad)
    with pytest.raises(UnknownCheck):
        run_scenario(path)
    assert main(["run-scenario", path]) == 2


def test_run_scenario_unresolved_name(tmp_path):
    from vvtheta import ParseError

    bad = dict(SCENARIO, sublattice={"ambient": "missing", "basis": [[1, -1]]})
    path = write_json(tmp_path / "bad_name.json", bad)
    with pytest.raises(ParseError):
        run_scenario(path)


#: one malformed entry per scenario field, each a ParseError
MALFORMED = {
    "alpha": ["1/3", float("nan")],
    "tau_samples": [[0.2]],
    "polys": {"p_uperp": [1, 2]},
    "bound": "abc",
    "tolerance": [1],
    "sublattice": dict(SCENARIO["sublattice"], basis=[[1, "x"]]),
}


@pytest.mark.parametrize("field", sorted(MALFORMED))
def test_run_scenario_rejects_malformed_field(tmp_path, capsys, field):
    # a malformed entry is a usage error (exit 2), not a traceback with exit 1
    path = write_json(tmp_path / "bad.json", dict(SCENARIO, **{field: MALFORMED[field]}))
    with pytest.raises(ParseError):
        run_scenario(path)
    assert main(["run-scenario", path]) == 2
    assert "ParseError" in capsys.readouterr().err


def test_run_scenario_non_integral_gram_exits_2(tmp_path, capsys):
    # a half-integral Gram entry is a usage error, not the truncated II(1,1)
    bad = dict(SCENARIO, lattices={"L": {"gram": [[0, 1], [1, 0.5]]}})
    path = write_json(tmp_path / "half.json", bad)
    assert main(["run-scenario", path]) == 2
    assert "NotIntegral" in capsys.readouterr().err


def test_scenario_with_explicit_polys(tmp_path):
    custom = dict(SCENARIO)
    custom["grassmann"] = {"u_span_plus": [], "u_perp_span_plus": [["1"]]}
    custom["polys"] = {
        "p_u": {"degrees": [0, 1], "monomials": {"1": [1.0, 0.0]}},
        "p_uperp": {"degrees": [0, 0], "monomials": {"0": [1.0, 0.0]}},
    }
    custom["alpha"] = ["1/3", "2/5"]
    custom["beta"] = ["1/2", "-1/7"]
    custom["checks"] = ["seesaw_split", "seesaw_pairing", "theta_modularity_S"]
    path = write_json(tmp_path / "polys.json", custom)
    report = run_scenario(path)
    assert report["pass"], report


def test_scenario_with_one_shift_vector(tmp_path, capsys):
    # the missing shift vector is zero: alpha alone runs, beta alone gives the
    # residuals of an explicit zero alpha, and a wrong length is a ParseError
    base = json.loads(BUNDLED.read_text())

    def residuals(**shifts):
        data = {k: v for k, v in base.items() if k not in ("alpha", "beta")}
        report = run_scenario(write_json(tmp_path / "sc.json", dict(data, **shifts)))
        assert report["pass"], report
        return {name: r["residual"] for name, r in report["results"].items()}

    residuals(alpha=base["alpha"])
    assert residuals(beta=base["beta"]) == residuals(alpha=["0", "0"], beta=base["beta"])
    path = write_json(tmp_path / "short.json", dict(base, alpha=["1/3"]))
    with pytest.raises(ParseError):
        run_scenario(path)
    assert main(["run-scenario", path]) == 2
    assert "ParseError" in capsys.readouterr().err


def test_bundled_scenario_passes():
    import pathlib

    bundled = pathlib.Path(__file__).resolve().parents[1] / "scenarios" / "ii11_seesaw.json"
    report = run_scenario(str(bundled))
    assert report["pass"], report


BUNDLED = pathlib.Path(__file__).resolve().parents[1] / "scenarios" / "ii11_seesaw.json"


def test_bundled_scenario_builds_each_table_once(monkeypatch):
    # 11 distinct term tables, each built once (the negation check reads the
    # stored theta of L, and the symbolic contraction the stored mixed
    # theta); one ambient splitting shared by every check
    from vvtheta import cli, contraction, theta

    counts = {"build_term_table": 0, "direct_sum_grassmann": 0}
    for name in counts:
        original = getattr(theta, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        # every module that imported the function by name
        for module in (theta, contraction, cli):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    assert run_scenario(str(BUNDLED))["pass"]
    assert counts["build_term_table"] == 11
    assert counts["direct_sum_grassmann"] == 1


@pytest.mark.parametrize("check", ["theta_modularity_T", "mixed_modularity_S"])
def test_modularity_verdict_needs_certified_tails(tmp_path, capsys, check):
    # at bound 0.5 the tails are far above the tolerance, so the check must
    # not pass, even where both sides agree to rounding (T moves no y): it is
    # reported uncertified, with the certificate that makes
    # modularity_defects raise TailTooLarge at the scenario's tolerance, and
    # the other checks still report
    from vvtheta import TailTooLarge, modularity_defects, theta_weight
    from vvtheta.cli import Scenario
    from vvtheta.theta import TAIL_DIVISOR
    from vvtheta.weil import MP_S, MP_T

    data = json.loads(BUNDLED.read_text())
    others = ["gauss_sum", "seesaw_split", "weil_relations"]
    data.update(bound=0.5, checks=[check] + others)
    path = write_json(tmp_path / "loose.json", data)
    report = run_scenario(path)
    assert sorted(report["results"]) == sorted([check] + others)
    result = report["results"][check]
    assert result["verdict"] == "uncertified" and result["pass"] is False
    if check.endswith("T"):
        assert result["residual"] <= data["tolerance"]
    assert result["certificate"] > data["tolerance"] / TAIL_DIVISOR
    assert not report["pass"]
    for other in ("gauss_sum", "weil_relations"):
        assert report["results"][other]["verdict"] == "pass"
    assert report["results"]["seesaw_split"]["verdict"] == "uncertified"
    # the certificate is the worst over the taus of the per-tau ones that
    # modularity_defects reads, and its own guard raises at this tolerance
    sc = Scenario(data)
    sw = sc.seesaw
    family, lat, poly, pair = ((sw.mixed, sw.sd.mperp_sub.lattice, sw.p_uperp, None)
                               if check.startswith("mixed")
                               else (sw.theta_l, sw.lattice, sw.p_v, sc.pair))
    g = MP_T if check.endswith("T") else MP_S
    k = int(2 * theta_weight(lat.signature, poly.degrees))
    defects = modularity_defects(family, g, sc.tau_samples, k, pair, sc.bound)
    assert result["certificate"] == max(d.certificate for d in defects)
    with pytest.raises(TailTooLarge):
        modularity_defects(family, g, sc.tau_samples, k, pair, sc.bound, sc.tolerance)
    assert main(["run-scenario", path]) == 1
    assert json.loads(capsys.readouterr().out) == report


#: the checks that read no term table, and so carry no certificate
TABLE_FREE = {"weil_relations", "gauss_sum", "arrow_suite", "weight_bookkeeping"}


@pytest.mark.parametrize("scenario", sorted(BUNDLED.parent.glob("*.json")),
                         ids=lambda p: p.stem)
def test_theta_checks_uncertified_at_low_bound(tmp_path, capsys, scenario):
    # at bound 0.5 every table's tail is above 0.01, so no theta check may
    # pass, whatever its residual, and no check aborts the run; the checks
    # without tables still pass, with certificate 0
    from vvtheta.theta import TAIL_DIVISOR

    data = json.loads(scenario.read_text())
    data.update(bound=0.5, checks=sorted(CHECKS))
    path = write_json(tmp_path / "loose.json", data)
    report = run_scenario(path)
    assert sorted(report["results"]) == sorted(CHECKS) and not report["pass"]
    for check, result in report["results"].items():
        if check in TABLE_FREE:
            assert (result["verdict"], result["pass"], result["certificate"]) == \
                ("pass", True, 0.0), check
        else:
            assert result["verdict"] == "uncertified" and result["pass"] is False, check
            assert result["certificate"] > data["tolerance"] / TAIL_DIVISOR, check
    assert main(["run-scenario", path]) == 1
    assert json.loads(capsys.readouterr().out) == report
    assert main(["verify-seesaw", "--scenario", str(scenario), "--bound", "0.5"]) == 1
    verify = json.loads(capsys.readouterr().out)
    assert {r["verdict"] for r in verify["results"].values()} == {"uncertified"}


def test_verdict_rule(tmp_path, monkeypatch):
    # the one rule: uncertified when the certificate passes tolerance / 10,
    # whatever the residual; else fail when the residual passes the
    # tolerance; a NaN in either is no pass
    from vvtheta import cli
    from vvtheta.theta import Residual

    tol = SCENARIO["tolerance"]
    cases = {"a": (0.0, tol / 10), "b": (tol, 0.0), "c": (2 * tol, 0.0),
             "d": (0.0, 1.01 * tol / 10), "e": (2 * tol, 1.0), "f": (float("nan"), 0.0),
             "g": (0.0, float("nan")), "h": (0.0, float("inf"))}
    for name, (residual, certificate) in cases.items():
        monkeypatch.setitem(cli.CHECKS, name,
                            lambda sc, r=residual, c=certificate: Residual(r, c))
    report = run_scenario(write_json(tmp_path / "sc.json", dict(SCENARIO, checks=sorted(cases))))
    verdicts = {name: r["verdict"] for name, r in report["results"].items()}
    assert verdicts == {"a": "pass", "b": "pass", "c": "fail", "d": "uncertified",
                        "e": "uncertified", "f": "fail", "g": "uncertified",
                        "h": "uncertified"}
    assert all(r["pass"] is (r["verdict"] == "pass") for r in report["results"].values())


@pytest.mark.parametrize("scenario", sorted(BUNDLED.parent.glob("*.json")),
                         ids=lambda p: p.stem)
def test_mixed_cross_certificate_is_both_constructions_tails(scenario):
    # one rule scales the composed mixed theta's tail: the check's
    # certificate at one tau is the sum of the two constructions' own
    from vvtheta import mixed_theta_composed, mixed_theta_direct
    from vvtheta.cli import Scenario

    data = json.loads(scenario.read_text())
    for tau in data["tau_samples"]:
        sc = Scenario(dict(data, tau_samples=[tau]))
        sw = sc.seesaw
        args = (sw.lattice, sw.sd.m_sub, complex(*tau), sw.u_perp, sw.p_uperp, None, sc.bound)
        want = mixed_theta_direct(*args).tail_estimate + mixed_theta_composed(*args).tail_estimate
        assert want > 0
        assert CHECKS["mixed_cross"](sc).certificate == want


def _json_leaves(obj, path=""):
    """(path, canonical text) of every leaf of a JSON value; a list, or an
    object, is a leaf only when it is empty."""
    if isinstance(obj, dict) and obj:
        for key, val in obj.items():
            yield from _json_leaves(val, f"{path}.{key}")
    elif isinstance(obj, list) and obj:
        for i, val in enumerate(obj):
            yield from _json_leaves(val, f"{path}[{i}]")
    else:
        yield path or "$", json.dumps(obj)


def golden_diff(got: str, want: str) -> str:
    """Why an output differs from its golden: each JSON path whose value
    differs, with both values and, for two numbers, the absolute change."""
    try:
        got_leaves, want_leaves = (dict(_json_leaves(json.loads(t))) for t in (got, want))
    except ValueError:
        return f"output is not JSON: {got[:200]!r}"
    lines = []
    for path in [*want_leaves, *(p for p in got_leaves if p not in want_leaves)]:
        new, old = got_leaves.get(path, "missing"), want_leaves.get(path, "missing")
        if new != old:
            line = f"{path}: golden {old}, got {new}"
            values = [json.loads(t) if t != "missing" else None for t in (new, old)]
            if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
                line += f", |change| {abs(values[0] - values[1]):.3g}"
            lines.append(line)
    if not lines:
        return "every JSON value agrees; the bytes differ in layout"
    return f"{len(lines)} JSON value(s) differ from the golden:\n" + "\n".join(lines)


def test_golden_diff_lists_each_changed_path():
    # a failed golden comparison names each changed value, its path, both
    # values and the absolute change, a signed zero and a dropped key included
    want = '{"a":{"r":4.2e-16,"pass":true},"m":[[1.0,0.0],[-0.5,2]],"k":"x"}\n'
    got = '{"a":{"r":4.3e-16,"pass":false},"m":[[1.0,-0.0],[-0.5,2]]}\n'
    assert golden_diff(got, want).splitlines() == [
        "4 JSON value(s) differ from the golden:",
        ".a.r: golden 4.2e-16, got 4.3e-16, |change| 1e-17",
        ".a.pass: golden true, got false",
        ".m[0][1]: golden 0.0, got -0.0, |change| 0",
        ".k: golden \"x\", got missing"]
    assert golden_diff(want.replace(",", ", "), want).endswith("differ in layout")
    assert golden_diff(want, want) == "every JSON value agrees; the bytes differ in layout"


@pytest.mark.parametrize("scenario", sorted(BUNDLED.parent.glob("*.json")),
                         ids=lambda path: path.stem)
def test_scenario_matches_golden(scenario):
    # every bundled scenario, through the command line, byte for byte against
    # tests/golden/<same name>; a new scenario joins by adding the two files
    proc = subprocess.run([sys.executable, "-m", "vvtheta", "run-scenario", str(scenario)],
                          capture_output=True, text=True)
    assert proc.stderr == ""
    golden = (pathlib.Path(__file__).parent / "golden" / scenario.name).read_text()
    assert proc.stdout == golden, golden_diff(proc.stdout, golden)


def test_run_scenario_does_not_import_numpy_ma():
    # the first np.unique in a process imports numpy.ma, a module that no
    # step of a scenario needs
    code = ("import contextlib, io, sys\n"
            "from vvtheta.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main(['run-scenario', {str(BUNDLED)!r}])\n"
            "print(code, 'numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.stderr == ""
    assert proc.stdout == "0 False\n"


II11 = json.loads(BUNDLED.read_text())
GLUED = json.loads((BUNDLED.parent / "a2a2a1_glued.json").read_text())


def form_json(scenario, terms) -> dict:
    """A qexpansion file over the scenario's ambient lattice L."""
    return {"type": "qexpansion", "gram": scenario["lattices"]["L"]["gram"],
            "weight": scenario["form"]["weight"], "terms": terms}


def glued_terms() -> list:
    """36 seeded complex terms over D_L of the glued lattice, two per class."""
    group = discriminant_group(construct_lattice(GLUED["lattices"]["L"]["gram"]))
    rng = random.Random(29)
    return [{"coset": list(x), "exp": frac_str(mod1(-group.q(x)) + shift),
             "coef": [round(rng.uniform(-1, 1), 6), round(rng.uniform(-1, 1), 6)]}
            for x in group.elements() for shift in (0, 1)]


#: input files of the golden CLI runs: name -> JSON payload
CLI_INPUTS = {
    "a2": {"gram": [[2, 1], [1, 2]]},
    "a2x2": {"gram": [[4, 2], [2, 4]]},
    "a2ii11": {"gram": [[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]},
    "a2ii11_split": {"span_plus": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]]},
    "a2ii11_float_split": {"span_plus": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0.3]]},
    "a2ii11_x1sq": {"degrees": [2, 0], "monomials": {"2,0,0,0": [1.0, 0.0]}},
    "a2_in_a2ii11": {"ambient": "L", "basis": [[1, 0, 0, 0], [0, 1, 0, 0]]},
    "ii11": {"gram": [[0, 1], [1, 0]]},
    "ii11_skew": {"span_plus": [[1, "3/10"]]},
    "ii11_diagonal": {"span_plus": [["1", "1"]]},
    "ii11_constant_form": {"type": "qexpansion", "gram": [[0, 1], [1, 0]], "weight": "0",
                           "terms": [{"coset": [], "exp": "0", "coef": [1.0, 0.0]}]},
    "ii11_x1sq": {"degrees": [2, 0], "monomials": {"2,0": [1.0, 0.0]}},
    "ii11_m": II11["sublattice"],
    "ii11_form": form_json(II11, II11["form"]["terms"]),
    "glued": GLUED["lattices"]["L"],
    "glued_m": GLUED["sublattice"],
    "glued_form": form_json(GLUED, glued_terms()),
    "glued_harmonic": {"degrees": [2, 0], "monomials": {
        "1,1": [1.0, 0.0], "2,0": [0.5, 0.0], "0,2": [-0.5, 0.0]}},
}

#: golden CLI runs: name -> command line, with {input} for an input file;
#: each prints tests/golden/cli_<name>.json byte for byte
CLI_CASES = {
    "contract_ii11": "contract --lattice {ii11} --sublattice {ii11_m} --form {ii11_form} "
                     "--bound 8",
    "contract_glued": "contract --lattice {glued} --sublattice {glued_m} --form {glued_form} "
                      "--poly {glued_harmonic} --bound 4",
    "theta_a2ii11": "theta --lattice {a2ii11} --grassmann {a2ii11_split} "
                    "--poly {a2ii11_x1sq} --tau 0.13,0.87 --bound 8 "
                    "--alpha 1/3,1/5,1/2,1/7 --beta 1/2,1/3,1/5,1/4",
    "theta_a2ii11_float": "theta --lattice {a2ii11} --grassmann {a2ii11_float_split} "
                          "--poly {a2ii11_x1sq} --tau 0.13,0.87 --bound 8 "
                          "--alpha 1/3,1/5,1/2,1/7 --beta 1/2,1/3,1/5,1/4",
    "naive_lift_ii11": "naive-lift --lattice {ii11} --grassmann {ii11_diagonal} "
                       "--form {ii11_constant_form} --ymax 3 --grid 6 --bound 6",
    "theta_ii11_skew": "theta --lattice {ii11} --grassmann {ii11_skew} --tau=-0.21,0.94 "
                       "--bound 7 --alpha 1/4,0 --beta 1/3,-1/5",
    "theta_lm_a2ii11": "theta-lm --lattice {a2ii11} --sublattice {a2_in_a2ii11} "
                       "--grassmann {ii11_skew} --poly {ii11_x1sq} --tau 0.13,0.87 --bound 8 "
                       "--xi 0,0,1/2,1/7 --eta 0,0,1/5,1/4",
    "theta_lm_a2ii11_composed": "theta-lm --lattice {a2ii11} --sublattice {a2_in_a2ii11} "
                                "--grassmann {ii11_skew} --poly {ii11_x1sq} --tau 0.13,0.87 "
                                "--bound 8 --xi 0,0,1/2,1/7 --eta 0,0,1/5,1/4 --composed",
    "theta_glued": "theta --lattice {glued} --tau 0.2,1.1 --bound 5 "
                   "--alpha 1/3,1/5,0,1/2,1/7 --beta 1/2,1/7,1/3,0,1/5",
    "theta_lm_glued": "theta-lm --lattice {glued} --sublattice {glued_m} --tau=-0.37,0.9 "
                      "--bound 6 --xi 1/3,0,1/3,0,0 --eta 0,1/5,0,1/5,0",
    "theta_lm_glued_composed": "theta-lm --lattice {glued} --sublattice {glued_m} "
                               "--tau=-0.37,0.9 --bound 6 --xi 1/3,0,1/3,0,0 "
                               "--eta 0,1/5,0,1/5,0 --composed",
    "weil_matrix_a2": "weil-matrix --lattice {a2} --element 1,1,0,1",
    "weil_matrix_a2x2_dual": "weil-matrix --lattice {a2x2} --element 2,1,1,1 --dual",
}


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_matches_golden(tmp_path, case):
    # theta, theta-lm (direct and composed), contract, naive-lift and
    # weil-matrix through the command line, byte for byte against
    # tests/golden/cli_<case>.json
    files = {name: write_json(tmp_path / f"{name}.json", payload)
             for name, payload in CLI_INPUTS.items()}
    argv = [token.format(**files) for token in CLI_CASES[case].split()]
    proc = subprocess.run([sys.executable, "-m", "vvtheta", *argv],
                          capture_output=True, text=True)
    assert proc.stderr == ""
    assert proc.returncode == 0
    golden = (pathlib.Path(__file__).parent / "golden" / f"cli_{case}.json").read_text()
    assert proc.stdout == golden, golden_diff(proc.stdout, golden)


#: one reading rule for every JSON reader: id -> (command line, its {input}
#: spelled with JSON floats, the same input spelled with rational strings,
#: the exit code of both)
FLOAT_SPELLINGS = {
    "beta": ("run-scenario {input}", dict(II11, beta=[0.5, 0.1]),
             dict(II11, beta=["1/2", "1/10"]), 0),
    "alpha": ("run-scenario {input}", dict(II11, alpha=[0.3, 0.2]),
              dict(II11, alpha=["3/10", "1/5"]), 0),
    "span": (CLI_CASES["theta_ii11_skew"].replace("ii11_skew", "input"),
             {"span_plus": [[1, 0.3]]}, CLI_INPUTS["ii11_skew"], 0),
    # 16 digits are a denominator of 10^16, past the exact build's int64 terms
    "alpha_16_digits": ("run-scenario {input}", dict(II11, alpha=[0.3333333333333333, 0.2]),
                        dict(II11, alpha=["0.3333333333333333", "0.2"]), 2),
}


@pytest.mark.parametrize("case", sorted(FLOAT_SPELLINGS))
def test_json_float_reads_as_the_decimal_written(tmp_path, capsys, case):
    # a JSON float is the decimal it spells, in shifts and spans alike, so
    # both spellings print the same bytes and exit with the same code
    command, floats, strings, code = FLOAT_SPELLINGS[case]
    ii11 = write_json(tmp_path / "ii11.json", CLI_INPUTS["ii11"])
    outputs = []
    for payload in (floats, strings):
        path = write_json(tmp_path / "input.json", payload)
        assert main(command.format(ii11=ii11, input=path).split()) == code
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    if code == 2:
        assert outputs[0].err.startswith("error: BoundTooLarge: ")


def test_theta_negative_bound_exits_with_error(tmp_path, capsys):
    # a negative bound is a usage error (exit 2), not a crash in the tail bound
    lat_file = write_json(tmp_path / "a2.json", {"gram": [[2, 1], [1, 2]]})
    assert main(["theta", "--lattice", lat_file, "--tau", "0.1,1", "--bound", "-1"]) == 2
    assert capsys.readouterr().err.startswith("error: NegativeBound: ")
    assert main(["theta", "--lattice", lat_file, "--tau", "0.1,1", "--bound", "0"]) == 0


@pytest.mark.parametrize("tau", ["0,1e400", "0,nan", "inf,1"])
def test_theta_non_finite_tau_exits_with_error(tmp_path, capsys, tau):
    # an infinite or NaN part puts tau outside the upper half-plane (exit 2),
    # where it would otherwise print NaN coefficients
    lat_file = write_json(tmp_path / "a1.json", {"gram": [[2]]})
    assert main(["theta", "--lattice", lat_file, "--tau", tau]) == 2
    assert capsys.readouterr().err.startswith("error: TauNotInUpperHalfPlane: ")


def test_emit_roundtrip_and_determinism(tmp_path):
    lat = construct_lattice([[2]])
    form = QExpansionForm(lat, F(1, 2), {((0,), F(0)): 1.0, ((1,), F(3, 4)): -2.5 + 1j})
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    emit_expansion(form, p1)
    emit_expansion(form, p2)
    assert p1.read_bytes() == p2.read_bytes()
    loaded = read_form(load_json(p1))
    assert loaded.weight == form.weight
    assert loaded.terms == form.terms
    assert loaded.lattice.gram == lat.gram


def test_theta_emit_deterministic(tmp_path):
    ii = construct_lattice([[0, 1], [1, 0]])
    v = make_grassmann_point(ii, [[1, 1]])
    theta = siegel_theta(ii, 0.3 + 0.9j, v, constant_poly(1, 1), None, 8.0)
    p1, p2 = tmp_path / "t1.json", tmp_path / "t2.json"
    emit_expansion(theta, p1)
    emit_expansion(siegel_theta(ii, 0.3 + 0.9j, v, constant_poly(1, 1), None, 8.0), p2)
    assert p1.read_bytes() == p2.read_bytes()
    data = json.loads(p1.read_text())
    assert data["type"] == "theta" and data["tail"] < 1e-8


def test_contract_matches_golden(tmp_path):
    from vvtheta import contract_symbolic, orthogonal_complement
    from vvtheta.grassmann import constant_poly

    ii = construct_lattice([[0, 1], [1, 0]])
    m_sub = sublattice(ii, [(1, -1)])
    form = QExpansionForm(ii, F(0), {((), F(0)): 2.0, ((), F(1)): -24.0})
    u_perp = make_grassmann_point(orthogonal_complement(ii, m_sub).lattice, [[1]])
    result = contract_symbolic(form, ii, m_sub, u_perp, constant_poly(1, 0), 5.0)
    assert canonical_dumps(qexpansion_to_json(result)) == GOLDEN_CONTRACTION
    # and the same through the CLI
    lat_file = write_json(tmp_path / "lat.json", {"gram": [[0, 1], [1, 0]]})
    sub_file = write_json(tmp_path / "sub.json", {"ambient": "L", "basis": [[1, -1]]})
    form_file = write_json(tmp_path / "form.json", json.loads(
        canonical_dumps(qexpansion_to_json(form))))
    out_file = tmp_path / "out.json"
    code = main(["contract", "--lattice", lat_file, "--sublattice", sub_file,
                 "--form", form_file, "--bound", "5", "--out", str(out_file)])
    assert code == 0
    assert out_file.read_text() == GOLDEN_CONTRACTION


def test_cli_theta_and_weil(tmp_path, capsys):
    lat_file = write_json(tmp_path / "lat.json", {"gram": [[2]]})
    assert main(["theta", "--lattice", lat_file, "--grassmann",
                 write_json(tmp_path / "g.json", {"span_plus": [["1"]]}),
                 "--tau", "0,1", "--bound", "6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["type"] == "theta"
    assert abs(payload["coefficients"]["0"][0] - 1.0037348854877393) < 1e-12

    assert main(["weil-matrix", "--lattice", lat_file, "--element", "0,-1,1,0"]) == 0
    mat = json.loads(capsys.readouterr().out)
    import math

    assert abs(mat[0][0][0] - math.cos(-math.pi / 4) / math.sqrt(2)) < 1e-12


@pytest.mark.parametrize("argv", [
    ["theta", "--lattice", "{lat}", "--tau", "0.1,abc"],
    ["weil-matrix", "--lattice", "{lat}", "--element", "0,-1,x,0"],
    ["weil-matrix", "--lattice", "{lat}", "--element", "0,-1,1/2,0"],
    ["verify-seesaw", "--scenario", "{scenario}", "--tau-samples", "0.2,abc"],
], ids=["tau", "element", "element_fraction", "tau_samples"])
def test_cli_malformed_numbers_exit_2(tmp_path, capsys, argv):
    files = {"lat": write_json(tmp_path / "lat.json", {"gram": [[2]]}),
             "scenario": write_json(tmp_path / "sc.json", SCENARIO)}
    assert main([token.format(**files) for token in argv]) == 2
    assert "ParseError" in capsys.readouterr().err


def test_cli_theta_lm_cross(tmp_path, capsys):
    lat_file = write_json(tmp_path / "lat.json", {"gram": [[0, 1], [1, 0]]})
    sub_file = write_json(tmp_path / "sub.json", {"ambient": "L", "basis": [[1, -1]]})
    base = ["theta-lm", "--lattice", lat_file, "--sublattice", sub_file,
            "--tau", "0.3,0.8", "--bound", "8"]
    assert main(base) == 0
    direct = capsys.readouterr().out
    assert main(base + ["--composed"]) == 0
    composed = capsys.readouterr().out
    assert direct == composed


def test_cli_verify_subcommands(tmp_path, capsys):
    path = write_json(tmp_path / "sc.json", SCENARIO)
    assert main(["verify-seesaw", "--scenario", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "seesaw_split" in report["results"] and report["pass"]
    assert main(["verify-restriction", "--scenario", path,
                 "--tolerance", "1e-6"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["restriction_integrand"]["tolerance"] == 1e-6


def test_verify_tau_samples_take_negative_real_parts(capsys):
    # a tau with a negative real part is a value of --tau-samples, not an
    # unknown option: the bundled scenario's own pair gives the file's report
    assert main(["verify-seesaw", "--scenario", str(BUNDLED)]) == 0
    from_file = capsys.readouterr().out
    assert main(["verify-seesaw", "--scenario", str(BUNDLED),
                 "--tau-samples", "0.2,1.1", "-0.37,0.9"]) == 0
    assert capsys.readouterr().out == from_file
    assert main(["verify-restriction", "--scenario", str(BUNDLED),
                 "--tau-samples", "-0.37,0.9", "-.1,1", "--bound", "8"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"]


@pytest.mark.parametrize("command", ["theta", "theta-lm"])
def test_tau_takes_negative_real_part(tmp_path, capsys, command):
    # "--tau -0.3,1.1" is the value of --tau, as "--tau=-0.3,1.1" is
    if command == "theta":
        base = ["theta", "--lattice", write_json(tmp_path / "lat.json", {"gram": [[2]]})]
    else:
        base = ["theta-lm", "--lattice",
                write_json(tmp_path / "lat.json", {"gram": [[0, 1], [1, 0]]}),
                "--sublattice",
                write_json(tmp_path / "sub.json", {"ambient": "L", "basis": [[1, -1]]})]
    assert main(base + ["--tau=-0.3,1.1", "--bound", "6"]) == 0
    joined = capsys.readouterr().out
    assert main(base + ["--tau", "-0.3,1.1", "--bound", "6"]) == 0
    assert capsys.readouterr().out == joined
    assert json.loads(joined)["type"] == "theta"


def test_cli_disc_info(tmp_path, capsys):
    lat_file = write_json(tmp_path / "lat.json", {"gram": [[2, 0], [0, -2]]})
    assert main(["disc-info", "--lattice", lat_file]) == 0
    out = capsys.readouterr().out
    assert "elementary divisors: [2, 2]" in out
    assert "isotropic" in out
    assert main(["disc-info", "--lattice", lat_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["elementary_divisors"] == [2, 2]
    assert payload["q_table"]["1,1"] == "0"


def test_cli_naive_lift(tmp_path, capsys):
    lat_file = write_json(tmp_path / "lat.json", {"gram": [[0, 1], [1, 0]]})
    g_file = write_json(tmp_path / "g.json", {"span_plus": [["1", "1"]]})
    form = {"type": "qexpansion", "gram": [[0, 1], [1, 0]], "weight": "0",
            "terms": [{"coset": [], "exp": "0", "coef": [1.0, 0.0]}]}
    form_file = write_json(tmp_path / "f.json", form)
    assert main(["naive-lift", "--lattice", lat_file, "--grassmann", g_file,
                 "--form", form_file, "--ymax", "3", "--grid", "8",
                 "--bound", "8"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["error_estimate"] < 1.0


def test_console_script_entry():
    proc = subprocess.run([sys.executable, "-m", "vvtheta.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "run-scenario" in proc.stdout


def test_import_runs_no_dataclass_codegen():
    # a dataclass compiles its generated methods with exec at every import
    proc = subprocess.run([sys.executable, "-c", "import sys, vvtheta; "
                           "print('dataclasses' in sys.modules)"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_python_m_vvtheta():
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "vvtheta", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "run-scenario" in proc.stdout
    assert proc.stderr == ""


def test_python_m_vvtheta_cli_warning_free():
    # vvtheta imports its cli lazily, so running the module finds it unimported
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "vvtheta.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "run-scenario" in proc.stdout
    assert proc.stderr == ""


#: input files of the malformed-input cases: name -> JSON payload
BAD_INPUTS = {
    "a1": {"gram": [[2]]},
    "ii11": CLI_INPUTS["ii11"],
    "ii11_m": II11["sublattice"],
    "ii11_form": CLI_INPUTS["ii11_form"],
    "no_gram": {"name": "L"},
    "no_basis": {"ambient": "L"},
    "gram_bool": {"gram": [[2, True], [True, 2]]},
    "basis_bool": {"ambient": "L", "basis": [[True, -1]]},
    "form_no_gram": {"type": "qexpansion", "weight": "0", "terms": []},
    "form_bad_coset": {"type": "qexpansion", "gram": [[2]], "weight": "0",
                       "terms": [{"coset": ["a"], "exp": "0", "coef": [1.0, 0.0]}]},
    "sc_lattice_no_gram": dict(SCENARIO, lattices={"L": {"name": "L"}}),
    "sc_form_no_terms": dict(SCENARIO, form={"lattice": "L", "weight": "0"}),
    "sc_coef_short": dict(SCENARIO, form=dict(SCENARIO["form"], terms=[
        {"coset": [], "exp": "0", "coef": [1]}])),
    "sc_lattices_list": dict(SCENARIO, lattices=[{"gram": [[0, 1], [1, 0]]}]),
    "sc_grassmann_list": dict(SCENARIO, grassmann=[]),
    "sc_sublattice_list": dict(SCENARIO, sublattice=["L", [[1, -1]]]),
    "sc_form_string": dict(SCENARIO, form="F"),
    "sc_checks_string": dict(SCENARIO, checks="weil_relations"),
    "sc_bound_inf": dict(SCENARIO, bound=float("inf")),
    "sc_valid": SCENARIO,
    "sc_alpha_bool": dict(SCENARIO, alpha=[True, 0]),
    "sc_tolerance_inf": dict(SCENARIO, tolerance=float("inf")),
    "sc_tolerance_nan": dict(SCENARIO, tolerance=float("nan")),
    "sc_tolerance_negative": dict(SCENARIO, tolerance=-1),
    "sc_monomial_inf": dict(SCENARIO, polys={"p_uperp": {"degrees": [0, 0],
                                                         "monomials": {"": [1e400, 0]}}}),
    "sc_coef_inf": dict(SCENARIO, form=dict(SCENARIO["form"], terms=[
        {"coset": [], "exp": "0", "coef": [1.0, 1e400]}])),
    "sc_tau_empty": dict(SCENARIO, tau_samples=[]),
    "sc_checks_empty": dict(SCENARIO, checks=[]),
    "sc_weil_relations_no_lattices": {"lattices": {}, "checks": ["weil_relations"]},
    "sc_gauss_sum_no_lattices": {"lattices": {}, "checks": ["gauss_sum"]},
    "sc_weights_no_form": dict({k: v for k, v in SCENARIO.items() if k != "form"},
                               checks=["weight_bookkeeping"]),
    "sc_tolerance_bool": dict(SCENARIO, tolerance=True),
    "sc_bound_bool": dict(SCENARIO, bound=True),
    "sc_tau_bool": dict(SCENARIO, tau_samples=[[True, 1.0]]),
    "sc_coef_bool": dict(SCENARIO, form=dict(SCENARIO["form"], terms=[
        {"coset": [], "exp": "0", "coef": [True, 0]}])),
    "sc_name_int": dict(SCENARIO, name=5),
    "sc_form_duplicate_term": dict(SCENARIO, form=dict(SCENARIO["form"], terms=[
        {"coset": [], "exp": "0", "coef": [1.0, 0.0]},
        {"coset": [], "exp": "0/5", "coef": [2.0, 0.0]}])),
}

#: the checks that need the sublattice M, each run on a scenario without one
NEEDS_SUBLATTICE = sorted(set(CHECKS) - {"weil_relations", "gauss_sum"})
BAD_INPUTS.update({f"sc_no_sub_{check}": dict(
    {k: v for k, v in SCENARIO.items() if k != "sublattice"}, checks=[check])
    for check in NEEDS_SUBLATTICE})

THETA_LM = "theta-lm --lattice {ii11} --sublattice {ii11_m} --tau 0.2,1.1"
CONTRACT = "contract --lattice {ii11} --sublattice {ii11_m} --form {ii11_form}"

#: malformed inputs: id -> (command line, what stderr must name); each exited
#: 1 with a traceback, or printed a number, before the JSON readers
MALFORMED_INPUTS = {
    "disc_info_no_gram": ("disc-info --lattice {no_gram}", "ParseError"),
    # a JSON true is no integer and no rational, though Python reads it as 1
    "gram_bool": ("disc-info --lattice {gram_bool}", "NotIntegral"),
    "alpha_bool": ("run-scenario {sc_alpha_bool}", "ParseError: bad rational True"),
    "scenario_tolerance_bool": ("run-scenario {sc_tolerance_bool}", "ParseError: bad number True"),
    "scenario_bound_bool": ("run-scenario {sc_bound_bool}", "ParseError: bad number True"),
    "scenario_tau_bool": ("run-scenario {sc_tau_bool}", "ParseError: bad number True"),
    "scenario_coef_bool": ("run-scenario {sc_coef_bool}", "ParseError: bad number True"),
    "scenario_name_int": ("run-scenario {sc_name_int}", "ParseError: 'name' must be a string"),
    # a second term under one coset and exponent replaced the first
    "scenario_form_duplicate_term": ("run-scenario {sc_form_duplicate_term}",
                                     "ParseError: duplicate form term at coset [], exponent 0"),
    "basis_bool": (THETA_LM.replace("ii11_m", "basis_bool"), "ParseError: bad rational True"),
    "weil_matrix_no_gram": ("weil-matrix --lattice {no_gram} --element 0,-1,1,0",
                            "ParseError"),
    "theta_no_gram": ("theta --lattice {no_gram} --tau 0.2,1.1", "ParseError"),
    "theta_lm_no_basis": (THETA_LM.replace("ii11_m", "no_basis"), "ParseError"),
    "contract_no_basis": (CONTRACT.replace("ii11_m", "no_basis"), "ParseError"),
    "naive_lift_form_no_gram": ("naive-lift --lattice {a1} --form {form_no_gram}",
                                "ParseError"),
    "naive_lift_form_bad_coset": ("naive-lift --lattice {a1} --form {form_bad_coset}",
                                  "ParseError"),
    "scenario_lattice_no_gram": ("run-scenario {sc_lattice_no_gram}", "ParseError"),
    "scenario_form_no_terms": ("run-scenario {sc_form_no_terms}", "ParseError"),
    "scenario_coef_short": ("run-scenario {sc_coef_short}", "ParseError"),
    "scenario_lattices_list": ("run-scenario {sc_lattices_list}", "ParseError"),
    "scenario_grassmann_list": ("run-scenario {sc_grassmann_list}", "ParseError"),
    "scenario_sublattice_list": ("run-scenario {sc_sublattice_list}", "ParseError"),
    "scenario_form_string": ("run-scenario {sc_form_string}", "ParseError"),
    "scenario_checks_string": ("run-scenario {sc_checks_string}",
                               "ParseError: checks must be a list of names"),
    "theta_bound_inf": ("theta --lattice {a1} --tau 0.2,1.1 --bound inf", "BoundTooLarge"),
    "theta_lm_bound_inf": (THETA_LM + " --bound inf", "BoundTooLarge"),
    "contract_bound_inf": (CONTRACT + " --bound inf", "BoundTooLarge"),
    "contract_bound_nan": (CONTRACT + " --bound nan", "NegativeBound"),
    "scenario_bound_inf": ("run-scenario {sc_bound_inf}", "BoundTooLarge"),
    "scenario_tolerance_inf": ("run-scenario {sc_tolerance_inf}", "ParseError: tolerance"),
    "scenario_tolerance_nan": ("run-scenario {sc_tolerance_nan}", "ParseError: tolerance"),
    "scenario_tolerance_negative": ("run-scenario {sc_tolerance_negative}",
                                    "ParseError: tolerance"),
    "verify_seesaw_tolerance_inf": ("verify-seesaw --scenario {sc_valid} --tolerance inf",
                                    "ParseError: tolerance"),
    "scenario_monomial_inf": ("run-scenario {sc_monomial_inf}", "ParseError: coefficient"),
    "scenario_coef_inf": ("run-scenario {sc_coef_inf}", "ParseError: coefficient"),
    "scenario_tau_samples_empty": ("run-scenario {sc_tau_empty}", "ParseError: tau_samples"),
    "verify_restriction_tau_samples_empty": ("verify-restriction --scenario {sc_tau_empty}",
                                             "ParseError: tau_samples"),
    "verify_seesaw_tau_samples_flag_empty": ("verify-seesaw --scenario {sc_valid} --tau-samples",
                                             "ParseError: tau_samples"),
    "verify_restriction_tau_samples_flag_empty": (
        "verify-restriction --scenario {sc_valid} --tau-samples", "ParseError: tau_samples"),
    "scenario_checks_empty": ("run-scenario {sc_checks_empty}",
                              "ParseError: checks must name at least one check"),
    "scenario_weil_relations_no_lattices": ("run-scenario {sc_weil_relations_no_lattices}",
                                            "ParseError: this check needs at least one"),
    "scenario_gauss_sum_no_lattices": ("run-scenario {sc_gauss_sum_no_lattices}",
                                       "ParseError: this check needs at least one"),
    "scenario_weight_bookkeeping_no_form": ("run-scenario {sc_weights_no_form}",
                                            "ParseError: weight check needs a 'form'"),
}
MALFORMED_INPUTS.update({
    f"scenario_no_sublattice_{check}": (f"run-scenario {{sc_no_sub_{check}}}",
                                        "ParseError: this check needs a 'sublattice'")
    for check in NEEDS_SUBLATTICE})


#: malformed $THETA_MAX_VECTORS values: id -> value, each on a valid run
MALFORMED_CAPS = {"theta_max_vectors_word": "abc", "theta_max_vectors_float": "1e5",
                  "theta_max_vectors_negative": "-3"}
MALFORMED_INPUTS.update({
    case: ("run-scenario {sc_valid}", "ParseError: THETA_MAX_VECTORS")
    for case in MALFORMED_CAPS})


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_2(tmp_path, capsys, monkeypatch, case):
    # a missing or wrongly typed entry, a non-finite bound or coefficient, a
    # tolerance that is not a finite number >= 0, or a node cap that is not a
    # decimal count, is a typed error with exit 2 (1 means a check failed),
    # never a traceback or a verdict
    files = {name: write_json(tmp_path / f"{name}.json", payload)
             for name, payload in BAD_INPUTS.items()}
    if case in MALFORMED_CAPS:
        monkeypatch.setenv("THETA_MAX_VECTORS", MALFORMED_CAPS[case])
    command, error = MALFORMED_INPUTS[case]
    assert main([token.format(**files) for token in command.split()]) == 2
    assert f"error: {error}" in capsys.readouterr().err


def test_unwritable_out_exits_2(tmp_path, capsys):
    # a write failure is a typed error with exit 2, and nothing is printed
    lat = write_json(tmp_path / "a1.json", BAD_INPUTS["a1"])
    out = tmp_path / "missing" / "theta.json"
    assert main(["theta", "--lattice", lat, "--tau", "0.2,1.1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: OutputNotWritable: ")
    assert not out.exists()


@pytest.mark.parametrize("options", ["--grid=0", "--grid=-3", "--grid=1", "--ymax=0.5",
                                     "--ymax=nan", "--ymax=0.9 --grid=2"])
def test_naive_lift_rejects_empty_grid(tmp_path, capsys, options):
    # no cell per side, a single cell (no coarser grid for the error estimate),
    # nothing above y = sqrt(3)/2, or no midpoint with |tau| >= 1: there is no
    # quadrature to report, so the command exits 2 and prints no value
    lat = write_json(tmp_path / "a1.json", BAD_INPUTS["a1"])
    form = write_json(tmp_path / "form.json", dict(BAD_INPUTS["form_bad_coset"], terms=[]))
    assert main(["naive-lift", "--lattice", lat, "--form", form, *options.split()]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: EmptyGrid: ")


#: options that name a JSON input file, and the positional scenario file
JSON_INPUTS = ("lattice", "sublattice", "grassmann", "poly", "form", "scenario")

#: a valid value for every JSON input and every required argument of every
#: subcommand: the default splitting and the zero polynomial fit both
#: A1+A1(-1) and its M-perp = A1
VALID_ARGS = {
    "lattice": {"gram": [[2, 0], [0, -2]]},
    "sublattice": {"ambient": "L", "basis": [[0, 1]]},
    "grassmann": {"span_plus": []},
    "poly": {"degrees": [0, 0], "monomials": {}},
    "form": {"type": "qexpansion", "gram": [[2, 0], [0, -2]], "weight": "0", "terms": []},
    "scenario": dict(SCENARIO, checks=["weil_relations"]),
    "tau": "0.2,1.1",
    "element": "0,-1,1,0",
}


def _subcommands() -> dict:
    parser = build_parser()
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("command,dest", [
    (name, action.dest) for name, sub in sorted(_subcommands().items())
    for action in sub._actions if action.dest in JSON_INPUTS])
def test_every_json_input_goes_through_a_reader(tmp_path, capsys, command, dest):
    # every subcommand, present and future: a file holding the JSON array []
    # in one JSON input, with valid required inputs, is a ParseError (exit 2);
    # a handler that indexed its input by hand would crash instead
    def argv(bad: bool) -> list:
        out = [command]
        for action in _subcommands()[command]._actions:
            if action.dest == dest or action.required:
                value = VALID_ARGS[action.dest]
                if action.dest in JSON_INPUTS:
                    payload = [] if bad and action.dest == dest else value
                    value = write_json(tmp_path / f"{action.dest}.json", payload)
                out += [action.option_strings[0], value] if action.option_strings else [value]
        return out

    assert main(argv(bad=False)) == 0, capsys.readouterr().err
    assert main(argv(bad=True)) == 2
    assert "error: ParseError: " in capsys.readouterr().err
