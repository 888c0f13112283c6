"""vvtheta benchmark: import, set-up and run time on four workloads.

Run from the root of a vvtheta checkout:

    python3 bench/run.py --workload scenario --seed 1 --seconds 55 --trace 0

Workloads (see bench/README.md for why each exists): scenario, theta-rank4,
weil-192, lift-grid.  The design is a closed loop with one client: one
process runs one iteration after the next, with BLAS pinned to one thread.

With ``--trace 0`` the end-to-end metrics are measured without tracing.
Ten fresh interpreters, started between iterations and spread over the
``--seconds`` window, time ``import vvtheta`` and one cold set-up each.
Every timed sample is normalized by the host's speed at that moment, as
measured by a fixed reference kernel run during the import or the
iteration, or right after the set-up (``reference.py``):

- ``import_s``: median ``import vvtheta`` over those and the iterating one
- ``setup_s``: median cold set-up over the same eleven interpreters
- ``run_s``: median iteration whose output checks all passed
- ``ops_ok_frac``: output checks that passed over those attempted
- ``peak_rss_mb``: peak resident memory of the iterating process

The host's two vCPUs are shared, and other tenants slow a run by up to 2x
for minutes at a time; the normalization takes that out (see
bench/README.md).  The highest percentile with ten iterations beyond it,
the raw wall-clock medians and every sample are printed on the details
line.

With ``--trace 1`` one traced pass over every workload gives the per-layer
metrics: span self times around each call the benchmark makes into
``lattice``, ``discforms``, ``weil``, ``grassmann``, ``theta``,
``contraction`` and ``cli``, import times per top-level package from
``python -X importtime``, and the tracing overhead on the named workload.
The spans are written to ``.bench_build/``.

The last line of standard output is the result object; the line before it
holds the details (samples, percentile, residuals, thread counts).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from reference import REF_S  # noqa: E402
from stats import median, tail_percentile, valid_name  # noqa: E402
from tracing import layer_self_times, totals_by_name  # noqa: E402

WORKLOAD_NAMES = ("scenario", "theta-rank4", "weil-192", "lift-grid")
REQUIRED_FILES = (os.path.join("src", "vvtheta", "__init__.py"),
                  os.path.join("scenarios", "ii11_seesaw.json"))
WORKDIR = ".bench_build"
#: fresh interpreters that time import and set-up besides the iterating one,
#: run between iterations and spread over the measured window
SETUP_PROBES = 10
#: fresh interpreters for the per-package import profile of a traced run
IMPORTTIME_PROBES = 3
#: the whole run must end within this many seconds
DEADLINE_S = 170.0
LAYERS = ("lattice", "discforms", "weil", "grassmann", "theta", "contraction", "cli",
          "bench")
IMPORT_PACKAGES = ("numpy", "scipy", "sympy")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(cmd: list, deadline: float, capture_stderr: bool = False) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting " + " ".join(cmd[:3]))
    # subprocess.run kills the child and waits for it when the timeout expires
    proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE if capture_stderr else None,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:4])} exited with {proc.returncode}")
    return proc


def read_result(proc: subprocess.Popen) -> dict:
    line = proc.stdout.readline()
    if not line:
        raise BenchError("worker ended without a result")
    return json.loads(line)


def worker_cmd(mode: str, workload: str, seed: int, *extra) -> list:
    return [sys.executable, os.path.join(HERE, "worker.py"), mode, "--workload", workload,
            "--seed", str(seed), "--workdir", WORKDIR, *extra]


def run_worker(mode: str, workload: str, seed: int, deadline: float, *extra) -> dict:
    proc = run_child(worker_cmd(mode, workload, seed, *extra), deadline)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {mode} {workload} printed nothing")
    return json.loads(lines[-1])


def build() -> None:
    """Byte-compile the package so every timed import reads cached bytecode."""
    import compileall

    if not compileall.compile_dir("src", quiet=1):
        raise BenchError("src does not compile")


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics

def untraced(workload: str, seed: int, seconds: int, deadline: float):
    runner = subprocess.Popen(worker_cmd("run", workload, seed), env=child_env(),
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), runner.kill)
    watchdog.start()
    try:
        ready = read_result(runner)
        probes = [ready]
        iterations = []
        start = time.monotonic()
        while True:
            runner.stdin.write("iterate\n")
            runner.stdin.flush()
            iterations.append(read_result(runner))
            elapsed = time.monotonic() - start
            # spread the fresh-interpreter probes evenly over the window
            while len(probes) - 1 < SETUP_PROBES * min(elapsed / seconds, 1.0):
                probes.append(run_worker("probe", workload, seed, deadline))
            typical = median(it["wall_s"] for it in iterations)
            if time.monotonic() - start + typical > seconds:
                break
        runner.stdin.write("stop\n")
        runner.stdin.flush()
        final = read_result(runner)
        if runner.wait() != 0:
            raise BenchError(f"worker run {workload} exited with {runner.returncode}")
    finally:
        watchdog.cancel()
        if runner.poll() is None:
            runner.kill()
        runner.wait()

    def normalized(sample_s: float, ref_s: float) -> float:
        return sample_s * REF_S / ref_s

    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    passing = [it for it in iterations if it["failed"] == 0]
    if not passing:
        raise BenchError(f"no iteration of {workload} passed its checks "
                         f"({failed} of {attempted} checks failed)")
    runs = [normalized(it["s"], it["ref_s"]) for it in passing]
    imports = [normalized(p["import_s"], p["import_ref_s"]) for p in probes]
    setups = [normalized(p["setup_s"], p["setup_ref_s"]) for p in probes]
    tail, percentile, beyond = tail_percentile(runs)
    metrics = {
        "import_s": (median(imports), "s"),
        "setup_s": (median(setups), "s"),
        "run_s": (median(runs), "s"),
        "ops_ok_frac": ((attempted - failed) / attempted, "frac"),
        "peak_rss_mb": (final["peak_rss_mb"], "MB"),
    }
    wall = [it["wall_s"] for it in passing]
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "iterations": len(iterations), "passing_iterations": len(passing),
        "run_tail_s": tail, "tail_percentile": percentile, "tail_samples_beyond": beyond,
        "run_wall_median_s": median(wall), "run_min_s": min(runs),
        "import_wall_median_s": median(p["import_s"] for p in probes),
        "setup_wall_median_s": median(p["setup_s"] for p in probes),
        "reference_median_s": median(it["ref_s"] for it in iterations),
        "reference_samples": [it["ref_samples"] for it in iterations],
        "iteration_wall_s": [it["wall_s"] for it in iterations],
        "iteration_ref_s": [it["ref_s"] for it in iterations],
        "import_samples_s": [p["import_s"] for p in probes],
        "setup_samples_s": [p["setup_s"] for p in probes],
        "import_ref_s": [p["import_ref_s"] for p in probes],
        "setup_ref_s": [p["setup_ref_s"] for p in probes],
        "checks": [it["detail"] for it in iterations[:3]],
        "blas_threads": final["blas_threads"], "nproc": os.cpu_count(),
    }
    return metrics, attempted, failed, detail


# ---------------------------------------------------------------------------
# traced run: per-layer metrics

def import_profile(deadline: float) -> dict[str, float]:
    """Median self time per top-level package from ``python -X importtime``."""
    samples: dict[str, list] = {}
    for _ in range(IMPORTTIME_PROBES):
        proc = run_child([sys.executable, "-X", "importtime", "-c", "import vvtheta"],
                         deadline, capture_stderr=True)
        per_package = parse_importtime(proc.stderr)
        for pkg in IMPORT_PACKAGES + ("vvtheta",):
            samples.setdefault(pkg, []).append(per_package.get(pkg, 0.0))
    return {pkg: median(vals) for pkg, vals in samples.items()}


def parse_importtime(text: str) -> dict[str, float]:
    """Seconds of self time per top-level package in ``-X importtime`` output."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3:
            continue
        top = fields[2].strip().split(".", 1)[0]
        out[top] = out.get(top, 0.0) + int(fields[0]) * 1e-6
    return out


def traced(workload: str, seed: int, deadline: float):
    imports = import_profile(deadline)
    runs = {name: run_worker("trace", name, seed, deadline,
                             *(["--overhead"] if name == workload else []))
            for name in WORKLOAD_NAMES}
    with open(os.path.join(WORKDIR, f"trace_{workload}_seed{seed}.json"), "w") as fh:
        json.dump({name: r["spans"] for name, r in runs.items()}, fh)

    spans: dict[str, dict] = {}
    layers: dict[str, float] = {}
    probe: dict = {}
    for r in runs.values():
        for name, agg in totals_by_name(r["spans"]).items():
            into = spans.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
            for key in into:
                into[key] += agg[key]
        for layer, s in layer_self_times(r["spans"]).items():
            layers[layer] = layers.get(layer, 0.0) + s
        probe.update(r["probe"])

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    enumerate_s = total("theta.enumerate")
    build_s = total("theta.evaluator") - enumerate_s
    eval_s = total("theta.at") - total("theta.tail")
    grid_points = calls("contraction.pointwise")  # one callback per grid point
    main = runs[workload]
    m = {
        "lattice.build_s": (total("lattice.build"), "s"),
        "discforms.group_s": (total("discforms.group"), "s"),
        "discforms.form_us": (1e6 * total("discforms.form") / probe["discforms.form_calls"],
                              "us"),
        "discforms.gauss_sum_s": (total("discforms.gauss_sum"), "s"),
        "weil.generator_s": (sum(total(f"weil.generator.{g}") for g in "TSZ"), "s"),
        "weil.s_us_per_entry": (1e6 * total("weil.generator.S") / probe["weil.order"] ** 2,
                                "us"),
        "weil.rho_apply_s": (total("weil.rho_apply"), "s"),
        "weil.rho_apply_calls": (calls("weil.rho_apply"), "count"),
        "grassmann.point_s": (total("grassmann.point"), "s"),
        "theta.split_s": (total("theta.split"), "s"),
        "theta.enumerate_s": (enumerate_s, "s"),
        "theta.vectors": (probe["theta.vectors"], "count"),
        "theta.vectors_per_s": (probe["theta.vectors"] / enumerate_s, "1/s"),
        "theta.build_s": (build_s, "s"),
        "theta.terms": (probe["theta.terms"], "count"),
        "theta.build_us_per_term": (1e6 * build_s / probe["theta.terms"], "us"),
        "theta.eval_us_per_term_tau": (
            1e6 * eval_s / (probe["theta.terms"] * probe["n_tau"]), "us"),
        "theta.tail_s": (total("theta.tail"), "s"),
        "theta.tail_calls": (calls("theta.tail"), "count"),
        "theta.seesaw_check_s": (total("theta.seesaw_check"), "s"),
        "contraction.lift_ambient_s": (total("contraction.lift_ambient"), "s"),
        "contraction.lift_small_s": (total("contraction.lift_small"), "s"),
        "contraction.grid_points": (grid_points, "count"),
        "contraction.lift_us_per_point": (
            1e6 * total("contraction.lift_ambient") / grid_points, "us"),
        "contraction.pointwise_s": (total("contraction.pointwise"), "s"),
        "contraction.pointwise_calls": (calls("contraction.pointwise"), "count"),
        "cli.scenario_parse_s": (total("cli.scenario_parse"), "s"),
        "cli.checks_passed": (probe["cli.checks_passed"], "count"),
    }
    for name in sorted(spans):
        if name.startswith("cli.check."):
            m[f"{name}_s"] = (total(name), "s")
    for pkg in IMPORT_PACKAGES:
        m[f"import.{pkg}_s"] = (imports[pkg], "s")
    m["import.vvtheta_self_s"] = (imports["vvtheta"], "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layers.get(layer, 0.0), "s")
    m["trace.overhead_frac"] = (min(main["traced_s"]) / min(main["untraced_s"]) - 1, "frac")

    # the iterations' checks, plus the scenario checks run one by one
    n_checks = sum(1 for name in spans if name.startswith("cli.check."))
    attempted = sum(r["attempted"] for r in runs.values()) + n_checks
    failed = sum(r["failed"] for r in runs.values()) + n_checks - probe["cli.checks_passed"]
    detail = {
        "workload": workload, "seed": seed, "traced_workloads": list(runs),
        "overhead_traced_s": main["traced_s"], "overhead_untraced_s": main["untraced_s"],
        "checks": {name: r["detail"] for name, r in runs.items()},
        "blas_threads": main["blas_threads"], "nproc": os.cpu_count(),
    }
    return m, attempted, failed, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    missing = [p for p in REQUIRED_FILES if not os.path.isfile(p)]
    if missing:
        print(f"error: run from the root of a vvtheta checkout; missing {missing}",
              file=sys.stderr)
        return 2
    try:
        build()
        os.makedirs(WORKDIR, exist_ok=True)
        if args.trace:
            metrics, attempted, failed, detail = traced(args.workload, args.seed, deadline)
        else:
            metrics, attempted, failed, detail = untraced(args.workload, args.seed,
                                                          args.seconds, deadline)
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    bad = [name for name in metrics if not valid_name(name)]
    if bad:
        print(f"error: invalid metric names {bad}", file=sys.stderr)
        return 1
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
