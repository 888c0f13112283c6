"""One benchmark process: import vvtheta, set up a workload, run it.

Started by ``run.py`` in a fresh interpreter with ``src`` on the path and
BLAS pinned to one thread.  Modes:

- ``probe``: time ``import vvtheta`` and one set-up, then exit.
- ``run``: the same, then run one timed and checked iteration for each
  ``iterate`` line read from standard input, until ``stop``.  The caller
  runs its probes between iterations, never during one.
- ``trace``: set up and run one iteration with spans recorded, then the
  workload's per-layer probes; with ``--overhead`` also time pairs of an
  untraced and a traced iteration to measure the tracing overhead.

Each mode ends by writing one JSON object as the last line of standard
output.

Every mode samples the reference kernel (``reference.py``) during
``import vvtheta``; ``probe`` and ``run`` time it right after the set-up,
and ``run`` samples it during each iteration, so that the caller can divide
every sample by the host speed at that moment.  Import and iteration times
exclude the time spent in the kernel.  ``reference`` imports ``fractions``
and ``cmath`` before the timed import.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

# before vvtheta: the kernel samples the host speed during its import
import reference

#: seconds of untraced/traced iteration pairs for the tracing overhead
OVERHEAD_S = 6.0
#: reference kernel calls timed right after a set-up, which is too short
#: to be sampled
SETUP_REF_CALLS = 75
#: reference kernel calls timed after any other region too short to be
#: sampled
SHORT_REF_CALLS = 25


def _reference_s(sampler) -> float:
    """Kernel time during the sampler's last region, or right after it when
    the region was shorter than one sampling period."""
    if sampler.samples:
        return sampler.reference_s()
    return reference.measure(calls=SHORT_REF_CALLS)


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def timed_setup(workload, inputs) -> dict:
    from tracing import NullTracer

    state, setup_s = _timed(workload.setup, inputs, NullTracer())
    return {"state": state, "setup_s": setup_s,
            "setup_ref_s": reference.measure(calls=SETUP_REF_CALLS)}


def run_mode(workload, inputs, sampler, imported: dict) -> dict:
    from tracing import NullTracer

    tr = NullTracer()
    setup = timed_setup(workload, inputs)
    state = setup.pop("state")
    _emit({**imported, **setup})
    for line in sys.stdin:
        if line.strip() != "iterate":
            break
        with sampler:
            outcome = workload.iterate(state, tr)
        _emit({"s": sampler.net_s, "wall_s": sampler.wall_s, "ref_s": _reference_s(sampler),
               "ref_samples": len(sampler.samples), "attempted": outcome.attempted,
               "failed": outcome.failed, "detail": outcome.detail})
    return {}


def trace_mode(workload, inputs, overhead: bool) -> dict:
    from tracing import NullTracer, Tracer

    name = workload.name
    tr = Tracer()
    tr.run_id = f"{name}:setup"
    with tr.span("bench.setup"):
        state = workload.setup(inputs, tr)

    def traced(tracer):
        with tracer.span("bench.iteration"):
            return workload.iterate(state, tracer)

    tr.run_id = f"{name}:iteration"
    outcomes = [traced(tr)]
    result = {"untraced_s": [], "traced_s": []}
    # warm pairs of an untraced and a traced iteration (spans dropped), for
    # about OVERHEAD_S seconds; at least one pair
    start = time.perf_counter()
    while overhead and (not result["traced_s"]
                        or time.perf_counter() - start < OVERHEAD_S):
        outcome, elapsed = _timed(workload.iterate, state, NullTracer())
        result["untraced_s"].append(elapsed)
        outcomes.append(outcome)
        outcome, elapsed = _timed(traced, Tracer())
        result["traced_s"].append(elapsed)
        outcomes.append(outcome)
    tr.run_id = f"{name}:probe"
    with tr.span("bench.probe"):
        result["probe"] = workload.probe(state, tr)
    result["spans"] = tr.dump()
    result["attempted"] = sum(o.attempted for o in outcomes)
    result["failed"] = sum(o.failed for o in outcomes)
    result["detail"] = outcomes[0].detail
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["probe", "run", "trace"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args(argv)

    sampler = reference.Sampler()
    with sampler:
        import vvtheta  # noqa: F401
    imported = {"import_s": sampler.net_s, "import_ref_s": _reference_s(sampler),
                "import_ref_samples": len(sampler.samples)}
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed, args.workdir)
    # a full collection of the import's garbage would otherwise land in the
    # set-up or not, depending on what the benchmark imported before it
    gc.collect()
    if args.mode == "probe":
        result = timed_setup(workload, inputs)
        del result["state"]
    elif args.mode == "run":
        result = run_mode(workload, inputs, sampler, imported)
    else:
        result = trace_mode(workload, inputs, args.overhead)
    result.update(imported)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["blas_threads"] = os.environ.get("OPENBLAS_NUM_THREADS")
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
