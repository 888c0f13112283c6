"""Smoke test of the benchmark's use of the public API.

Runs one iteration and then the traced-run probe of every workload in
``bench/workloads.py`` with a null tracer, so an API change that would only
show up as failed benchmark operations, or as a broken traced run, fails here
instead.
"""

import importlib
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_workload_iterates_without_failures(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.chdir(ROOT)  # the scenario workload reads scenarios/ from here
    tracer = importlib.import_module("tracing").NullTracer()
    workloads = importlib.import_module("workloads").WORKLOADS
    assert len(workloads) == 4
    for name, workload in workloads.items():
        state = workload.setup(workload.make_inputs(11, str(tmp_path)), tracer)
        outcome = workload.iterate(state, tracer)
        assert outcome.attempted > 0, name
        assert outcome.failed == 0, (name, outcome.detail)
        extras = workload.probe(state, tracer)
        if name == "scenario":
            # the probe calls each check of the CLI's table directly
            assert extras["cli.checks_passed"] == 15
