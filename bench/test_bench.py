"""Tests of the benchmark's own arithmetic; run with ``pytest bench``."""

from __future__ import annotations

import json
import os
import signal
import time

import pytest

import reference
import run
from stats import TAIL_BEYOND, tail_percentile, valid_name
from tracing import Tracer, layer_self_times, self_times, totals_by_name

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent, "run_id": "r"}


def test_self_time_of_hand_built_tree():
    # iteration [0, 10] holds theta.at [1, 4] and lift [5, 9]; lift holds
    # pointwise [6, 7] and [7.5, 8.5]
    spans = [
        _span("bench.iteration", 0.0, 10.0, None),
        _span("theta.at", 1.0, 4.0, 0),
        _span("contraction.lift", 5.0, 9.0, 0),
        _span("contraction.pointwise", 6.0, 7.0, 2),
        _span("contraction.pointwise", 7.5, 8.5, 2),
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 1.0, 1.0])
    totals = totals_by_name(spans)
    assert totals["contraction.pointwise"] == {"self_s": pytest.approx(2.0),
                                               "total_s": pytest.approx(2.0), "calls": 2}
    assert totals["contraction.lift"]["total_s"] == pytest.approx(4.0)
    assert layer_self_times(spans) == pytest.approx(
        {"bench": 3.0, "theta": 3.0, "contraction": 4.0})
    # self times partition the root span
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_tracer_records_parents_and_run_ids():
    tr = Tracer()
    tr.run_id = "w:iteration"
    with tr.span("outer"):
        with tr.span("inner"):
            pass
        with tr.span("inner"):
            pass
    spans = tr.dump()
    assert [s["parent"] for s in spans] == [None, 0, 0]
    assert {s["run_id"] for s in spans} == {"w:iteration"}
    assert all(s["end"] >= s["start"] for s in spans)
    assert totals_by_name(spans)["inner"]["calls"] == 2


@pytest.mark.parametrize("n, percentile, beyond", [
    (11, 9, 10),    # only the smallest sample leaves ten beyond it
    (20, 50, 10),
    (25, 60, 10),
    (100, 90, 10),
    (1000, 99, 10),
    (37, 72, 10),
])
def test_tail_percentile_leaves_ten_beyond(n, percentile, beyond):
    samples = [float(i) for i in range(n, 0, -1)]  # unsorted input
    value, p, b = tail_percentile(samples)
    assert (p, b) == (percentile, beyond)
    assert sum(1 for x in samples if x > value) == b >= TAIL_BEYOND
    # one percentile higher would leave fewer than ten beyond
    k_next = -(-(p + 1) * n // 100)
    assert n - k_next < TAIL_BEYOND


@pytest.mark.parametrize("n", [1, 3, 10])
def test_tail_percentile_without_enough_samples_is_the_maximum(n):
    samples = [0.5 + i for i in range(n)]
    assert tail_percentile(samples) == (max(samples), 100, 0)


def test_tail_percentile_rejects_empty():
    with pytest.raises(ValueError):
        tail_percentile([])


def test_reference_kernel_repeats_its_work():
    # the normalization assumes the kernel does the same work on every call
    assert reference.kernel(300) == reference.kernel(300)
    assert reference.measure(calls=2) > 0


def test_sampler_takes_its_kernel_time_out_of_the_region():
    sampler = reference.Sampler(period_s=0.01)
    with sampler:
        t_end = time.perf_counter() + 0.1
        while time.perf_counter() < t_end:
            pass
    assert sampler.samples
    assert sampler.wall_s >= 0.1
    assert sampler.net_s == pytest.approx(sampler.wall_s - sum(sampler.samples))
    assert sampler.reference_s() == pytest.approx(sum(sampler.samples) / len(sampler.samples))
    # the timer is off once the region ends
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_parse_importtime_attributes_to_top_level_packages():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       120 |        120 |   _io",
        "import time:      1000 |       1000 |     numpy.core._multiarray_umath",
        "import time:       500 |       1500 |   numpy",
        "import time:      2000 |       2000 |       scipy.integrate",
        "import time:        30 |       3530 | vvtheta",
        "unrelated line",
    ])
    out = run.parse_importtime(text)
    assert out["numpy"] == pytest.approx(1500e-6)
    assert out["scipy"] == pytest.approx(2000e-6)
    assert out["vvtheta"] == pytest.approx(30e-6)
    assert out["_io"] == pytest.approx(120e-6)


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_names_in_benchmark_json():
    spec = _benchmark_json()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    bad = [n for n in names if not valid_name(n)]
    assert not bad
    assert len(names) == len(set(names))
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name, ok", [
    ("run_s", True), ("cli.check.theta_modularity_T_s", True), ("weil-192", True),
    ("9lives", True), ("_hidden", False), ("bad name", False), ("a/b", False),
    ("x" * 64, True), ("x" * 65, False), ("", False),
])
def test_valid_name(name, ok):
    assert valid_name(name) is ok
