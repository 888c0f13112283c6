"""In-memory spans around the benchmark's calls into vvtheta.

A span records its name, start, end, parent and run id.  Spans are kept in a
list while the workload runs and written out once at the end; nothing is
printed or flushed while a timed region is open.  The untraced runs use
``NullTracer``, whose spans cost one attribute lookup and an empty context
manager.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


class Tracer:
    """Collects nested spans; ``span`` is a context manager."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = ""
        self._stack: list[int] = []

    def span(self, name: str):
        return _SpanContext(self, name)

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


class _SpanContext:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else None
        self.index = len(tr.spans)
        tr.spans.append(Span(self.name, 0.0, 0.0, parent, tr.run_id))
        tr._stack.append(self.index)
        tr.spans[self.index].start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tr = self.tracer
        tr.spans[self.index].end = end
        tr._stack.pop()
        return False


class NullTracer:
    """Tracer with the same interface that records nothing."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null


def self_times(spans: list[dict]) -> list[float]:
    """Per span: its duration minus the time its direct children cover.

    Children of one span run one after another on one thread, so the time
    they cover is the sum of their durations.
    """
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def totals_by_name(spans: list[dict]) -> dict[str, dict]:
    """name -> {"self_s", "total_s", "calls"} summed over all spans of that name."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for s, own in zip(spans, selfs):
        agg = out.setdefault(s["name"], {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        agg["self_s"] += own
        agg["total_s"] += s["end"] - s["start"]
        agg["calls"] += 1
    return out


def layer_self_times(spans: list[dict]) -> dict[str, float]:
    """Self time per layer, the layer being the span name up to the first dot."""
    out: dict[str, float] = {}
    for name, agg in totals_by_name(spans).items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + agg["self_s"]
    return out
