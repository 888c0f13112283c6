"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import re
import statistics

#: metric and workload names: a letter or digit, then letters, digits, _ . -
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: a tail percentile must leave at least this many samples beyond it
TAIL_BEYOND = 10


def valid_name(name: str) -> bool:
    return NAME_RE.fullmatch(name) is not None


def median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(samples) -> tuple[float, int, int]:
    """(value, percentile, samples beyond) of the highest whole percentile
    that leaves at least ``TAIL_BEYOND`` samples beyond it.

    Nearest rank: the p-th percentile of n sorted samples is the k-th with
    k = ceil(p n / 100), leaving n - k beyond it.  With n <= TAIL_BEYOND no
    percentile qualifies; the slowest sample is returned as percentile 100
    with nothing beyond it, and the caller reports that count.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= TAIL_BEYOND:
        return float(xs[-1]), 100, 0
    p = 100 * (n - TAIL_BEYOND) // n
    k = -(-p * n // 100)
    return float(xs[k - 1]), p, n - k
