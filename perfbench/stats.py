"""Percentiles under the sample-count rule, and small summary helpers.

A percentile is reported only when at least ``MIN_BEYOND`` samples lie
beyond it: with nearest-rank percentiles over ``n`` samples, the value at
percentile ``q`` sits at rank ``ceil(q/100 * n)`` and ``n - rank``
samples lie beyond it.  Every timing the benchmark prints carries its
sample count next to it.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10

#: Percentiles considered when picking the highest supported one.
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def rank(n: int, q: float) -> int:
    """1-based nearest-rank position of percentile ``q`` among ``n``."""
    if n < 1:
        raise ValueError("no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    return max(1, math.ceil(q / 100.0 * n - 1e-9))


def beyond(n: int, q: float) -> int:
    """Samples lying beyond percentile ``q`` of ``n`` samples."""
    return n - rank(n, q)


def supported(n: int, q: float) -> bool:
    """Whether percentile ``q`` of ``n`` samples may be reported."""
    return n >= 1 and beyond(n, q) >= MIN_BEYOND


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` of ``samples``."""
    ordered = sorted(samples)
    return ordered[rank(len(ordered), q) - 1]


def highest_supported(n: int, ladder: Iterable[float] = LADDER) -> Optional[float]:
    """The highest percentile in ``ladder`` with enough samples beyond it."""
    best = None
    for q in ladder:
        if supported(n, q):
            best = q
    return best


def describe(samples: Sequence[float]) -> Dict[str, object]:
    """Median plus every supported ladder percentile, with the count.

    The median is always given (it is the headline statistic of a run);
    higher percentiles appear only when the sample-count rule allows.
    """
    n = len(samples)
    summary: Dict[str, object] = {"n": n}
    if not n:
        return summary
    summary["median"] = statistics.median(samples)
    for q in LADDER[1:]:
        if supported(n, q):
            summary[f"p{q:g}"] = percentile(samples, q)
    return summary


def quartile_spread(values: List[float]) -> float:
    """(Q3 - Q1) / median, the run-to-run spread the bounds are set on."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("inf")
