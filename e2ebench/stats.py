"""Summary statistics for the end-to-end benchmark."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence

#: a percentile is reported only when at least this many samples lie
#: above it, so the tail it describes is measured rather than guessed
MIN_BEYOND = 10
#: the tail percentiles :func:`tail_percentiles` considers
TAIL_PERCENTILES = (90, 99, 99.9)


def quartiles(values: Sequence[float]):
    """(q1, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``
    percent of the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(values: Sequence[float], q: float) -> int:
    """How many samples lie strictly above the ``q``-th percentile."""
    cut = percentile(values, q)
    return sum(1 for value in values if value > cut)


def tail_percentiles(values: Sequence[float]) -> Dict[str, float]:
    """``p50`` plus every :data:`TAIL_PERCENTILES` entry with
    ``MIN_BEYOND`` samples beyond it."""
    found = {"p50": statistics.median(values)}
    for q in TAIL_PERCENTILES:
        if beyond(values, q) >= MIN_BEYOND:
            found[f"p{q:g}"] = percentile(values, q)
    return found


def summarize(values: List[float]) -> Dict[str, float]:
    """Median, quartiles, minimum and sample count."""
    q1, q3 = quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "min": min(values),
            "n": len(values)}
