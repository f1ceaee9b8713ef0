"""The benchmark's own arithmetic: order statistics, failure counting and
span self time.  Pure functions, unit-tested in ``perfbench/tests``."""

from __future__ import annotations

import math
import statistics

#: percentiles the report may print beside the median, highest last
TAIL_PERCENTILES = (90.0, 99.0, 99.9)

#: a tail percentile is only reported with this many samples beyond it
MIN_TAIL_SAMPLES = 10


def median(values) -> float:
    """Median of a non-empty sample."""
    values = list(values)
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """The *q*-th percentile (0..100) by linear interpolation between
    closest ranks (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def tail_percentile(n: int) -> float | None:
    """The highest of :data:`TAIL_PERCENTILES` that has at least
    :data:`MIN_TAIL_SAMPLES` of *n* samples beyond it, or None when even
    the lowest has fewer (then only the median is reported)."""
    best = None
    for q in TAIL_PERCENTILES:
        # rounded: 100 - 99.9 is not exactly 0.1 in binary
        if round(n * (100.0 - q) / 100.0, 6) >= MIN_TAIL_SAMPLES:
            best = q
    return best


def summarize(values) -> dict:
    """Median, sample count and the tail percentile the sample supports."""
    values = list(values)
    out = {"p50": median(values), "n": len(values)}
    q = tail_percentile(len(values))
    if q is not None:
        out[f"p{q:g}"] = percentile(values, q)
    return out


def mean(values) -> float:
    """Mean that does not depend on the order of *values* (``fsum`` is
    correctly rounded), so permuted runs report identical figures."""
    values = list(values)
    return math.fsum(values) / len(values) if values else 0.0


def count_failures(operations) -> tuple[int, int]:
    """(attempted, failed) over *operations*: dicts with ``error`` (the
    exception text when the search raised), ``state`` (a service job's
    terminal state, absent in-process) and ``mismatches`` (correctness
    check findings).  An operation fails once, whatever the number of
    reasons."""
    attempted = failed = 0
    for op in operations:
        attempted += 1
        if (
            op.get("error")
            or op.get("state", "complete") != "complete"
            or op.get("mismatches")
        ):
            failed += 1
    return attempted, failed


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def self_times(spans) -> dict:
    """Span id -> self time: the span's duration minus the part of it
    covered by its child spans (those naming it as ``parent``)."""
    children: dict = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    return {
        span["id"]: (span["end"] - span["start"])
        - covered(children.get(span["id"], ()), span["start"], span["end"])
        for span in spans
    }
