"""Median and percentile reducers for the benchmark's timing samples."""

from __future__ import annotations


def percentile(values, pct: float) -> float:
    """Linear-interpolation percentile (numpy's default method).

    ``pct`` lies in [0, 100]; an empty sample is an error.
    """
    xs = sorted(float(v) for v in values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile {pct!r} outside [0, 100]")
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)
