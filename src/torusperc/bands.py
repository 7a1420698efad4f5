"""Acceptance bands, defined once for the acceptance tests and `estimate --check`.

5i    the long-cycle vertex count grows like V^(1/3): slope in 1/3 +/- 0.2
5ii   V^(-1/3)-scaled mean cluster sizes within a factor 3 of each other
5iii  P(cut sum = 0) inside (0.05, 0.999), its Wilson interval clear of 0 and 1
5iv   delta-scaled cut means within a factor 5, over the positive cells
6     ball-boundary means within a factor 3 of each other
"""
from __future__ import annotations

import math

from .estimators import wilson_interval

COUNT_SLOPE = (1 / 3 - 0.2, 1 / 3 + 0.2)          # 5i
CLUSTER_SIZE_FACTOR = 3                          # 5ii
ZERO_CUT_PROB = (0.05, 0.999)                    # 5iii, open interval
CUT_SCALED_FACTOR = 5                            # 5iv
BALL_BOUNDARY_FACTOR = 3                         # 6


def count_slope_in_band(slope: float) -> bool:
    lo, hi = COUNT_SLOPE
    return lo <= slope <= hi


def ratio(values) -> float:
    """max/min of nonnegative means; inf when only the minimum is 0."""
    values = list(values)
    hi, lo = max(values), min(values)
    if lo == 0:
        return 1.0 if hi == 0 else math.inf
    return hi / lo


def positive_ratio(values) -> float:
    """The 5iv ratio: max/min over the positive cells only."""
    return ratio([v for v in values if v > 0])


def zero_cut_in_band(mean: float, replicas: int) -> tuple[bool, float, float]:
    """(in band, Wilson lower, Wilson upper) for one zero-cut probability."""
    lo, hi = wilson_interval(round(mean * replicas), replicas)
    inside = ZERO_CUT_PROB[0] < mean < ZERO_CUT_PROB[1]
    return inside and lo > 0 and hi < 1, lo, hi
