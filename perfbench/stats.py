"""Statistics helpers of the benchmark: medians, quartiles, the tail rule.

Kept free of the benchmark's I/O so test_stats.py can pin them down.
"""

import math
import statistics

# A tail percentile is reported only where at least this many samples lie
# beyond it; fewer would make the "tail" one or two outliers.
TAIL_MIN_BEYOND = 10


def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def mean(values):
    """Arithmetic mean of a non-empty sequence."""
    if not values:
        raise ValueError("mean of no samples")
    return statistics.fmean(values)


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them.

    A single sample is its own quartiles.
    """
    if not values:
        raise ValueError("quartiles of no samples")
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def iqr_share(values):
    """Distance between the first and third quartile as a share of the median.

    None when the median is zero (the share has no base).
    """
    q1, q2, q3 = quartiles(values)
    return ratio(q3 - q1, q2)


def percentile(values, pct):
    """Nearest-rank percentile: the smallest sample with at least pct% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < pct <= 100:
        raise ValueError("percentile out of range: %r" % pct)
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values, min_beyond=TAIL_MIN_BEYOND):
    """The highest percentile with at least `min_beyond` samples beyond it.

    Returns (percentile, value): the sample at 0-based rank n - min_beyond - 1
    of the sorted samples, so exactly `min_beyond` samples are larger in rank,
    and its percentile 100 * (rank + 1) / n. A tail is never below the median:
    with fewer than 2 * min_beyond + 1 samples the median is returned as
    percentile 50 instead.
    """
    if not values:
        raise ValueError("tail of no samples")
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * min_beyond + 1:
        return (50.0, median(ordered))
    rank = n - min_beyond - 1
    return (100.0 * (rank + 1) / n, ordered[rank])


def ratio(num, den):
    """num / den, or None when den is zero (a ratio with no base)."""
    if den == 0:
        return None
    return num / den


def ratio_or_zero(num, den):
    """num / den, or 0.0 when den is zero: for counts where no work means no
    rate (updates per hashed block in an epoch that hashed nothing)."""
    r = ratio(num, den)
    return 0.0 if r is None else r
