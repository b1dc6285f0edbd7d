"""Statistics of the end-to-end benchmark: summaries and the compare verdict.

Timings are never trusted from one reading. A timing is reported as a
median plus a tail percentile, and the tail is reported only when at least
ten samples lie beyond it. Ratios to a baseline are averaged with the
geometric mean. Two sets of runs are compared metric by metric against the
bound BENCHMARK.json fixes for that metric.
"""

import math
import statistics

#: Samples that must lie beyond a tail percentile before it is reported.
MIN_BEYOND = 10

#: Share of paired runs the change must win before a gain is claimed.
MIN_WIN_SHARE = 0.9


def median(values):
    """Median of a non-empty sequence (mean of the middle two when even)."""
    return statistics.median(values)


def quartiles(values):
    """First quartile, median and third quartile, as statistics.quantiles
    gives them (its default "exclusive" method); a single value is its own
    quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def nearest_rank(n, q):
    """1-based rank of the nearest-rank q-percentile of n samples."""
    return max(1, math.ceil(q * n - 1e-9))


def samples_beyond(n, q):
    """Samples above the nearest-rank q-percentile of n samples."""
    return n - nearest_rank(n, q)


def tail_percentile(values, q):
    """Nearest-rank q-percentile of values, or None when fewer than
    MIN_BEYOND samples lie beyond it (the percentile is then not reported).
    """
    n = len(values)
    if n == 0 or samples_beyond(n, q) < MIN_BEYOND:
        return None
    return sorted(values)[nearest_rank(n, q) - 1]


def geomean(values):
    """Geometric mean of positive values."""
    if not values or any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def verdict(base, change, better, bound):
    """Compares two sets of runs of one metric on one workload.

    base, change: the metric's values, one per run, paired by position.
    better: "lower" or "higher". bound: the share of the base median by
    which the change may be worse before it counts as a regression.

    Returns one of:
      "worse"      the change median is worse than the base median by more
                   than bound;
      "better"     the change wins at least 9 of 10 pairs and its median is
                   better by more than the base's own quartile spread;
      "unresolved" the base's own spread is wider than bound, so a change
                   within it cannot be told from noise (unless every change
                   run beats every base run, which is "better");
      "same"       none of these: within bound of the base.
    """
    if better not in ("lower", "higher"):
        raise ValueError("better must be 'lower' or 'higher'")
    sign = 1.0 if better == "lower" else -1.0
    mb, mc = median(base), median(change)
    # Positive = the change is worse, as a share of the base median.
    worse_by = sign * (mc - mb) / abs(mb) if mb else sign * (mc - mb)
    spread = relative_spread(base)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    all_better = all(sign * (c - b) < 0 for b in base for c in change)

    if worse_by > bound:
        return "worse"
    if all_better or (pairs and wins >= MIN_WIN_SHARE * len(pairs)
                      and -worse_by > spread):
        return "better"
    if spread > bound:
        return "unresolved"
    return "same"
