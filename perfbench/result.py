"""What one benchmark run hands back to the command line, plus the
order statistics it reports."""

from __future__ import annotations

import resource
from dataclasses import dataclass, field
from math import exp, lgamma, log
from typing import Optional

from tracing import Tracer


@dataclass
class RunResult:
    """Counts and timings of one run of one workload.

    ``work_units`` counts the oracle's tableau checks.  ``traced_s`` and
    ``paired_untraced_s`` time the same units with and without tracing;
    ``traced_units`` (instances, or oracle checks) normalises the
    per-layer figures.
    ``timed_s`` and ``batch_ms`` are raw; ``scaled_s`` and
    ``scaled_batch_ms`` are the same times on the reference host (see
    ``calibrate``), and ``slowdown`` is the run's mean kernel ratio.
    """

    instances: int = 0
    work_units: int = 0
    timed_s: float = 0.0
    batch_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    skipped: int = 0
    problems: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    scaled_s: float = 0.0
    scaled_batch_ms: list = field(default_factory=list)
    slowdown: float = 1.0
    notes: dict = field(default_factory=dict)
    tracer: Optional[Tracer] = None
    traced_s: float = 0.0
    paired_untraced_s: float = 0.0
    traced_units: int = 0


def finish_scaling(res: RunResult, host) -> None:
    res.scaled_s, res.scaled_batch_ms = host.scaled()
    res.slowdown = host.slowdown


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(values, beyond: int = 10) -> tuple[float, float]:
    """The highest order statistic with at least ``beyond`` samples above
    it, and its percentile; the largest value when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    idx = n - beyond - 1 if n > beyond else n - 1
    return ordered[idx], 100.0 * (idx + 1) / n


def p50(values, steps: int = 20000) -> float:
    """Harrell-Davis estimate of the median: a mean of all order
    statistics, weighted by a Beta((n+1)/2, (n+1)/2) density.

    The sample median of sweep batch times is the mean of two order
    statistics that often sit on either side of a gap between clusters
    (on ``sweep-sparse``, the 100- and 150-request batches), so it jumps
    with the extremes of those clusters.  This estimate moves smoothly.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a = (n + 1) / 2
    log_beta = 2 * lgamma(a) - lgamma(2 * a)
    weights = [0.0] * n
    for i in range(steps):
        x = (i + 0.5) / steps
        weights[min(int(x * n), n - 1)] += exp((a - 1) * (log(x) + log(1 - x)) - log_beta)
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)
