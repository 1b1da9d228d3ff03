"""Order statistics for benchmark samples, and host-speed calibration."""

from __future__ import annotations

import math
import os
import statistics
import time
from typing import Optional, Sequence, Tuple

#: percentiles considered above the median, highest first
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
#: samples a percentile needs beyond it to be worth reporting
TAIL_SAMPLES = 10

#: a typical :func:`host_ref_s` reading on the 2-CPU VM the bounds were
#: fixed on; calibrated times are seconds at that speed
NOMINAL_REF_S = 0.014
#: CPUs sampled by :func:`host_ref_s` at most
MAX_REF_CPUS = 8


def _loop_s() -> float:
    """Best of three timings of a fixed pure-Python loop."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best


def host_ref_s() -> float:
    """How long the reference loop takes on this host right now.

    On a shared VM each virtual CPU flips, independently and every few
    seconds, between a fast and a ~1.4x slower state, moving every
    CPU-bound time with it.  A campaign's workers spread over the CPUs,
    so the loop is timed pinned to each allowed CPU in turn and the
    speeds are averaged (a harmonic mean of the times).  The loop
    touches no code under test: ``NOMINAL_REF_S / host_ref_s()``
    rescales a time measured next to it to the nominal host speed
    without hiding any change to the program.
    """
    if not hasattr(os, "sched_setaffinity"):
        return _loop_s()
    allowed = os.sched_getaffinity(0)
    speeds = []
    try:
        for cpu in sorted(allowed)[:MAX_REF_CPUS]:
            os.sched_setaffinity(0, {cpu})
            speeds.append(1.0 / _loop_s())
    finally:
        os.sched_setaffinity(0, allowed)      # children inherit it
    return len(speeds) / sum(speeds)


def tail_percentile(values: Sequence[float]
                    ) -> Optional[Tuple[float, float]]:
    """The highest percentile with ``TAIL_SAMPLES`` samples above it.

    Returns ``(percentile, value)`` by nearest rank, or ``None`` when even
    the lowest candidate (p75) has fewer samples beyond it, i.e. for
    fewer than 40 samples: only the median is then worth reporting.
    """
    n = len(values)
    ordered = sorted(values)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(round(p / 100.0 * n, 9))   # 1-based nearest rank
        if n - rank >= TAIL_SAMPLES:
            return p, ordered[rank - 1]
    return None


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
