"""Latency histograms and the run-to-run statistics the verdicts use.

A run may settle millions of operations (``invoke_local`` issues one
every few microseconds), so latencies are not stored one by one: memory
would then grow with speed, and ``peak_rss_mb`` would punish a faster
build. :class:`LatencyHistogram` keeps the eight most significant bits
of each nanosecond sample (an HDR-style log-linear grid, under 0.8%
relative bucket width) in a dict whose size is bounded by the grid, not
by the sample count, and interpolates percentiles within a bucket by
rank. Each sample is scaled to the reference CPU's speed as it is
recorded (see :mod:`.clock`).
"""

from __future__ import annotations

import statistics
from typing import Sequence

from .clock import ReferenceClock

__all__ = ["LatencyHistogram", "summarize"]

_MANTISSA_BITS = 8


class LatencyHistogram:
    """Latencies in reference nanoseconds on a log-linear grid;
    percentiles in µs."""

    __slots__ = ("counts", "count", "clock")

    def __init__(self, clock: ReferenceClock) -> None:
        self.counts: dict[int, int] = {}
        self.count = 0
        self.clock = clock

    def record(self, wall_ns: int) -> None:
        ns = int(wall_ns * self.clock.scale)
        shift = ns.bit_length() - _MANTISSA_BITS
        # keys sort in value order: (shift, top eight bits) packed into one int
        key = (shift << _MANTISSA_BITS) | (ns >> shift) if shift > 0 else ns
        counts = self.counts
        counts[key] = counts.get(key, 0) + 1
        self.count += 1

    def percentile_us(self, quantile: float) -> float:
        """The *quantile* (0..1] in microseconds, interpolated by rank
        inside the bucket that holds it."""
        if not self.count:
            return 0.0
        rank = quantile * self.count
        cumulative = 0
        for key in sorted(self.counts):
            bucket = self.counts[key]
            if cumulative + bucket >= rank:
                shift = key >> _MANTISSA_BITS
                if shift:
                    low = (key & ((1 << _MANTISSA_BITS) - 1)) << shift
                    width = 1 << shift
                else:
                    low, width = key, 1
                fraction = (rank - cumulative) / bucket
                return (low + width * fraction) / 1e3
            cumulative += bucket
        raise AssertionError("rank beyond the recorded samples")  # pragma: no cover


def summarize(values: Sequence[float]) -> dict:
    """Median and quartiles as ``statistics.quantiles(values, n=4)``
    gives them; ``spread`` is the interquartile range as a share of the
    median."""
    if len(values) == 1:
        only = float(values[0])
        return {"n": 1, "median": only, "q1": only, "q3": only, "spread": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }
