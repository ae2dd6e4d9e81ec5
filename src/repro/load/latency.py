"""Fixed-bucket latency recording with interpolated percentiles.

A load run observes tens of thousands of latencies; storing them all
would make memory proportional to offered load. A fixed-boundary bucket
grid keeps recording O(1) per sample and O(buckets) in space, at the
cost of percentile *interpolation* rather than exact order statistics —
the standard monitoring trade (Prometheus histograms make the same
one). Boundaries are tuned for simulated RMI latencies: LAN round
trips land around a millisecond, retry/backoff tails reach seconds.

When the telemetry plane is active every sample is mirrored into the
shared :class:`~repro.telemetry.metrics.MetricsRegistry` histogram of
the same name, so load percentiles ride the same export path
(:func:`~repro.telemetry.exporters.metrics_snapshot`) as every other
metric.
"""

from __future__ import annotations

import bisect
from typing import Sequence

from .. import probes as _probes

__all__ = ["LOAD_BUCKETS", "LatencyRecorder"]

#: Boundaries (simulated seconds) for load latencies: ~geometric from
#: 100µs to 60s. Samples above the last bound land in +Inf.
LOAD_BUCKETS: tuple[float, ...] = (
    1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


class LatencyRecorder:
    """Bucketed latency distribution with p50/p95/p99 estimation."""

    __slots__ = ("name", "boundaries", "counts", "total", "count", "min", "max")

    def __init__(
        self,
        name: str = "load.latency",
        boundaries: Sequence[float] = LOAD_BUCKETS,
    ):
        bounds = tuple(float(b) for b in boundaries)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"recorder {name!r} needs sorted, distinct, non-empty boundaries"
            )
        self.name = name
        self.boundaries = bounds
        self.counts = [0] * (len(bounds) + 1)  # final slot = +Inf
        self.total = 0.0
        self.count = 0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, seconds: float) -> None:
        self.total += seconds
        self.count += 1
        if self.min is None or seconds < self.min:
            self.min = seconds
        if self.max is None or seconds > self.max:
            self.max = seconds
        self.counts[bisect.bisect_left(self.boundaries, seconds)] += 1
        probe = _probes.ACTIVE
        if probe is not None:
            probe.observe(self.name, self.boundaries, seconds)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, quantile: float) -> float:
        """Estimate the *quantile* (0..1] by linear interpolation within
        the bucket holding that rank; exact at bucket edges, clamped to
        the observed [min, max] so tiny samples stay honest."""
        if not 0.0 < quantile <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {quantile}")
        if self.count == 0:
            return 0.0
        assert self.min is not None and self.max is not None
        rank = quantile * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if not bucket_count:
                continue
            if cumulative + bucket_count >= rank:
                if index >= len(self.boundaries):  # the +Inf bucket
                    return self.max
                lower = self.boundaries[index - 1] if index else 0.0
                upper = self.boundaries[index]
                fraction = (rank - cumulative) / bucket_count
                estimate = lower + (upper - lower) * fraction
                return min(max(estimate, self.min), self.max)
            cumulative += bucket_count
        return self.max  # pragma: no cover - ranks always land above

    def percentiles(self) -> dict:
        return {
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            **self.percentiles(),
            "boundaries": list(self.boundaries),
            "buckets": list(self.counts),
        }

    def __repr__(self) -> str:
        return (
            f"LatencyRecorder({self.name!r}, n={self.count}, "
            f"p50={self.percentile(0.5):.6g})" if self.count
            else f"LatencyRecorder({self.name!r}, empty)"
        )
