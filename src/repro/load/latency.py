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

from typing import Sequence

from .. import probes as _probes
from ..telemetry.metrics import Histogram

__all__ = ["LOAD_BUCKETS", "LatencyRecorder"]

#: Boundaries (simulated seconds) for load latencies: ~geometric from
#: 100µs to 60s. Samples above the last bound land in +Inf.
LOAD_BUCKETS: tuple[float, ...] = (
    1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


class LatencyRecorder(Histogram):
    """A :class:`~repro.telemetry.metrics.Histogram` on the load grid
    whose snapshot carries p50/p95/p99 and whose samples are mirrored to
    the telemetry plane."""

    __slots__ = ()

    def __init__(
        self,
        name: str = "load.latency",
        boundaries: Sequence[float] = LOAD_BUCKETS,
    ):
        super().__init__(name, boundaries)

    def observe(self, seconds: float) -> None:
        Histogram.observe(self, seconds)
        probe = _probes.ACTIVE
        if probe is not None:
            probe.observe(self.name, self.boundaries, seconds)

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
