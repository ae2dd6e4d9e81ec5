"""Process-local metrics: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` is the accounting half of the telemetry
plane: instrumentation sites increment named counters (invocations,
coercions, migrations, retries, dedup hits, admission refusals, ...),
set gauges, and observe histogram samples. Instruments are get-or-create
by name, so call sites never need registration ceremony, and the whole
registry renders to one flat mapping via :meth:`MetricsRegistry.snapshot`
— the form the metrics-snapshot exporter writes.

Histograms use *fixed* bucket boundaries chosen at creation (defaults
span 1µs to 10s), so two runs of the same workload produce structurally
identical snapshots that can be diffed numerically. A histogram
estimates percentiles by interpolating within the bucket that holds the
rank; the load plane's :class:`~repro.load.LatencyRecorder` is one.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]

#: Default histogram boundaries (seconds): 1µs .. 10s, roughly
#: logarithmic. A sample larger than every boundary lands in +Inf.
DEFAULT_BUCKETS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> int:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount
        return self.value

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A value that goes up and down (queue depths, live objects)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> float:
        self.value = value
        return self.value

    def inc(self, amount: float = 1.0) -> float:
        self.value += amount
        return self.value

    def dec(self, amount: float = 1.0) -> float:
        self.value -= amount
        return self.value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """Fixed-boundary bucketed distribution with sum, count and
    interpolated percentiles.

    ``counts[i]`` counts samples ``<= boundaries[i]``; the final slot is
    the +Inf bucket. Buckets are cumulative-friendly but stored
    per-bucket (non-cumulative) for readable snapshots.
    """

    __slots__ = ("name", "boundaries", "counts", "total", "count", "min", "max")

    def __init__(self, name: str, boundaries: Sequence[float] = DEFAULT_BUCKETS):
        bounds = tuple(float(b) for b in boundaries)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"histogram {name!r} needs sorted, distinct, non-empty boundaries"
            )
        self.name = name
        self.boundaries = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0.0
        self.count = 0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        self.total += value
        self.count += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self.counts[bisect_left(self.boundaries, value)] += 1

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
            "boundaries": list(self.boundaries),
            "buckets": list(self.counts),
        }

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.name!r}, n={self.count}, "
            f"mean={self.mean:.6g})"
        )


class MetricsRegistry:
    """Named instruments, get-or-create, one flat snapshot."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(
        self, name: str, boundaries: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name, boundaries)
        return histogram

    # -- bulk reads --------------------------------------------------------

    def counter_value(self, name: str) -> int:
        """Read a counter without creating it (0 when absent)."""
        counter = self._counters.get(name)
        return counter.value if counter is not None else 0

    def names(self) -> Iterable[str]:
        yield from sorted(self._counters)
        yield from sorted(self._gauges)
        yield from sorted(self._histograms)

    def snapshot(self) -> dict:
        """Everything, sorted by name: the exporter input."""
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].snapshot()
                for name in sorted(self._histograms)
            },
        }

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry({len(self._counters)} counters, "
            f"{len(self._gauges)} gauges, {len(self._histograms)} histograms)"
        )
