"""Run metrics: counters, gauges and histograms.

A :class:`MetricsRegistry` aggregates the *deterministic* health numbers
of one optimization run — cache hit rates, screening rejections, GP
refit-vs-append counts, retry/backoff time, pool occupancy.  Every value
is derived from simulated quantities (counts and simulated seconds, never
real wall time), so two identically-seeded runs snapshot byte-identical
metrics; real-time diagnostics belong to span ``wall_ms`` fields instead.

The registry is snapshot onto :attr:`~repro.core.result.RunResult.
telemetry` at the end of a traced run and dumpable via the CLI's
``--metrics-out``.  Like the tracer, every instrumented call site holds a
no-op default (:data:`NOOP_METRICS`), so untraced runs skip all
bookkeeping.
"""

from __future__ import annotations

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NoopMetricsRegistry",
    "NOOP_METRICS",
]

#: Default histogram bucket upper bounds (dimensionless; callers pass
#: their own for quantities with natural scales).
DEFAULT_BUCKETS = (0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)


class Counter:
    """A monotonically increasing count (ints or simulated seconds)."""

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount=1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def snapshot(self) -> dict:
        return {"type": self.kind, "value": self.value}


class Gauge:
    """A point-in-time value (last write wins)."""

    kind = "gauge"

    def __init__(self) -> None:
        self.value = None

    def set(self, value) -> None:
        self.value = value

    def snapshot(self) -> dict:
        return {"type": self.kind, "value": self.value}


class Histogram:
    """A distribution summarised as bucket counts plus count/sum/min/max.

    ``bounds`` are inclusive upper bucket edges; one overflow bucket
    catches everything above the last edge.
    """

    kind = "histogram"

    def __init__(self, bounds=DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be non-empty and sorted")
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None

    def observe(self, value) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    def snapshot(self) -> dict:
        return {
            "type": self.kind,
            "bounds": list(self.bounds),
            "buckets": list(self.bucket_counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Name-keyed metric store with get-or-create accessors."""

    enabled = True

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, factory, kind: str):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = factory()
        elif metric.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {metric.kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, "counter")

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, "gauge")

    def histogram(self, name: str, bounds=DEFAULT_BUCKETS) -> Histogram:
        return self._get(name, lambda: Histogram(bounds), "histogram")

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> dict:
        """JSON-ready ``{name: {"type": ..., ...}}``, sorted by name."""
        return {
            name: self._metrics[name].snapshot()
            for name in sorted(self._metrics)
        }


class _NoopMetric:
    """Shared stand-in accepting every metric write."""

    __slots__ = ()

    def inc(self, amount=1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def observe(self, value) -> None:
        pass


_NOOP_METRIC = _NoopMetric()


class NoopMetricsRegistry:
    """The default registry: accepts every write, stores nothing."""

    enabled = False

    def counter(self, name: str) -> _NoopMetric:
        return _NOOP_METRIC

    def gauge(self, name: str) -> _NoopMetric:
        return _NOOP_METRIC

    def histogram(self, name: str, bounds=DEFAULT_BUCKETS) -> _NoopMetric:
        return _NOOP_METRIC

    def __len__(self) -> int:
        return 0

    def snapshot(self) -> dict:
        return {}


#: Shared no-op registry used wherever no telemetry was requested.
NOOP_METRICS = NoopMetricsRegistry()
