"""Run telemetry: tracing + metrics for observable optimization runs.

HyperPower's claims are trajectory claims — fewer samples and less wall
time to the best feasible error — and this package makes those
trajectories *observable*.  It is zero-dependency (stdlib only) and built
around one invariant: every exported quantity except span ``wall_ms`` is
a pure function of the run's seeds, so traces are byte-comparable across
re-runs and can be committed as golden regression fixtures.

* :mod:`~repro.telemetry.tracer` — hierarchical spans on the simulated
  clock (``run > round > {propose > {screen, gp_fit, gp_append,
  acquisition}, trial > {train, measure, retry}}``) in a bounded buffer;
* :mod:`~repro.telemetry.metrics` — counters/gauges/histograms of the
  run's health numbers (cache hit rate, rejections, refit-vs-append,
  retry time, pool occupancy);
* :mod:`~repro.telemetry.export` — durable JSONL traces with torn-tail
  recovery, exact reload, and field-by-field diffing;
* :mod:`~repro.telemetry.jsonl` — the fsync/torn-tail JSONL machinery,
  shared with the crash-safe run journal in :mod:`repro.io`.

The :class:`Telemetry` bundle is what runs accept: pass one to
:meth:`~repro.experiments.setup.ExperimentSetup.run` (CLI:
``--trace-out``/``--metrics-out``) and the driver threads its tracer and
registry through every instrumented layer.  The default everywhere is the
shared no-op pair, leaving untraced runs byte-identical to a build
without this package.
"""

from __future__ import annotations

from .export import (
    TRACE_FORMAT,
    Trace,
    diff_traces,
    load_trace,
    normalize_trace,
    span_from_dict,
    span_to_dict,
    write_metrics,
    write_trace,
)
from .jsonl import JournalWriteError, JsonlWriter, scan_jsonl
from .metrics import (
    NOOP_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NoopMetricsRegistry,
)
from .tracer import NOOP_TRACER, NoopTracer, Span, Tracer

__all__ = [
    "Telemetry",
    "Tracer",
    "NoopTracer",
    "NOOP_TRACER",
    "Span",
    "MetricsRegistry",
    "NoopMetricsRegistry",
    "NOOP_METRICS",
    "Counter",
    "Gauge",
    "Histogram",
    "JournalWriteError",
    "JsonlWriter",
    "scan_jsonl",
    "TRACE_FORMAT",
    "Trace",
    "write_trace",
    "load_trace",
    "normalize_trace",
    "diff_traces",
    "span_to_dict",
    "span_from_dict",
    "write_metrics",
]


class Telemetry:
    """One run's telemetry bundle: a tracer plus a metrics registry.

    Construct one, pass it to a run, then export::

        telemetry = Telemetry()
        result = setup.run("HW-IECI", "hyperpower", max_evaluations=10,
                           telemetry=telemetry)
        write_trace("run.trace.jsonl", telemetry.tracer)
        write_metrics("run.metrics.json", telemetry.metrics.snapshot())

    The tracer's clock is bound by the driver when the run starts, so one
    bundle must not be shared across concurrent runs (sequential reuse
    accumulates spans and metrics across runs, which is occasionally what
    a study wants).
    """

    def __init__(self, max_spans: int = 100_000, clock=None):
        self.tracer = Tracer(clock=clock, max_spans=max_spans)
        self.metrics = MetricsRegistry()

    def snapshot(self) -> dict:
        """JSON-ready summary recorded on ``RunResult.telemetry``."""
        return {
            "metrics": self.metrics.snapshot(),
            "n_spans": self.tracer.n_spans,
            "dropped_spans": self.tracer.dropped,
        }
