"""Hierarchical span tracing on the simulated clock.

A *span* is one timed phase of an optimization run — the run itself, a
driver round, a proposal, a trial, a GP fit.  Spans nest (each records its
parent), carry two time axes, and accumulate in a bounded in-memory
buffer until the run exports them:

* ``t0_s``/``t1_s`` — *simulated* seconds read from the run's
  :class:`~repro.core.clock.SimClock`.  These are deterministic: two
  identically-seeded runs (any worker count) emit byte-identical
  simulated timelines, which is what the golden-run regression suite
  pins.
* ``wall_ms`` — *real* elapsed milliseconds of the instrumented code.
  Diagnostics only; every trace comparison ignores it.

The default tracer everywhere is :data:`NOOP_TRACER`, whose ``span()``
hands back a shared, stateless context manager — no allocation, no clock
reads, no buffer.  Untraced runs therefore execute the exact code paths
they did before instrumentation existed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["Span", "Tracer", "NoopTracer", "NOOP_TRACER"]


@dataclass(frozen=True)
class Span:
    """One completed span."""

    #: Buffer-unique id, allocated in *opening* order (children of a span
    #: carry a higher id than their parent even though they close first).
    span_id: int
    #: Id of the enclosing span; ``None`` for the root.
    parent_id: int | None
    #: Phase name (``'run'``, ``'round'``, ``'trial'``, ``'gp_fit'``, ...).
    name: str
    #: Simulated clock at entry / exit, s.
    t0_s: float
    t1_s: float
    #: Real elapsed time of the instrumented code, ms (non-deterministic;
    #: excluded from every trace comparison).
    wall_ms: float
    #: Deterministic, JSON-ready annotations (status, counts, errors...).
    attrs: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        """Simulated duration, s."""
        return self.t1_s - self.t0_s


class _ActiveSpan:
    """An open span: a context manager that records itself on exit."""

    __slots__ = ("_tracer", "_name", "_attrs", "_id", "_parent", "_t0", "_w0")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def set(self, **attrs) -> None:
        """Attach attributes (typically outcomes known only at exit)."""
        self._attrs.update(attrs)

    def __enter__(self) -> "_ActiveSpan":
        tracer = self._tracer
        self._id = tracer._allocate_id()
        self._parent = tracer._stack[-1] if tracer._stack else None
        tracer._stack.append(self._id)
        self._t0 = tracer.now_s
        self._w0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        tracer = self._tracer
        tracer._stack.pop()
        tracer._append(
            Span(
                span_id=self._id,
                parent_id=self._parent,
                name=self._name,
                t0_s=self._t0,
                t1_s=tracer.now_s,
                wall_ms=(time.perf_counter() - self._w0) * 1e3,
                attrs=self._attrs,
            )
        )


class Tracer:
    """Collects spans into a bounded in-memory buffer.

    Parameters
    ----------
    clock:
        The run's :class:`~repro.core.clock.SimClock`.  May be ``None``
        at construction (the driver binds its objective's clock when the
        run starts); unbound spans read time 0.0.
    max_spans:
        Buffer bound.  Once full, further spans are counted in
        :attr:`dropped` instead of stored — tracing must never turn a
        long run into an out-of-memory failure.
    """

    enabled = True

    def __init__(self, clock=None, max_spans: int = 100_000):
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        self.clock = clock
        self.max_spans = int(max_spans)
        self.spans: list[Span] = []
        #: Spans discarded after the buffer filled.
        self.dropped = 0
        self._stack: list[int] = []
        self._next_id = 0

    @property
    def now_s(self) -> float:
        """Current simulated time (0.0 before a clock is bound)."""
        return 0.0 if self.clock is None else self.clock.now_s

    @property
    def n_spans(self) -> int:
        """Spans captured in the buffer (excludes dropped ones)."""
        return len(self.spans)

    def _allocate_id(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def _append(self, span: Span) -> None:
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
        else:
            self.spans.append(span)

    # -- recording -----------------------------------------------------------

    def span(self, name: str, **attrs) -> _ActiveSpan:
        """Open a span as a context manager; closes at the ``with`` exit.

        The yielded handle's :meth:`~_ActiveSpan.set` attaches further
        attributes before the span closes.
        """
        return _ActiveSpan(self, name, attrs)

    def record(
        self,
        name: str,
        t0_s: float,
        t1_s: float,
        /,
        parent: int | None = None,
        **attrs,
    ) -> int:
        """Record a completed span with explicit simulated times.

        Used to *synthesize* spans whose phases did not run under a live
        ``with`` block — e.g. the per-trial train/measure/retry intervals
        of a pooled batch, which run concurrently on simulated workers and
        are reconstructed from their outcomes.  ``parent`` defaults to the
        innermost open span.  Returns the new span's id so children can
        be attached to it.

        The first three parameters are positional-only so attribute
        names like ``name`` never collide with them; ``parent`` is the
        one reserved attribute key.
        """
        if parent is None and self._stack:
            parent = self._stack[-1]
        span_id = self._allocate_id()
        self._append(
            Span(
                span_id=span_id,
                parent_id=parent,
                name=name,
                t0_s=float(t0_s),
                t1_s=float(t1_s),
                wall_ms=0.0,
                attrs=attrs,
            )
        )
        return span_id


class _NoopSpan:
    """Stateless stand-in for an open span (shared singleton)."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass

    def set(self, **attrs) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class NoopTracer:
    """The default tracer: records nothing, costs (almost) nothing."""

    enabled = False
    clock = None
    spans: tuple = ()
    dropped = 0
    n_spans = 0

    def span(self, name: str, **attrs) -> _NoopSpan:
        return _NOOP_SPAN

    def record(self, name, t0_s, t1_s, /, parent=None, **attrs) -> None:
        return None


#: Shared no-op tracer used wherever no telemetry was requested.
NOOP_TRACER = NoopTracer()
