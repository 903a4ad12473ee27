"""Trace and metrics export: JSONL on disk, tolerant reload, exact diff.

The trace file format (``repro-trace/1``) mirrors the run journal's
discipline — one JSON object per line, every line fsynced, a torn tail
recoverable — via the shared :mod:`~repro.telemetry.jsonl` machinery:

* line 1: ``{"format": "repro-trace/1", "meta": {...}}``;
* one line per span: ``{"id", "parent", "name", "t0_s", "t1_s",
  "wall_ms", "attrs"}``, in buffer (span-completion) order;
* final line: ``{"end": true, "n_spans": N, "dropped": D}`` — absent when
  the writer died mid-run.

Everything in a span line except ``wall_ms`` is deterministic for a given
seeded run, which is what makes committed golden traces meaningful:
:func:`diff_traces` compares two traces field by field with the
non-deterministic fields stripped, and returns human-actionable mismatch
descriptions instead of a bare boolean.
"""

from __future__ import annotations

import json
from pathlib import Path

from .jsonl import JsonlWriter, scan_jsonl
from .tracer import Span, Tracer

__all__ = [
    "TRACE_FORMAT",
    "span_to_dict",
    "span_from_dict",
    "write_trace",
    "load_trace",
    "Trace",
    "normalize_trace",
    "diff_traces",
    "write_metrics",
]

#: Format tag of the trace header line.
TRACE_FORMAT = "repro-trace/1"

#: Span fields that are *not* deterministic across re-runs and
#: are therefore stripped before any trace comparison.
NONDETERMINISTIC_FIELDS = ("wall_ms",)


def span_to_dict(span: Span) -> dict:
    """JSON-ready dictionary for one span."""
    return {
        "id": span.span_id,
        "parent": span.parent_id,
        "name": span.name,
        "t0_s": span.t0_s,
        "t1_s": span.t1_s,
        "wall_ms": span.wall_ms,
        "attrs": span.attrs,
    }


def span_from_dict(data: dict) -> Span:
    """Inverse of :func:`span_to_dict`."""
    return Span(
        span_id=int(data["id"]),
        parent_id=data.get("parent"),
        name=data["name"],
        t0_s=float(data["t0_s"]),
        t1_s=float(data["t1_s"]),
        wall_ms=float(data.get("wall_ms", 0.0)),
        attrs=dict(data.get("attrs", {})),
    )


def write_trace(
    path: str | Path, tracer: Tracer, meta: dict | None = None
) -> Path:
    """Export a tracer's buffered spans as a durable JSONL trace file."""
    path = Path(path)
    with JsonlWriter(path) as writer:
        writer.write({"format": TRACE_FORMAT, "meta": meta or {}})
        for span in tracer.spans:
            writer.write(span_to_dict(span))
        writer.write(
            {"end": True, "n_spans": tracer.n_spans, "dropped": tracer.dropped}
        )
    return path


class Trace:
    """A reloaded trace: header meta, spans, and completeness."""

    def __init__(self, meta: dict, spans: list[Span], complete: bool, dropped: int = 0):
        self.meta = meta
        self.spans = spans
        #: Whether the end marker was present (the exporting run finished
        #: and nothing was torn off the tail).
        self.complete = complete
        #: Spans the exporting tracer discarded after its buffer filled.
        self.dropped = dropped

    def __len__(self) -> int:
        return len(self.spans)

    def roots(self) -> list[Span]:
        """Top-level spans (usually the single ``run`` span)."""
        return [s for s in self.spans if s.parent_id is None]

    def children(self, span_id: int) -> list[Span]:
        """Direct children of one span, in buffer order."""
        return [s for s in self.spans if s.parent_id == span_id]


def load_trace(path: str | Path) -> Trace:
    """Reload a trace file, dropping any torn tail."""
    path = Path(path)
    records = [record for record, _ in scan_jsonl(path.read_bytes())]
    if not records or records[0].get("format") != TRACE_FORMAT:
        raise ValueError(f"{path}: not a repro trace file")
    meta = dict(records[0].get("meta", {}))
    spans: list[Span] = []
    complete = False
    dropped = 0
    for record in records[1:]:
        if record.get("end"):
            complete = True
            dropped = int(record.get("dropped", 0))
            break
        spans.append(span_from_dict(record))
    return Trace(meta=meta, spans=spans, complete=complete, dropped=dropped)


def normalize_trace(records: list[dict]) -> list[dict]:
    """Strip the non-deterministic fields from span records.

    Takes and returns span dictionaries (see :func:`span_to_dict`); the
    result is what golden files store and what every trace comparison
    operates on.
    """
    normalized = []
    for record in records:
        record = dict(record)
        for fields in NONDETERMINISTIC_FIELDS:
            record.pop(fields, None)
        normalized.append(record)
    return normalized


def _describe(record: dict) -> str:
    return f"span #{record.get('id')} {record.get('name')!r}"


def diff_traces(
    expected: list[dict], actual: list[dict], max_mismatches: int = 10
) -> list[str]:
    """Field-by-field comparison of two normalized span-record lists.

    Returns human-actionable mismatch descriptions (empty when the traces
    agree).  Both inputs should already be normalized via
    :func:`normalize_trace`; comparison is exact — simulated times are
    deterministic, so any drift is a real behaviour change.
    """
    mismatches: list[str] = []
    if len(expected) != len(actual):
        mismatches.append(
            f"span count differs: expected {len(expected)}, got {len(actual)}"
        )
    for i, (exp, act) in enumerate(zip(expected, actual)):
        if exp == act:
            continue
        keys = sorted(set(exp) | set(act))
        for key in keys:
            if exp.get(key) == act.get(key):
                continue
            mismatches.append(
                f"span[{i}] ({_describe(exp)}): field {key!r} expected "
                f"{exp.get(key)!r}, got {act.get(key)!r}"
            )
        if len(mismatches) >= max_mismatches:
            mismatches.append(
                f"... (stopping after {max_mismatches} mismatches)"
            )
            return mismatches
    return mismatches


def write_metrics(
    path: str | Path, snapshot: dict, meta: dict | None = None
) -> Path:
    """Write a metrics snapshot as a single JSON document."""
    path = Path(path)
    payload = {
        "format": "repro-metrics/1",
        "meta": meta or {},
        "metrics": snapshot,
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True), encoding="utf-8")
    return path
