"""Rendering traces and metrics: indented text trees and JSON lines.

The text renderer mirrors the ``show_plan`` idiom of
:mod:`repro.compiler.plan` — an indented tree the mapping designer reads
top to bottom — but for *what the engine did* rather than what it plans
to do.  The JSON-lines form (one span object per line) is the
machine-consumable counterpart the benchmarks parse.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

from .metrics import MetricsRegistry
from .trace import Span, Tracer

__all__ = [
    "format_duration",
    "provenance_records",
    "provenance_to_json_lines",
    "render_trace",
    "render_metrics",
    "span_records",
    "spans_from_records",
    "trace_to_json_lines",
    "write_json_lines",
    "write_provenance_json_lines",
]


def format_duration(seconds: float) -> str:
    """Humanize a duration: 1.23s / 45.6ms / 789µs."""
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.0f}µs"


def _format_attributes(attributes: dict[str, Any]) -> str:
    if not attributes:
        return ""
    inner = ", ".join(f"{k}={v!r}" for k, v in attributes.items())
    return f"  [{inner}]"


def _roots(trace: Tracer | Iterable[Span]) -> list[Span]:
    if isinstance(trace, Tracer):
        return trace.spans()
    return list(trace)


def render_trace(trace: Tracer | Iterable[Span], attributes: bool = True) -> str:
    """Render a trace (tracer or root spans) as an indented text tree.

    ::

        Trace (1 root span)
        ── chase  1.21ms  [variant='naive']
           ── chase.st_tgds  0.98ms  [firings=2]
    """
    roots = _roots(trace)
    lines = [f"Trace ({len(roots)} root span{'s' if len(roots) != 1 else ''})"]
    for root in roots:
        for span, depth in root.walk():
            pad = "   " * depth
            attrs = _format_attributes(span.attributes) if attributes else ""
            lines.append(
                f"{pad}── {span.name}  {format_duration(span.duration)}{attrs}"
            )
    return "\n".join(lines)


def span_records(trace: Tracer | Iterable[Span]) -> Iterator[dict[str, Any]]:
    """Flatten a trace into JSON-serializable per-span records.

    Each record carries ``id``/``parent`` links and a ``depth`` so
    consumers can rebuild the tree or just group by name.
    """
    def emit(span: Span, parent: int | None, depth: int) -> Iterator[dict[str, Any]]:
        yield {
            "id": span.span_id,
            "parent": parent,
            "depth": depth,
            "name": span.name,
            "start": span.start,
            "duration": span.duration,
            "attributes": dict(span.attributes),
        }
        for child in span.children:
            yield from emit(child, span.span_id, depth + 1)

    for root in _roots(trace):
        yield from emit(root, None, 0)


def spans_from_records(records: Iterable[Mapping[str, Any]]) -> list[Span]:
    """Rebuild a span forest from :func:`span_records` output.

    The inverse direction exists for one reason: worker processes record
    their own spans and ship them home as records; the parent rebuilds
    the trees here and grafts them into its trace
    (:meth:`repro.obs.Tracer.attach`) so worker-side chases stitch under
    the request that dispatched them.  Rebuilt spans get fresh ids from this
    process's counter — the ``id``/``parent`` links of the records only
    wire up the tree — so a later export never emits duplicate ids.
    """
    by_record_id: dict[Any, Span] = {}
    roots: list[Span] = []
    for record in records:
        span = Span(record["name"], record.get("attributes"))
        span.start = record.get("start", 0.0)
        span.end = span.start + record.get("duration", 0.0)
        by_record_id[record["id"]] = span
        parent = by_record_id.get(record.get("parent"))
        if parent is not None:
            parent.children.append(span)
        else:
            roots.append(span)
    return roots


def trace_to_json_lines(trace: Tracer | Iterable[Span]) -> str:
    """One JSON object per span, one span per line."""
    return "\n".join(
        json.dumps(record, default=repr) for record in span_records(trace)
    )


def write_json_lines(trace: Tracer | Iterable[Span], path: str | Path) -> int:
    """Write the JSON-lines trace to *path*; returns the span count."""
    text = trace_to_json_lines(trace)
    Path(path).write_text(text + ("\n" if text else ""))
    return sum(1 for _ in span_records(trace))


def render_metrics(registry: MetricsRegistry) -> str:
    """Render a registry as a readable metric summary."""
    lines = ["Metrics"]
    if registry.counters:
        lines.append("── counters:")
        for name, counter in sorted(registry.counters.items()):
            lines.append(f"   {name} = {counter.value}")
    if registry.gauges:
        lines.append("── gauges:")
        for name, gauge in sorted(registry.gauges.items()):
            lines.append(f"   {name} = {gauge.value}")
    if registry.histograms:
        lines.append("── histograms (count / p50 / p95 / p99 / max):")
        for name, histogram in sorted(registry.histograms.items()):
            summary = histogram.summary()
            # Duration-valued histograms are named *.seconds by convention.
            fmt = format_duration if name.endswith(".seconds") else "{:g}".format
            lines.append(
                f"   {name}: n={summary['count']}  "
                f"p50={fmt(summary['p50'])}  "
                f"p95={fmt(summary['p95'])}  "
                f"p99={fmt(summary['p99'])}  "
                f"max={fmt(summary['max'])}"
            )
    if len(lines) == 1:
        lines.append("── (no metrics recorded)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Provenance export
# ---------------------------------------------------------------------------


def provenance_records(log: Any) -> Iterator[dict[str, Any]]:
    """Per-record dicts of a provenance log (duck-typed, no import cycle).

    Accepts anything with a ``record_dicts()`` method — in practice a
    :class:`repro.provenance.ProvenanceLog`; the no-op store exports
    nothing.
    """
    record_dicts = getattr(log, "record_dicts", None)
    if record_dicts is None:
        return
    yield from record_dicts()


def provenance_to_json_lines(log: Any) -> str:
    """One JSON object per derivation/rewrite record, one per line."""
    return "\n".join(
        json.dumps(record, sort_keys=True) for record in provenance_records(log)
    )


def write_provenance_json_lines(log: Any, path: str | Path) -> int:
    """Write the JSON-lines provenance export to *path*; returns the count."""
    text = provenance_to_json_lines(log)
    Path(path).write_text(text + ("\n" if text else ""))
    return sum(1 for _ in provenance_records(log))
