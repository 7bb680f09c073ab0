"""Nested timed spans: the tracing half of :mod:`repro.obs`.

A :class:`Tracer` records a forest of :class:`Span` objects — one tree
per top-level operation — via the context-manager idiom::

    with tracer.span("chase", variant="naive") as sp:
        with tracer.span("chase.round", round=1):
            ...
        sp.set(facts=42)

The process-global default tracer is a :class:`NoopTracer`, whose
``span`` returns a shared singleton that does nothing, so instrumented
hot paths cost one attribute lookup and one method call when tracing is
disabled.  :func:`enable` swaps in a recording tracer; :func:`tracing`
scopes one around a block and restores the previous tracer afterwards.

The module is dependency-free (standard library only) and imports
nothing from the rest of :mod:`repro`, so every layer may import it
without cycles.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from typing import Any, Iterator

__all__ = [
    "Span",
    "Tracer",
    "NoopTracer",
    "get_tracer",
    "set_tracer",
    "enable",
    "disable",
    "tracing",
]

_ids = itertools.count(1)


class Span:
    """One timed operation: a name, attributes, a duration, children."""

    __slots__ = ("span_id", "name", "attributes", "start", "end", "children")

    def __init__(self, name: str, attributes: dict[str, Any] | None = None) -> None:
        self.span_id = next(_ids)
        self.name = name
        self.attributes: dict[str, Any] = dict(attributes or {})
        self.start: float = time.perf_counter()
        self.end: float | None = None
        self.children: list[Span] = []

    @property
    def duration(self) -> float:
        """Elapsed seconds (up to now if the span is still open)."""
        return (self.end if self.end is not None else time.perf_counter()) - self.start

    @property
    def finished(self) -> bool:
        return self.end is not None

    def set(self, **attributes: Any) -> "Span":
        """Annotate the span mid-flight; returns self for chaining."""
        self.attributes.update(attributes)
        return self

    def finish(self) -> None:
        if self.end is None:
            self.end = time.perf_counter()

    def walk(self, depth: int = 0) -> Iterator[tuple["Span", int]]:
        """Depth-first (span, depth) traversal of this subtree."""
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)

    def __repr__(self) -> str:
        ms = self.duration * 1e3
        return f"Span({self.name!r}, {ms:.3f}ms, {len(self.children)} children)"


class _SpanHandle:
    """Context manager entering/exiting one recorded span."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        self._span.start = time.perf_counter()
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._span.finish()
        if exc_type is not None:
            self._span.attributes.setdefault("error", exc_type.__name__)
        self._tracer._pop(self._span)
        return False


class Tracer:
    """Records spans into a forest; one instance per profiling session."""

    enabled = True

    def __init__(self) -> None:
        self._roots: list[Span] = []
        self._stack: list[Span] = []

    def span(self, name: str, **attributes: Any) -> _SpanHandle:
        """A context manager opening a child of the current span."""
        return _SpanHandle(self, Span(name, attributes))

    @property
    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def annotate(self, **attributes: Any) -> None:
        """Attach attributes to the current span (no-op at top level)."""
        if self._stack:
            self._stack[-1].set(**attributes)

    def spans(self) -> list[Span]:
        """The recorded root spans (the forest)."""
        return list(self._roots)

    def attach(self, span: Span) -> None:
        """Graft an externally built span tree under the current span.

        Worker processes record their own spans; the parent rebuilds
        them (:func:`repro.obs.export.spans_from_records`) and attaches
        them here so the exported trace shows worker-side chases
        stitched under the request that dispatched them.
        """
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self._roots.append(span)

    def reset(self) -> None:
        self._roots.clear()
        self._stack.clear()

    # -- internal ----------------------------------------------------------

    def _push(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self._roots.append(span)
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        # Tolerate mismatched exits (a span leaked across a generator):
        # unwind to the span being closed.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break

    def __repr__(self) -> str:
        return f"Tracer({len(self._roots)} roots)"


class _NoopSpan:
    """Shared do-nothing span/context manager for disabled tracing."""

    __slots__ = ()

    name = "noop"
    attributes: dict[str, Any] = {}
    children: list = []
    duration = 0.0
    finished = True

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attributes: Any) -> "_NoopSpan":
        return self

    def finish(self) -> None:
        pass

    def walk(self, depth: int = 0):
        return iter(())

    def __repr__(self) -> str:
        return "Span(noop)"


_NOOP_SPAN = _NoopSpan()


class NoopTracer(Tracer):
    """A tracer that records nothing — the disabled-by-default state."""

    enabled = False

    def __init__(self) -> None:  # no storage at all
        pass

    def span(self, name: str, **attributes: Any) -> _NoopSpan:  # type: ignore[override]
        return _NOOP_SPAN

    @property
    def current(self) -> None:
        return None

    def annotate(self, **attributes: Any) -> None:
        pass

    def spans(self) -> list[Span]:
        return []

    def attach(self, span: Span) -> None:
        pass

    def reset(self) -> None:
        pass

    def __repr__(self) -> str:
        return "NoopTracer()"


_DEFAULT = NoopTracer()
_tracer: Tracer = _DEFAULT


def get_tracer() -> Tracer:
    """The process-global tracer (a :class:`NoopTracer` unless enabled)."""
    return _tracer


def set_tracer(tracer: Tracer | None) -> Tracer:
    """Install *tracer* globally (``None`` restores the no-op default)."""
    global _tracer
    _tracer = tracer if tracer is not None else _DEFAULT
    return _tracer


def enable() -> Tracer:
    """Install and return a fresh recording tracer."""
    return set_tracer(Tracer())


def disable() -> None:
    """Restore the no-op tracer."""
    set_tracer(None)


@contextmanager
def tracing() -> Iterator[Tracer]:
    """Scope a fresh recording tracer around a block::

        with tracing() as tracer:
            engine.exchange(source)
        print(render_trace(tracer.spans()))
    """
    previous = get_tracer()
    tracer = Tracer()
    set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
