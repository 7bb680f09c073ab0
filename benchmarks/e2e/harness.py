"""Shared pieces of the end-to-end benchmark.

* the result header every result file carries (host, cpu_count, python,
  git sha, seed, statistic, repeats);
* timing summaries: nearest-rank percentiles from
  :meth:`repro.obs.metrics.Histogram.percentile`, each stated with the
  sample count behind it and whether enough samples lie beyond it;
* the self-time reducer: a span's duration minus the *union* of its
  children's intervals clipped to the span, so overlapping children
  (worker spans grafted after the fact) and children outside the span
  never drive a self time negative;
* the layer-table builder over a span forest;
* peak resident memory of a process tree, read from ``/proc``.

Standard library plus :mod:`repro.obs` only; importing this module has
no side effects.
"""

from __future__ import annotations

import gc
import os
import platform
import socket
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.obs import Histogram, Span

MIN_BEYOND = 10
"""Samples that must lie beyond a percentile before it is trusted."""


# -- the result header ------------------------------------------------------


def git_sha(root: Path) -> str:
    """The checkout's commit, read from ``.git`` without leaving *root*.

    Benchmark checkouts are often plain file trees; those read
    ``"unknown"``.
    """
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


def result_header(
    root: Path, *, seed: int, statistic: str, repeats: dict[str, Any]
) -> dict[str, Any]:
    """The fields every result file starts with."""
    return {
        "host": socket.gethostname(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "git_sha": git_sha(root),
        "seed": seed,
        "statistic": statistic,
        "repeats": repeats,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


# -- percentiles --------------------------------------------------------------


def percentile(values: Iterable[float], p: float) -> float:
    """Nearest-rank percentile (the one :class:`Histogram` computes)."""
    histogram = Histogram("bench")
    for value in values:
        histogram.observe(value)
    return histogram.percentile(p)


def samples_beyond(count: int, p: float) -> int:
    """How many of *count* samples rank above the nearest-rank *p*-th."""
    if count == 0:
        return 0
    rank = max(1, -(-count * p // 100))
    return count - int(rank)


def timing_summary(seconds: Sequence[float]) -> dict[str, Any]:
    """p50/p90/p99 in ms, each with the samples beyond it and whether
    that is enough (:data:`MIN_BEYOND`) to trust it."""
    summary: dict[str, Any] = {
        "samples": len(seconds),
        "mean_ms": statistics.fmean(seconds) * 1e3 if seconds else 0.0,
    }
    for p in (50, 90, 99):
        beyond = samples_beyond(len(seconds), p)
        summary[f"p{p}_ms"] = percentile(seconds, p) * 1e3
        summary[f"p{p}_beyond"] = beyond
        summary[f"p{p}_supported"] = beyond >= MIN_BEYOND
    return summary


# -- self time ----------------------------------------------------------------


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of *intervals*, each clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        start = max(a, reach)
        if b > start:
            total += b - start
            reach = b
    return total


def span_end(span: Span) -> float:
    return span.end if span.end is not None else span.start + span.duration


def self_time(span: Span) -> float:
    """Duration minus the part of it the children's intervals cover."""
    end = span_end(span)
    return (end - span.start) - covered(
        ((child.start, span_end(child)) for child in span.children),
        span.start,
        end,
    )


def total_ms(roots: Iterable[Span], name: str) -> float:
    """Summed duration of every span called *name*, in ms."""
    return sum(
        (span_end(s) - s.start) * 1e3 for root in roots for s, _ in root.walk() if s.name == name
    )


def layer_table(
    roots: Iterable[Span], *, per: int, skip_below: Iterable[str] = ()
) -> dict[str, dict[str, float]]:
    """Self time per span name, as ms per request over *per* requests.

    Spans below a span named in *skip_below* ran in another process
    (grafted worker spans): they are summed into ``busy_ms`` instead,
    since they are not on the caller's blocking path.
    """
    skip = set(skip_below)
    table: dict[str, dict[str, float]] = {}

    def visit(span: Span, grafted: bool) -> None:
        row = table.setdefault(span.name, {"self_ms": 0.0, "busy_ms": 0.0, "spans": 0})
        row["spans"] += 1
        if grafted:
            row["busy_ms"] += (span_end(span) - span.start) * 1e3 / per
        else:
            row["self_ms"] += self_time(span) * 1e3 / per
        for child in span.children:
            visit(child, grafted or span.name in skip)

    for root in roots:
        visit(root, False)
    return table


def fresh_copy_costs(make: Callable[[Any], Any], keys: Iterable[Any]) -> tuple[float, float]:
    """Mean ms of ``Instance.columnar()`` and ``Instance.fingerprint()``.

    Each call gets its own freshly built instance from ``make(key)``:
    instances memoize both, and callers pay them on fresh sources.
    """
    build, digest = [], []
    for key in keys:
        for method, samples in (("columnar", build), ("fingerprint", digest)):
            instance = make(key)
            began = time.perf_counter()
            getattr(instance, method)()
            samples.append(time.perf_counter() - began)
    return statistics.fmean(build) * 1e3, statistics.fmean(digest) * 1e3


class GcPauses:
    """Cyclic-collector pause time, counted inside :meth:`measuring` blocks."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._started: float | None = None

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.seconds += time.perf_counter() - self._started
            self._started = None

    @contextmanager
    def measuring(self) -> Iterator["GcPauses"]:
        gc.callbacks.append(self)
        try:
            yield self
        finally:
            gc.callbacks.remove(self)
            self._started = None


# -- the host ---------------------------------------------------------------------


def cpu_steal() -> tuple[int, int]:
    """Host CPU ticks stolen by the hypervisor, and all CPU ticks so far."""
    fields = [int(v) for v in Path("/proc/stat").read_text().split()[1:9]]
    return fields[7], sum(fields)


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of CPU time stolen between two :func:`cpu_steal` readings.

    On a shared host this explains runs that read slow for no reason
    in the program.
    """
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total else 0.0


# -- memory -------------------------------------------------------------------


def _ppid(pid: str) -> int | None:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # comm may contain spaces and parentheses; fields follow the last ')'.
    return int(stat.rsplit(")", 1)[1].split()[1])


def descendants(pid: int) -> list[int]:
    """Live descendant process ids of *pid* (from ``/proc``)."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            parent = _ppid(entry)
            if parent is not None:
                children.setdefault(parent, []).append(int(entry))
    found, frontier = [], [pid]
    while frontier:
        kids = children.get(frontier.pop(), [])
        found.extend(kids)
        frontier.extend(kids)
    return found


def vm_hwm_kib(pid: int) -> int:
    """Peak resident set (``VmHWM``) of *pid* in KiB; 0 once it is gone."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(pid: int) -> float:
    """Sum of ``VmHWM`` over *pid* and its live descendants, in MiB."""
    return sum(vm_hwm_kib(p) for p in [pid, *descendants(pid)]) / 1024.0


def is_running(pid: int) -> bool:
    """Whether *pid* exists and is not a zombie."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("State:"):
                return "Z" not in line.split()[1]
    except OSError:
        return False
    return True


def wait_gone(pids: Iterable[int], timeout: float) -> list[int]:
    """Wait until every pid has ended; returns those still running."""
    deadline = time.monotonic() + timeout
    alive = [p for p in pids if is_running(p)]
    while alive and time.monotonic() < deadline:
        time.sleep(0.05)
        alive = [p for p in alive if is_running(p)]
    return alive
