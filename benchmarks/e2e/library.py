"""The library workloads: ``ExchangeService.exchange`` in a fresh process.

The parent starts this module as a child process several times; each
child prints ``ready`` once its :class:`ExchangeService` is constructed
(the median spawn-to-ready time is ``setup_s``).  The last child then
generates its seeded source, exchanges it once as warm-up — the
repetition whose answer is checked against the bench's own ``chase`` —
and repeats ``exchange`` on a **fresh** :class:`Instance` per call until
the timed window has passed.  Each source is built, and
``gc.collect()`` runs, outside the timed call: an instance memoizes its
column store and fingerprint, and users pay those on fresh sources.

Run as ``python -m benchmarks.e2e.library --workload W --seed N
--seconds S --mode setup|e2e|traced [--smoke]`` with the repository
root and ``src`` on ``PYTHONPATH``; the last stdout line is a JSON
result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from repro.mapping.chase import chase
from repro.obs import (
    MetricsRegistry,
    Tracer,
    get_registry,
    get_tracer,
    set_registry,
    set_tracer,
    tracing,
    write_json_lines,
)
from repro.relational import Instance
from repro.service import ExchangeService
from repro.service.tenancy import DEFAULT_TENANT

from .harness import (
    GcPauses,
    cpu_steal,
    descendants,
    fresh_copy_costs,
    layer_table,
    peak_rss_mb,
    steal_share,
    timing_summary,
    total_ms,
    wait_gone,
)
from .workloads import (
    WORKLOADS,
    Workload,
    instance_facts,
    library_rows,
    load_mapping,
    reference_digest,
    solution_digest,
)

MIN_CALLS = 3
TRACED_CALLS = 3
CHILD_TIMEOUT_S = 170.0


# -- the child ------------------------------------------------------------------


def _call(service: ExchangeService, source: Instance, expected: int) -> tuple[float, Any, bool]:
    gc.collect()
    began = time.perf_counter()
    result = service.exchange(source)
    seconds = time.perf_counter() - began
    return seconds, result, isinstance(result, Instance) and result.size() == expected


@contextmanager
def observed(tracer: Tracer, registry: MetricsRegistry) -> Iterator[None]:
    """Record into *tracer* and *registry* inside the block only."""
    outer_tracer, outer_registry = get_tracer(), get_registry()
    set_tracer(tracer)
    set_registry(registry)
    try:
        yield
    finally:
        set_tracer(outer_tracer)
        set_registry(outer_registry)


def child(workload: Workload, seed: int, seconds: float, mode: str, out_dir: Path) -> dict:
    mapping = load_mapping(workload)
    if mode == "traced":
        with tracing() as setup_trace:
            service = ExchangeService(mapping, workload.exchange_options())
    else:
        service = ExchangeService(mapping, workload.exchange_options())
    print("ready", flush=True)
    if mode == "setup":
        service.close()
        return {"helpers": descendants(os.getpid())}
    rows = library_rows(workload, seed)

    def fresh() -> Instance:
        return Instance(mapping.source, rows)

    expected = workload.expected_facts
    failed = 0
    try:
        _, first, ok = _call(service, fresh(), expected)
        first_digest = solution_digest(instance_facts(first)) if ok else None
        del first
        if mode == "e2e":
            result = _timed(service, fresh, expected, seconds)
        else:
            result = _traced(service, fresh, expected, setup_trace, out_dir, workload)
        failed = result.pop("failed")
        result["peak_rss_mb"] = peak_rss_mb(os.getpid())
    finally:
        service.close()
    reference = chase(mapping, fresh()).solution
    right = first_digest == reference_digest(instance_facts(reference))
    # Helpers the program started (multiprocessing's resource tracker)
    # outlive this process briefly; the parent waits for them.
    return {
        **result,
        "failed": failed,
        "wrong": 0 if right else 1,
        "helpers": descendants(os.getpid()),
    }


def _timed(service: ExchangeService, fresh, expected: int, seconds: float) -> dict:
    samples, failed = [], 0
    steal = cpu_steal()
    window_start = time.perf_counter()
    while len(samples) < MIN_CALLS or time.perf_counter() - window_start < seconds:
        source = fresh()
        took, result, ok = _call(service, source, expected)
        del result, source
        samples.append(took)
        failed += not ok
    return {
        "samples_s": samples,
        "failed": failed,
        "window_s": time.perf_counter() - window_start,
        "host_steal_share": steal_share(steal, cpu_steal()),
    }


def _traced(service, fresh, expected: int, setup_trace, out_dir: Path, workload) -> dict:
    """Untraced and traced calls, interleaved; the traced calls' layer table.

    The order runs untraced, traced, traced, untraced, … so that neither
    kind always follows the other.
    """
    untraced, failed = [], 0
    tracer, registry, pauses = Tracer(), MetricsRegistry(), GcPauses()
    for index in range(2 * TRACED_CALLS):
        if index % 4 in (1, 2):
            source = fresh()
            gc.collect()
            with observed(tracer, registry), pauses.measuring(), tracer.span("call"):
                result = service.exchange(source)
            ok = isinstance(result, Instance) and result.size() == expected
        else:
            source = fresh()
            took, result, ok = _call(service, source, expected)
            untraced.append(took)
        failed += not ok
        del result, source
    roots = tracer.spans()
    write_json_lines(roots, out_dir / f"{workload.name}.trace.jsonl")
    began = time.perf_counter()
    for _ in range(1000):
        service.gate.admit(DEFAULT_TENANT, 1)
        service.gate.release(DEFAULT_TENANT, 1)
    admit_ms = (time.perf_counter() - began) * 1e3 / 1000
    columnar_ms, fingerprint_ms = fresh_copy_costs(lambda _: fresh(), range(1))

    per = TRACED_CALLS
    spans = layer_table(roots, per=per, skip_below=("exchange.workers",))
    self_ms = lambda name: spans.get(name, {}).get("self_ms", 0.0)  # noqa: E731
    busy_ms = lambda name: spans.get(name, {}).get("busy_ms", 0.0)  # noqa: E731
    snapshot = registry.snapshot()
    histograms, counters = snapshot["histograms"], snapshot["counters"]
    per_call = lambda name, scale=1e3: (  # noqa: E731
        histograms[name]["sum"] * scale / per if name in histograms else 0.0
    )
    # Shards run in parallel in the pool: the slowest one blocks the call.
    critical_ms = statistics.fmean(
        max(
            (shard.duration for s, _ in root.walk() if s.name == "exchange.workers"
             for shard in s.children),
            default=0.0,
        )
        for root in roots
    ) * 1e3
    traced_ms = statistics.fmean(root.duration for root in roots) * 1e3
    untraced_ms = statistics.fmean(untraced) * 1e3
    modules = {
        "call.unattributed_ms": self_ms("call"),
        "service.exchange_ms": self_ms("service.exchange"),
        "exec.partition_ms": self_ms("exchange.partition"),
        "exec.ship_ms": self_ms("exchange.ship"),
        "exec.pool_wait_ms": self_ms("exchange.parallel"),
        "exec.pool_overhead_ms": per_call("exchange.pool.overhead_seconds"),
        "exec.graft_ms": self_ms("exchange.workers"),
        "exec.merge_ms": self_ms("exchange.merge"),
        "chase.critical_ms": critical_ms,
        "chase.worker_busy_ms": busy_ms("chase"),
        "chase.st_tgds_ms": self_ms("chase.st_tgds") + busy_ms("chase.st_tgds"),
        "chase.parent_ms": self_ms("chase") + self_ms("chase.st_tgds"),
        "backend.exchange_ms": self_ms("backend.exchange"),
        **{f"backends.{phase}_ms": per_call(f"backend.{phase}.seconds")
           for phase in ("load", "compile", "execute", "extract")},
    }
    if modules["backend.exchange_ms"]:
        stages = {
            "stage.prepare_ms": modules["backends.load_ms"],
            "stage.dispatch_ms": modules["backends.compile_ms"],
            "stage.compute_ms": modules["backends.execute_ms"],
            "stage.collect_ms": modules["backends.extract_ms"],
        }
    else:
        stages = {
            "stage.prepare_ms": modules["exec.partition_ms"],
            "stage.dispatch_ms": modules["exec.ship_ms"]
            + max(0.0, modules["exec.pool_wait_ms"] - critical_ms),
            "stage.compute_ms": critical_ms + modules["chase.parent_ms"],
            "stage.collect_ms": modules["exec.merge_ms"],
        }
    stages["stage.front_ms"] = modules["call.unattributed_ms"] + modules["service.exchange_ms"]
    return {
        "attempted": 2 * TRACED_CALLS,
        "failed": failed,
        "traced_e2e_ms": traced_ms,
        "traced_roots_ms": traced_ms,
        "untraced_e2e_ms": untraced_ms,
        "trace_overhead_pct": 100.0 * (traced_ms - untraced_ms) / untraced_ms,
        "stages": stages,
        "modules": modules,
        "layers": {
            "tenancy.admit_ms": admit_ms,
            "columnar.build_ms": columnar_ms,
            "exec.fingerprint_ms": fingerprint_ms,
            "compiler.compile_ms": total_ms(setup_trace.spans(), "compile"),
            "gc.pause_ms": pauses.seconds * 1e3 / per,
        },
        "counts": {
            "streaming.payload_bytes": 0,
            "aserve.request_bytes": 0,
            "aserve.response_bytes": 0,
            "exec.shards": per_call("exchange.shards", 1),
            "exec.ship_bytes": per_call("exchange.ship.buffer_bytes", 1),
            "evaluate.rows_scanned": counters.get("evaluate.rows_scanned", 0) / per,
            "evaluate.index_probes": counters.get("evaluate.index_probes", 0) / per,
            "evaluate.id_joins": counters.get("evaluate.id_joins", 0) / per,
        },
        "spans": spans,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "e2e", "traced"), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()
    result = child(workload, args.seed, args.seconds, args.mode, args.out_dir)
    print(json.dumps(result), flush=True)
    return 0


# -- the parent -----------------------------------------------------------------


def _child(root: Path, args: list[str]) -> tuple[float, dict]:
    """Run one child to its end: (spawn-to-``ready`` seconds, its result).

    A child that hangs is killed after :data:`CHILD_TIMEOUT_S`.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root), str(root / "src")]))
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.e2e.library", *args],
        cwd=root,
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        text=True,
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - started
        out = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    lines = out.strip().splitlines()
    if line.strip() != "ready" or proc.returncode != 0 or not lines:
        raise RuntimeError(f"library child failed (exit {proc.returncode}): {line!r}")
    result = json.loads(lines[-1])
    for pid in wait_gone(result.pop("helpers"), timeout=10):
        os.kill(pid, signal.SIGKILL)
    return ready, result


def run(
    root: Path,
    name: str,
    seed: int,
    seconds: float,
    mode: str,
    out_dir: Path,
    setups: int,
    smoke: bool,
) -> tuple[list[float], dict]:
    """(setup samples, the measuring child's result)."""
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--out-dir", str(out_dir)] + (["--smoke"] if smoke else [])
    setup_samples = [_child(root, [*args, "--mode", "setup"])[0] for _ in range(setups - 1)]
    ready, result = _child(root, [*args, "--mode", mode])
    return [*setup_samples, ready], result


def summarize_e2e(workload: Workload, result: dict) -> dict[str, Any]:
    """End-to-end figures of one caller: medians over the timed calls."""
    samples = result["samples_s"]
    latency = timing_summary(samples)
    median_s = latency["p50_ms"] / 1e3
    return {
        "attempted": len(samples),
        "failed": result["failed"],
        "wrong": result["wrong"],
        "throughput_rps": 1.0 / median_s,
        "latency_p50_ms": latency["p50_ms"],
        "latency_p90_ms": latency["p90_ms"],
        "target_facts_per_s": workload.expected_facts / median_s,
        "peak_rss_mb": result["peak_rss_mb"],
        "detail": {
            "load": "one caller, calls back to back, fresh source per call",
            "window_s": result["window_s"],
            "statistic": "median call; throughput is its inverse",
            "latency": latency,
            "call_seconds": samples,
            "host_steal_share": result["host_steal_share"],
        },
    }


if __name__ == "__main__":
    raise SystemExit(main())
