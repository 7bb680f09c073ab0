"""End-to-end benchmark of the exchange service: four workloads, one command.

    python3 benchmarks/e2e/run.py --workload serve_small --seed 0 --seconds 20 --trace 0

``--trace 0`` (default) measures the end-to-end metrics with tracing
off; ``--trace 1`` is the separate traced run that prints the per-layer
table.  Without ``--workload`` all four run in turn.  ``--smoke`` runs
tiny inputs for a few seconds (the test suite uses it).  ``--out FILE``
also writes a result file with the shared header; it merges into an
existing file of the same seed and commit.
Every metric prints by name with its unit; the last stdout line is a
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
status is 1 when any request failed or any answer was wrong, 2 when the
checkout has no ``src/repro`` to measure.

Workloads, metrics and the comparison protocol: benchmarks/e2e/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
OUT_DIR = ROOT / ".bench_out"

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "req/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "target_facts_per_s": "facts/s",
    "peak_rss_mb": "MiB",
}
STAGES = [
    "stage.front_ms",
    "stage.prepare_ms",
    "stage.dispatch_ms",
    "stage.compute_ms",
    "stage.collect_ms",
]
PER_LAYER = {
    **{name: "ms" for name in STAGES},
    "stage.residual_ms": "ms",
    "tenancy.admit_ms": "ms",
    "columnar.build_ms": "ms",
    "exec.fingerprint_ms": "ms",
    "compiler.compile_ms": "ms",
    "gc.pause_ms": "ms",
    "trace_overhead_pct": "%",
    "streaming.payload_bytes": "bytes",
    "aserve.request_bytes": "bytes",
    "aserve.response_bytes": "bytes",
    "exec.shards": "count",
    "exec.ship_bytes": "bytes",
    "evaluate.rows_scanned": "count",
    "evaluate.index_probes": "count",
    "evaluate.id_joins": "count",
}
ADDS_UP_WITHIN = 0.05
SETUPS = 5  # cold starts per run; setup_s is their median
TRACED_REQUESTS = 200  # per traced serve run; 40 with --smoke


def e2e_metrics(result: dict) -> dict[str, float]:
    return {
        "setup_s": statistics.median(result["setup_samples_s"]),
        **{name: result[name] for name in END_TO_END if name != "setup_s"},
    }


def layer_metrics(result: dict) -> dict[str, float]:
    """The per-layer metrics; the residual closes the stage sum."""
    stages = result["stages"]
    values = {
        **stages,
        "stage.residual_ms": result["traced_e2e_ms"] - sum(stages[s] for s in STAGES),
        **result["layers"],
        "trace_overhead_pct": result["trace_overhead_pct"],
        **result["counts"],
    }
    return {name: values[name] for name in PER_LAYER}


def span_accounting(result: dict) -> dict[str, float | bool]:
    """Do the spans' self times add up to the traced calls they sit in?"""
    on_path = sum(row["self_ms"] for row in result["spans"].values())
    traced = result["traced_roots_ms"]
    return {
        "self_ms_sum": on_path,
        "traced_ms": traced,
        "adds_up": abs(on_path - traced) <= ADDS_UP_WITHIN * traced,
    }


def run_workload(name: str, args: argparse.Namespace) -> dict:
    from benchmarks.e2e import library, serve
    from benchmarks.e2e.workloads import WORKLOADS

    workload = WORKLOADS[name].smoke() if args.smoke else WORKLOADS[name]
    setups = 1 if args.smoke else SETUPS
    if args.trace:
        if workload.kind == "serve":
            count = 40 if args.smoke else TRACED_REQUESTS
            result = serve.run_traced(ROOT, workload, args.seed, count, OUT_DIR)
        else:
            _, result = library.run(
                ROOT, name, args.seed, args.seconds, "traced", OUT_DIR, 1, args.smoke
            )
        metrics = layer_metrics(result)
        result["span_accounting"] = span_accounting(result)
        units = PER_LAYER
    else:
        if workload.kind == "serve":
            result = serve.run_e2e(ROOT, workload, args.seed, args.seconds, OUT_DIR, setups)
        else:
            setup_samples, child = library.run(
                ROOT, name, args.seed, args.seconds, "e2e", OUT_DIR, setups, args.smoke
            )
            result = {**library.summarize_e2e(workload, child), "setup_samples_s": setup_samples}
        metrics = e2e_metrics(result)
        units = END_TO_END
    line = {
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    return {"line": line, "result": result}


def report(name: str, args: argparse.Namespace, run: dict) -> None:
    line, result = run["line"], run["result"]
    mode = "traced" if args.trace else "end-to-end, tracing off"
    print(f"== {name}  seed={args.seed}  {mode}")
    for metric, entry in line["metrics"].items():
        print(f"  {metric:<26} {entry['value']:>14.4f} {entry['unit']}")
    if args.trace:
        print("  -- module layers (ms per request or call)")
        for module, value in result["modules"].items():
            print(f"  {module:<26} {value:>14.4f} ms")
        accounting = result["span_accounting"]
        print(
            f"  span self times {accounting['self_ms_sum']:.3f} ms of traced "
            f"{accounting['traced_ms']:.3f} ms (adds up: {accounting['adds_up']})"
        )
    else:
        latency = result["detail"]["latency"]
        print(f"  {latency['samples']} latency samples")
        for p in (90, 99):
            support = "" if latency[f"p{p}_supported"] else " (fewer than 10: not supported)"
            print(
                f"  p{p} {latency[f'p{p}_ms']:.4f} ms, "
                f"{latency[f'p{p}_beyond']} samples beyond{support}"
            )
        print(f"  host CPU stolen: {100 * result['detail']['host_steal_share']:.1f}%")
    print(
        f"  attempted {line['attempted']}, failed {line['failed']}, "
        f"wrong answers {result['wrong']}"
    )


def write_out(path: Path, args: argparse.Namespace, runs: dict[str, dict]) -> None:
    from benchmarks.e2e.harness import result_header
    from benchmarks.e2e.library import TRACED_CALLS

    header = result_header(
        ROOT,
        seed=args.seed,
        statistic=(
            "end-to-end: nearest-rank p50 and p90 over the timed window (library "
            "throughput is the inverse median call), setup_s the median of cold "
            "starts; traced: mean ms per request or call"
        ),
        repeats={
            "window_s": args.seconds,
            "setup_cold_starts": 1 if args.smoke else SETUPS,
            "connections": 2,
            "traced_requests": 40 if args.smoke else TRACED_REQUESTS,
            "traced_calls": TRACED_CALLS,
            "smoke": args.smoke,
        },
    )
    data = {"header": header, "workloads": {}}
    if path.is_file():
        previous = json.loads(path.read_text())
        kept = previous.get("header", {})
        if (kept.get("seed"), kept.get("git_sha")) == (header["seed"], header["git_sha"]):
            data["workloads"] = previous.get("workloads", {})
    section = "traced" if args.trace else "end_to_end"
    for name, run in runs.items():
        data["workloads"].setdefault(name, {})[section] = {
            **run["line"],
            "detail": run["result"],
        }
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}; nothing to measure", file=sys.stderr)
        return 2
    # Run from the repository root, not from this directory, so the
    # program's own imports cannot pick up the benchmark's modules.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.e2e.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    names = [args.workload] if args.workload else list(WORKLOADS)
    runs = {}
    for name in names:
        runs[name] = run_workload(name, args)
        report(name, args, runs[name])
    if args.out:
        write_out(args.out, args, runs)
    for run in runs.values():
        print(json.dumps(run["line"]), flush=True)
    bad = any(r["line"]["failed"] or not r["line"]["correct"] for r in runs.values())
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
