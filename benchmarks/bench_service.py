"""Service overhead: what budgets and the service wrapper cost per request.

The robustness layer must be ~free on the happy path — a budget check is
two comparisons, and the service adds admission control plus one span
around the engine.  This benchmark runs the E1 workload
(``Emp(x) → ∃y Manager(x, y)`` at growing source sizes) three ways:

* ``chase``    — the bare reference chase (the seed's baseline);
* ``engine``   — ``ExchangeEngine.exchange`` (the compiled lens; faster
  than the chase, listed for context);
* ``service``  — ``ExchangeService.exchange`` with a generous budget
  (``deadline=60s``, ``max_facts=10**9``), i.e. every budget check
  taken but never tripped;

and micro-measures the per-call cost of ``Budget.check`` directly.
Without a worker pool the service runs the budget-aware *chase*, so the
overhead gate compares service vs chase (budget checks + admission +
one span); the lens-vs-chase gap is the compiler's business, not ours.
A final stage drives a stream of requests through one service and
aggregates per-request latencies into p50/p95/p99 plus throughput —
the same report ``repro serve-bench`` prints, recorded here so the
serving trajectory is visible per PR.  Results go to
``BENCH_service.json``.

Run::

    PYTHONPATH=src python benchmarks/bench_service.py
    PYTHONPATH=src python benchmarks/bench_service.py --sizes 100 400 --repeat 5
"""

from __future__ import annotations

import argparse
import json
import statistics as pystats
import time
from pathlib import Path

from repro.budget import Budget
from repro.cli import _latency_percentiles
from repro.compiler import ExchangeEngine
from repro.mapping import universal_solution
from repro.options import ExchangeOptions
from repro.relational import instance
from repro.service import ExchangeService
from repro.stats import Statistics
from repro.workloads import emp_manager_scenario


def build_workload(size: int):
    scenario = emp_manager_scenario()
    source = instance(
        scenario.source, {"Emp": [[f"emp{i}"] for i in range(size)]}
    )
    return scenario.mapping, source


def timed(fn, repeat: int) -> float:
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return pystats.median(samples)


def serve_bench(size: int, requests: int) -> dict:
    """Latency distribution of a request stream through one service."""
    mapping, source = build_workload(size)
    options = ExchangeOptions(deadline=60.0, max_facts=10**9)
    latencies = []
    started = time.perf_counter()
    with ExchangeService(
        mapping, options, statistics=Statistics.gather(source)
    ) as service:
        for _ in range(requests):
            begin = time.perf_counter()
            service.exchange(source)
            latencies.append(time.perf_counter() - begin)
    elapsed = time.perf_counter() - started
    return {
        "size": size,
        "requests": requests,
        **_latency_percentiles(latencies),
        "throughput_rps": round(requests / elapsed, 3) if elapsed > 0 else 0.0,
    }


def http_serve_bench(size: int, requests: int, concurrency: int) -> dict:
    """Latency distribution through the full HTTP path under load.

    An in-process asyncio server on an OS-assigned port, *concurrency*
    simultaneous streamed requests over real sockets — the numbers
    include HTTP parsing, admission, pool dispatch and chunked NDJSON
    delivery, i.e. what a client of ``repro serve`` actually sees.
    """
    import asyncio

    from repro.relational.serialization import instance_to_json
    from repro.service.aserve import ExchangeClient, ExchangeServer

    mapping, source = build_workload(size)
    body = {"source": instance_to_json(source), "tenant": "bench", "stream": True}
    latencies: list[float] = []
    errors = 0

    async def run() -> float:
        nonlocal errors
        server = ExchangeServer(service, host="127.0.0.1", port=0)
        await server.start()
        client = ExchangeClient("127.0.0.1", server.port)
        gate = asyncio.Semaphore(concurrency)

        async def one() -> None:
            nonlocal errors
            async with gate:
                begin = time.perf_counter()
                try:
                    events = await client.exchange(dict(body))
                except Exception:
                    errors += 1
                    return
                if events[-1].get("status") != "complete":
                    errors += 1
                    return
                latencies.append(time.perf_counter() - begin)

        begin = time.perf_counter()
        await asyncio.gather(*(one() for _ in range(requests)))
        elapsed = time.perf_counter() - begin
        await server.aclose()
        return elapsed

    with ExchangeService(
        mapping,
        ExchangeOptions(deadline=60.0, max_facts=10**9),
        max_in_flight=max(64, concurrency),
        statistics=Statistics.gather(source),
    ) as service:
        elapsed = asyncio.run(run())
    completed = len(latencies)
    return {
        "size": size,
        "requests": requests,
        "concurrency": concurrency,
        "completed": completed,
        "errors": errors,
        **_latency_percentiles(latencies),
        "throughput_rps": round(completed / elapsed, 3) if elapsed > 0 else 0.0,
    }


def budget_check_cost(calls: int = 200_000) -> float:
    """Median per-call seconds of one armed (but never tripping) check."""
    budget = Budget(deadline=3600.0, max_facts=10**12)
    rounds = []
    for _ in range(5):
        start = time.perf_counter()
        for i in range(calls):
            budget.check(facts=i)
        rounds.append((time.perf_counter() - start) / calls)
    return pystats.median(rounds)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[100, 400, 1600],
        help="E1 source sizes (Emp rows)",
    )
    parser.add_argument(
        "--repeat", type=int, default=7, help="timed repetitions per mode"
    )
    parser.add_argument(
        "--max-overhead-pct", type=float, default=25.0,
        help="fail past this service-vs-chase median overhead",
    )
    parser.add_argument(
        "--bench-requests", type=int, default=40,
        help="requests in the latency-distribution stage",
    )
    parser.add_argument(
        "--http-requests", type=int, default=1000,
        help="requests in the HTTP load stage (0 skips it)",
    )
    parser.add_argument(
        "--http-concurrency", type=int, default=1000,
        help="simultaneous in-flight requests in the HTTP load stage",
    )
    parser.add_argument(
        "--http-size", type=int, default=50,
        help="Emp rows per request in the HTTP load stage",
    )
    parser.add_argument(
        "--out", default="BENCH_service.json", help="result file (JSON)"
    )
    args = parser.parse_args()

    per_check = budget_check_cost()
    print(f"Budget.check ≈ {per_check * 1e9:.0f} ns/call (armed, not tripping)")

    options = ExchangeOptions(deadline=60.0, max_facts=10**9)
    results = []
    for size in args.sizes:
        mapping, source = build_workload(size)
        universal_solution(mapping, source)  # warm-up

        chase_median = timed(
            lambda: universal_solution(mapping, source), args.repeat
        )

        engine = ExchangeEngine.compile(mapping, Statistics.gather(source))
        engine_median = timed(lambda: engine.exchange(source), args.repeat)

        with ExchangeService(
            mapping, options, statistics=Statistics.gather(source)
        ) as service:
            service_median = timed(lambda: service.exchange(source), args.repeat)

        overhead_pct = 100.0 * (service_median / chase_median - 1.0)
        row = {
            "size": size,
            "chase_median_s": round(chase_median, 6),
            "engine_median_s": round(engine_median, 6),
            "service_median_s": round(service_median, 6),
            "service_overhead_pct": round(overhead_pct, 2),
        }
        results.append(row)
        print(
            f"size={size:>6}  chase={chase_median * 1e3:8.2f}ms  "
            f"engine={engine_median * 1e3:8.2f}ms  "
            f"service={service_median * 1e3:8.2f}ms  "
            f"service overhead={overhead_pct:+6.2f}%"
        )

    latency = serve_bench(args.sizes[-1], args.bench_requests)
    print(
        f"serve-bench size={latency['size']} requests={latency['requests']}  "
        f"p50={latency['latency_p50_ms']}ms  p95={latency['latency_p95_ms']}ms  "
        f"p99={latency['latency_p99_ms']}ms  "
        f"throughput={latency['throughput_rps']} req/s"
    )

    http_latency = None
    if args.http_requests:
        http_latency = http_serve_bench(
            args.http_size, args.http_requests, args.http_concurrency
        )
        print(
            f"serve-bench[http] size={http_latency['size']} "
            f"requests={http_latency['requests']} "
            f"concurrency={http_latency['concurrency']}  "
            f"p50={http_latency['latency_p50_ms']}ms  "
            f"p95={http_latency['latency_p95_ms']}ms  "
            f"p99={http_latency['latency_p99_ms']}ms  "
            f"throughput={http_latency['throughput_rps']} req/s  "
            f"errors={http_latency['errors']}"
        )

    # Medians at small sizes are noisy; judge the budget on the largest
    # workload, where fixed per-request costs have been amortized.
    final_overhead = results[-1]["service_overhead_pct"]
    within = final_overhead < args.max_overhead_pct
    report = {
        "benchmark": "service_overhead",
        "workload": "E1 universal solutions via chase/engine/service",
        "repeat": args.repeat,
        "budget_check_cost_s": per_check,
        "results": results,
        "serve_bench": latency,
        "serve_bench_http": http_latency,
        "service_overhead_pct": final_overhead,
        "within_budget": within,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"\nwrote {args.out}; service overhead at size "
        f"{results[-1]['size']} ≈ {final_overhead:+.2f}% "
        f"({'<' if within else '≥'} {args.max_overhead_pct}% budget)"
    )
    return 0 if within else 1


if __name__ == "__main__":
    raise SystemExit(main())
