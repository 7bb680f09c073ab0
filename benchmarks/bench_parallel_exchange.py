"""The fingerprint-keyed solution cache vs a cold exchange.

Measures ``ExchangeService(mapping, ExchangeOptions(cache=…,
backend=…))`` on a clustered join workload (``Emp(n, d), Dept(d, h) →
∃m Office(n, h, m)`` with ``size`` employees spread over ``size //
dept_ratio`` departments) against two cold baselines:

* ``cold_seconds`` / ``hit_speedup``: the value-space chase
  (``universal_solution``; the first cold run fills the cache, the
  rest chase fresh copies);
* ``id_path_seconds`` / ``hit_speedup_vs_id_path``: the same service
  without a cache, ``ExchangeService(mapping,
  ExchangeOptions(backend=…))`` on fresh copies, which is what a cache
  miss costs (the id-space chase when interpreted).

Hits are measured on *fresh equal copies* of the source, so each timed
hit pays the full content-fingerprint cost a request stream would pay.
``--backend sqlite`` runs both services on the SQL backend and
additionally records the backend's bare cold exchange
(``backend_seconds``, informational).

The file keeps its name for continuity: it once also measured
intra-request sharding, which was removed (docs/PERFORMANCE.md,
"Intra-request sharding").

Results go to ``BENCH_parallel.json``.  Check for CI:

* ``--check-cache MIN`` — cache hits must be nonzero and at least
  ``MIN``× faster than the cold value-space chase (exit 1 otherwise).

Run::

    PYTHONPATH=src python benchmarks/bench_parallel_exchange.py
    PYTHONPATH=src python benchmarks/bench_parallel_exchange.py \
        --sizes 1000 10000 --repeat 5 --backend sqlite --check-cache 1.5
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics as pystats
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from benchmarks.e2e.harness import git_sha  # noqa: E402
from repro import ExchangeOptions, ExchangeService  # noqa: E402
from repro.exec import ExchangeCache  # noqa: E402
from repro.mapping import SchemaMapping, universal_solution  # noqa: E402
from repro.relational import instance, relation, schema  # noqa: E402


def build_setting(size: int, dept_ratio: int):
    depts = max(1, size // dept_ratio)
    source_schema = schema(
        relation("Emp", "name", "dept"), relation("Dept", "dept", "head")
    )
    target_schema = schema(relation("Office", "name", "head", "room"))
    mapping = SchemaMapping.parse(
        source_schema,
        target_schema,
        "Emp(n, d), Dept(d, h) -> exists m . Office(n, h, m)",
    )

    def fresh_source():
        return instance(
            source_schema,
            {
                "Emp": [[f"emp{i}", f"d{i % depts}"] for i in range(size)],
                "Dept": [[f"d{j}", f"head{j}"] for j in range(depts)],
            },
        )

    return mapping, fresh_source


def backend_for(mapping, name: str):
    """The ready SQL backend named *name*, or ``None`` for interpreted.

    A mapping the backend declines keeps the bench running without
    ``backend_seconds``, with a note.
    """
    if name == "interpreted":
        return None
    from repro.backends.base import plan_backend

    plan = plan_backend(mapping, ExchangeOptions(backend=name))
    if plan is None or not plan.ready:
        detail = plan.describe() if plan is not None else "nothing to plan"
        print(f"note: {name} backend not usable for this mapping ({detail})")
        return None
    return plan.backend


def timed(fresh_source, repeat: int, *fns) -> list[list[float]]:
    """Each of *fns* timed on *repeat* fresh copies of the source.

    The calls take turns (``fns[0]``, ``fns[1]``, …, then ``fns[0]``
    again), so a slow spell of a shared host falls on every column
    alike: timed one column after the other, 40k-row hits read 85 ms in
    some runs and 120–145 ms in others against a steady id path.
    """
    samples: list[list[float]] = [[] for _ in fns]
    for _ in range(repeat):
        for fn, column in zip(fns, samples):
            copy = fresh_source()
            start = time.perf_counter()
            fn(copy)
            column.append(time.perf_counter() - start)
    return samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[1000, 4000, 10000]
    )
    parser.add_argument("--dept-ratio", type=int, default=20)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--out", default="BENCH_parallel.json")
    parser.add_argument(
        "--backend",
        choices=("interpreted", "sqlite", "duckdb"),
        default="interpreted",
        help="also time this SQL backend's cold exchange (backend_seconds)",
    )
    parser.add_argument(
        "--check-cache",
        type=float,
        metavar="MIN",
        help="require cache hits on every size, each at least MIN x faster "
        "than the cold exchange",
    )
    args = parser.parse_args()

    cache_results = []
    for size in args.sizes:
        mapping, fresh_source = build_setting(size, args.dept_ratio)
        cache = ExchangeCache(capacity=8)
        cached = ExchangeService(
            mapping, ExchangeOptions(cache=cache, backend=args.backend)
        )
        (cold,) = timed(fresh_source, 1, cached.exchange)  # fills the cache
        cold += timed(
            fresh_source,
            args.repeat - 1,
            lambda copy: universal_solution(mapping, copy),
        )[0]
        # each timed hit uses a fresh equal copy: the fingerprint is
        # recomputed, the exchange is not.
        uncached = ExchangeService(mapping, ExchangeOptions(backend=args.backend))
        hits, id_path = timed(
            fresh_source, args.repeat, cached.exchange, uncached.exchange
        )
        hit = pystats.median(hits)
        entry = {
            "size": size,
            "cold_seconds": pystats.median(cold),
            "id_path_seconds": pystats.median(id_path),
            "hit_seconds": hit,
            "hit_speedup": pystats.median(cold) / hit,
            "hit_speedup_vs_id_path": pystats.median(id_path) / hit,
            "cache_hits": cache.hits,
            "cache_misses": cache.misses,
        }
        backend = backend_for(mapping, args.backend)
        if backend is not None:
            entry["backend_seconds"] = pystats.median(
                timed(fresh_source, args.repeat, backend.exchange)[0]
            )
        cache_results.append(entry)
        print(
            f"cache    size={size:>6}: cold {entry['cold_seconds']:.4f}s  "
            f"id path {entry['id_path_seconds']:.4f}s  "
            f"hit {entry['hit_seconds']:.5f}s  ({entry['hit_speedup']:.1f}x "
            f"cold, {entry['hit_speedup_vs_id_path']:.2f}x id path, "
            f"{entry['cache_hits']} hits)"
        )

    payload = {
        "benchmark": "parallel_exchange",
        "description": "fingerprint-keyed solution cache vs a cold exchange "
        "(value-space chase) and vs the uncached service (id path)",
        "host": platform.node(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(ROOT),
        "backend": args.backend,
        "dept_ratio": args.dept_ratio,
        "repeats": args.repeat,
        "statistic": "median over repeats (fresh equal source copies)",
        "cache": cache_results,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out} (cpu_count={os.cpu_count()})")

    failures = []
    if args.check_cache is not None:
        worst = min(cache_results, key=lambda r: r["hit_speedup"])
        if worst["cache_hits"] == 0:
            failures.append("check-cache: no cache hits recorded")
        elif worst["hit_speedup"] < args.check_cache:
            failures.append(
                f"check-cache: hit speedup {worst['hit_speedup']:.1f}x < "
                f"{args.check_cache}x at size {worst['size']}"
            )
        else:
            print(
                f"check-cache ok: ≥{worst['hit_speedup']:.1f}x hit speedup, "
                f"hits on every size"
            )

    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
