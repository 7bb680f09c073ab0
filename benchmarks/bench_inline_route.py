"""Inline run cost against the pool round trip, by source size.

``repro serve`` answers a cache miss on its event loop when the id-space
chase takes it and the source holds at most
:data:`repro.service.aserve.INLINE_MAX_FACTS` facts; larger requests go
to the worker pool.  This benchmark prints the two costs that constant
trades, per source size, for the E1 mapping (``Emp(x) → ∃y
Manager(x,y)``) and the join mapping (``Emp(n,d), Dept(d,h) → ∃m
Office(n,h,m)``, one Dept row per 20 Emp rows):

* ``inline_ms`` — ``RequestPlan.run()`` in this process: the time the
  event loop is blocked when the request runs inline;
* ``pool_ms`` — ``RequestPlan.payload()`` → ``exchange_payload`` on a
  warm 2-process pool → ``outcome_from_dict``: the request's wall time
  on the pool route;
* ``pool_cpu_ms`` — this process's CPU time on the pool route (packing,
  pickling, unpacking), which the server's process spends either way.

Every repeat decodes a fresh source from JSON, as the server does, so
no column store or fingerprint is reused.  Medians over ``--repeat``.

Run::

    PYTHONPATH=src python benchmarks/bench_inline_route.py
    PYTHONPATH=src python benchmarks/bench_inline_route.py --sizes 100 1000 --repeat 20
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import time
from concurrent.futures import ProcessPoolExecutor

from repro.mapping import SchemaMapping
from repro.relational import instance, relation, schema
from repro.relational.serialization import instance_from_json, instance_to_json
from repro.service import ExchangeRequest, ExchangeService
from repro.service.aserve import INLINE_MAX_FACTS
from repro.service.streaming import exchange_payload, outcome_from_dict

E1_SRC = schema(relation("Emp", "name"))
JOIN_SRC = schema(relation("Emp", "name", "dept"), relation("Dept", "dept", "head"))


def e1(size: int):
    target = schema(relation("Manager", "emp", "mgr"))
    mapping = SchemaMapping.parse(E1_SRC, target, "Emp(x) -> exists y . Manager(x, y)")
    source = instance(E1_SRC, {"Emp": [[f"e{i}"] for i in range(size)]})
    return mapping, source


def join(size: int):
    target = schema(relation("Office", "name", "head", "room"))
    mapping = SchemaMapping.parse(
        JOIN_SRC, target, "Emp(n, d), Dept(d, h) -> exists m . Office(n, h, m)"
    )
    depts = max(1, size // 21)
    employees = size - depts
    source = instance(
        JOIN_SRC,
        {
            "Emp": [[f"e{i}", f"d{i % depts}"] for i in range(employees)],
            "Dept": [[f"d{j}", f"h{j}"] for j in range(depts)],
        },
    )
    return mapping, source


def measure(build, size: int, repeat: int, pool: ProcessPoolExecutor) -> dict:
    mapping, source = build(size)
    wire = instance_to_json(source)
    inline, pooled, pool_cpu = [], [], []
    with ExchangeService(mapping) as service:
        for _ in range(repeat):
            plan = service.plan(ExchangeRequest(instance_from_json(wire)))
            started = time.perf_counter()
            plan.run()
            inline.append(time.perf_counter() - started)
            plan.release()

            plan = service.plan(ExchangeRequest(instance_from_json(wire)))
            started, cpu = time.perf_counter(), time.process_time()
            payload = plan.payload()
            outcome_from_dict(pool.submit(exchange_payload, payload).result())
            pooled.append(time.perf_counter() - started)
            pool_cpu.append(time.process_time() - cpu)
            plan.release()
    return {
        "source_facts": source.size(),
        "inline_ms": round(statistics.median(inline) * 1e3, 3),
        "pool_ms": round(statistics.median(pooled) * 1e3, 3),
        "pool_cpu_ms": round(statistics.median(pool_cpu) * 1e3, 3),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[100, 300, 1000, 3000, 10000]
    )
    parser.add_argument("--repeat", type=int, default=15)
    parser.add_argument("--json", action="store_true", help="print JSON, not a table")
    args = parser.parse_args()

    rows = []
    with ProcessPoolExecutor(max_workers=2) as pool:
        list(pool.map(int, range(4)))  # spawn both workers before timing
        for name, build in (("e1", e1), ("join", join)):
            for size in args.sizes:
                rows.append({"mapping": name, **measure(build, size, args.repeat, pool)})
    header = {
        "benchmark": "inline_route",
        "host": platform.node(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "statistic": f"median of {args.repeat}",
        "inline_max_facts": INLINE_MAX_FACTS,
    }
    if args.json:
        print(json.dumps({**header, "rows": rows}, indent=2))
        return
    print(" ".join(f"{key}={value}" for key, value in header.items()))
    print("| mapping | source facts | inline ms | pool ms | pool CPU ms (server) |")
    print("| --- | --- | --- | --- | --- |")
    for row in rows:
        print(
            f"| {row['mapping']} | {row['source_facts']} | {row['inline_ms']} "
            f"| {row['pool_ms']} | {row['pool_cpu_ms']} |"
        )


if __name__ == "__main__":
    main()
