"""A streamed reply's facts are the same bytes whatever the hash seed.

Set iteration order follows ``PYTHONHASHSEED``, so a stream written by
walking a solution's relations as sets changes from one server process
to the next.  Both the NDJSON ``facts`` lines of ``POST /v1/exchange``
and the library's :func:`~repro.service.streaming.fact_chunks` take the
buffered reply's order (:meth:`Instance.facts`) instead.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

SCRIPT = r"""
import asyncio
import json

from repro import ExchangeRequest, ExchangeService
from repro.mapping import SchemaMapping
from repro.relational import instance, relation, schema
from repro.relational.serialization import instance_to_json
from repro.service.aserve import ExchangeClient, ExchangeServer

SRC = schema(relation("Emp", "name", "dept"))
TGT = schema(relation("Office", "name", "dept", "room"))
MAPPING = SchemaMapping.parse(SRC, TGT, "Emp(n, d) -> exists r . Office(n, d, r)")
SOURCE = instance(SRC, {"Emp": [[f"e{i}", f"d{i % 3}"] for i in range(40)]})


def line(event):
    return json.dumps(event, separators=(",", ":"))


async def served(service):
    server = ExchangeServer(service, host="127.0.0.1", port=0, chunk_facts=16)
    await server.start()
    try:
        client = ExchangeClient("127.0.0.1", server.port)
        events = await client.exchange(
            {"source": instance_to_json(SOURCE), "stream": True}
        )
    finally:
        await server.aclose()
    return [line(e) for e in events if e["kind"] == "facts"]


with ExchangeService(MAPPING) as service:
    http = asyncio.run(served(service))
    stream = service.stream(ExchangeRequest(SOURCE), chunk_facts=16)
    library = [line(chunk.as_dict()) for chunk in stream]
print(json.dumps({"http": http, "library": library}))
"""


def facts_lines(seed):
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=str(SRC_DIR))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout)


def test_two_hash_seeds_stream_identical_facts_lines():
    zero, one = facts_lines(0), facts_lines(1)
    assert len(zero["http"]) == 3
    assert zero == one
    # the library's chunks come in the served order
    assert zero["library"] == zero["http"]
