"""A cached answer's reply is written from the fact texts kept on its store.

:func:`~repro.relational.serialization.fact_texts` keeps a store-backed
instance's fact texts on its column store, one tuple per separator
style, so serving a cached solution again encodes nothing.  Hit after
hit, the buffered and NDJSON replies must stay the bytes that
``json.dumps(instance_to_json(...))`` gives for a freshly chased answer.
"""

import asyncio
import json
import re

import pytest

from repro import ExchangeOptions, ExchangeRequest, ExchangeService
from repro.mapping import SchemaMapping, chase
from repro.obs import collecting
from repro.relational import instance, relation, schema
from repro.relational.serialization import (
    fact_texts,
    instance_from_json,
    instance_json_text,
    instance_to_json,
)
from repro.service.aserve import ExchangeServer
from repro.service.streaming import DEFAULT_CHUNK_FACTS, fact_lines

SRC = schema(relation("Emp", "name", "dept"), relation("Dept", "dept", "head"))
TGT = schema(relation("Office", "name", "head", "room"))
MAPPING = SchemaMapping.parse(
    SRC, TGT, "Emp(n, d), Dept(d, h) -> exists m . Office(n, h, m)"
)
SOURCE = instance(
    SRC,
    {
        "Emp": [[f"e{i}", f"d{i % 5}"] for i in range(40)],
        "Dept": [[f"d{j}", f"h{j}"] for j in range(5)],
    },
)
SEPARATORS = [(", ", ": "), (",", ":")]


def solution():
    """A store-backed chase answer, as the service caches it."""
    answer = chase(MAPPING, instance_from_json(instance_to_json(SOURCE))).solution
    assert answer._rels is None
    return answer


def reference_texts(separators):
    """The fact texts, encoded value by value from another copy of the answer.

    Reading an instance's facts builds its value rows, after which it
    is no longer written from its store.
    """
    return tuple(
        json.dumps(fact, separators=separators)
        for fact in instance_to_json(solution())["facts"]
    )


def reference_text(separators):
    return json.dumps(instance_to_json(solution()), separators=separators)


def _without_timing(raw):
    return re.sub(rb'"elapsed_ms": ?[0-9.e-]+', b'"elapsed_ms":0', raw)


def _ndjson(event):
    return json.dumps(event, separators=(",", ":")).encode() + b"\n"


def reference_reply(stream):
    """The reply's bytes, encoded value by value from an uncached answer."""
    with ExchangeService(MAPPING) as service:
        response = service.request(ExchangeRequest(SOURCE, request_id="r"))
    if not stream:
        return json.dumps(response.as_dict()).encode()
    facts = instance_to_json(response.facts)["facts"]
    header = {
        "kind": "header",
        "tenant": response.tenant,
        "request_id": "r",
        "payloads": 1,
        "sharded": False,
    }
    chunks = [
        {"kind": "facts", "shard": -1, "count": len(batch), "facts": batch}
        for batch in (
            facts[i : i + DEFAULT_CHUNK_FACTS]
            for i in range(0, len(facts), DEFAULT_CHUNK_FACTS)
        )
    ]
    events = [header, *chunks, response.summary_dict()]
    return b"".join(map(_ndjson, events))


async def _post_raw(port, body):
    """One POST; the reply body, de-chunked when streamed."""
    payload = json.dumps(body).encode()
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        b"POST /v1/exchange HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(payload)
        + payload
    )
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200"), head
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    if b"chunked" not in head:
        return raw
    body = b""
    while True:
        size, raw = raw.split(b"\r\n", 1)
        if int(size, 16) == 0:
            return body
        body += raw[: int(size, 16)]
        raw = raw[int(size, 16) + 2 :]


def test_cache_hits_reply_with_the_reference_bytes():
    def body(stream):
        return {"source": instance_to_json(SOURCE), "stream": stream, "request_id": "r"}

    # One miss, then two buffered and two NDJSON hits of the same answer.
    bodies = [body(False), body(False), body(False), body(True), body(True)]

    async def drive(service):
        server = ExchangeServer(service, host="127.0.0.1", port=0)
        await server.start()
        try:
            return [await _post_raw(server.port, b) for b in bodies]
        finally:
            await server.aclose()

    with collecting() as registry:
        with ExchangeService(MAPPING, ExchangeOptions(cache=4)) as service:
            replies = asyncio.run(drive(service))
    assert registry.snapshot()["counters"]["exchange.cache.hits"] == 4
    for raw, b in zip(replies, bodies):
        assert _without_timing(raw) == _without_timing(reference_reply(b["stream"]))


@pytest.mark.parametrize("separators", SEPARATORS)
def test_texts_match_json_dumps_and_are_kept(separators):
    answer = solution()
    texts = fact_texts(answer, separators)
    assert fact_texts(answer, separators) is texts
    assert answer._rels is None  # written from the id columns
    assert texts == reference_texts(separators)
    assert instance_json_text(answer, separators) == reference_text(separators)


def test_separator_styles_are_kept_apart():
    answer = solution()
    spaced, compact = (fact_texts(answer, s) for s in SEPARATORS)
    assert spaced != compact
    assert fact_texts(answer, SEPARATORS[0]) is spaced
    assert fact_texts(answer, SEPARATORS[1]) is compact
    assert spaced == reference_texts(SEPARATORS[0])
    assert compact == reference_texts(SEPARATORS[1])


def test_kept_texts_cannot_be_mutated():
    answer = solution()
    texts = fact_texts(answer)
    assert isinstance(texts, tuple)
    with pytest.raises(TypeError):
        texts[0] = "{}"
    assert fact_texts(answer) == reference_texts(SEPARATORS[0])


@pytest.mark.parametrize("encode_first", [True, False])
def test_materialized_rows_still_encode(encode_first):
    answer = solution()
    if encode_first:
        fact_texts(answer)
        b"".join(fact_lines(answer, 7))
    assert answer.rows("Office")  # the instance now reads its value rows
    assert answer._rels is not None
    for separators in SEPARATORS:
        assert fact_texts(answer, separators) == reference_texts(separators)
        assert instance_json_text(answer, separators) == reference_text(separators)
    lines = list(fact_lines(answer, 7))
    facts = [json.loads(line)["facts"] for line in lines]
    assert sum(facts, []) == instance_to_json(solution())["facts"]
