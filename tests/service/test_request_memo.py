"""A byte-identical repeat is answered without decoding its body again.

With a solution cache, :class:`~repro.service.aserve.ExchangeServer`
keeps a bounded LRU from the SHA-256 digest of a body's bytes to the
request that body decoded to.  A repeat must reply with the same bytes
as the first send, count exactly as the memo-free path counts, and
still pass admission; malformed bodies and continuations never enter
the memo, and the memo never outgrows the cache.
"""

import asyncio
import json
import re

import pytest

from repro import ExchangeOptions, ExchangeService, TenantQuota
from repro.mapping import SchemaMapping
from repro.obs import collecting, tracing
from repro.relational import instance, relation, schema
from repro.relational.serialization import instance_to_json
from repro.service.aserve import ExchangeServer

SRC = schema(relation("Emp", "name", "dept"), relation("Dept", "dept", "head"))
TGT = schema(relation("Office", "name", "head", "room"))


def mapping():
    return SchemaMapping.parse(
        SRC, TGT, "Emp(n, d), Dept(d, h) -> exists m . Office(n, h, m)"
    )


def source(employees=30, depts=4):
    return instance(
        SRC,
        {
            "Emp": [[f"e{i}", f"d{i % depts}"] for i in range(employees)],
            "Dept": [[f"d{j}", f"h{j}"] for j in range(depts)],
        },
    )


def body(employees=30, stream=False, **extra):
    return {"source": instance_to_json(source(employees)), "stream": stream, **extra}


def cached(capacity=8, **kwargs):
    return ExchangeService(mapping(), ExchangeOptions(cache=capacity), **kwargs)


async def _post(port, payload):
    """One POST of raw *payload*: ``(status, reply body)``, de-chunked."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        b"POST /v1/exchange HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(payload)
        + payload
    )
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    status = int(head.split()[1])
    if b"chunked" not in head:
        return status, raw
    out = b""
    while True:
        size, raw = raw.split(b"\r\n", 1)
        if int(size, 16) == 0:
            return status, out
        out += raw[: int(size, 16)]
        raw = raw[int(size, 16) + 2 :]


def _encoded(item):
    return item if isinstance(item, bytes) else json.dumps(item).encode()


def served(service, bodies, *, memo=True, during=None):
    """Each body POSTed in turn to one fresh server.

    Returns ``(replies, counters, repeat tags, server)``; *memo* false
    turns the decoded-body memo off, *during* (a callable taking the
    server) runs before each POST.
    """

    async def drive():
        server = ExchangeServer(service, host="127.0.0.1", port=0)
        if not memo:
            server._decoded = None
        await server.start()
        replies = []
        try:
            for item in bodies:
                if during is not None:
                    during(server)
                replies.append(await _post(server.port, _encoded(item)))
        finally:
            await server.aclose()
        return replies, server

    with collecting() as registry, tracing() as tracer:
        replies, server = asyncio.run(drive())
    tags = [
        span.attributes["repeat"]
        for span in tracer.spans()
        if span.name == "service.http"
    ]
    return replies, registry.snapshot()["counters"], tags, server


def _without_timing(raw):
    return re.sub(rb'"elapsed_ms": ?[0-9.e-]+', b'"elapsed_ms":0', raw)


@pytest.mark.parametrize("stream", [False, True], ids=["buffered", "ndjson"])
def test_a_repeat_replies_with_the_first_bytes(stream):
    request = body(stream=stream, request_id="r")
    with cached() as service:
        replies, counters, tags, _ = served(service, [request] * 3)
    assert [status for status, _ in replies] == [200] * 3
    first = _without_timing(replies[0][1])
    assert all(_without_timing(raw) == first for _, raw in replies[1:])
    assert counters["service.http.repeats"] == 2
    assert tags == [False, True, True]


def test_counters_match_the_memo_free_path():
    a, b = body(20), body(25)
    bodies = [a, a, b, a, b, b]
    names = (
        "exchange.cache.hits",
        "exchange.cache.misses",
        "service.requests",
        "service.http.requests",
        "service.http.inline",
    )
    counts = []
    for memo in (True, False):
        with cached() as service:
            replies, counters, _, _ = served(service, bodies, memo=memo)
        counts.append({name: counters.get(name) for name in names})
        assert [status for status, _ in replies] == [200] * len(bodies)
    assert counts[0] == counts[1]
    assert counts[0]["exchange.cache.hits"] == 4


def test_content_equal_bytes_that_differ_still_hit_the_cache():
    first = body()
    reordered = {**first, "source": dict(first["source"])}
    reordered["source"]["facts"] = list(reversed(first["source"]["facts"]))
    assert _encoded(reordered) != _encoded(first)
    with cached() as service:
        replies, counters, tags, _ = served(service, [first, reordered, first])
    assert tags == [False, False, True]
    assert counters["exchange.cache.hits"] == 2
    assert counters["service.http.repeats"] == 1
    assert _without_timing(replies[1][1]) == _without_timing(replies[0][1])


@pytest.mark.parametrize(
    "payload",
    [
        b"{not json",
        json.dumps({"source": {"facts": []}, "nonsense": 1}).encode(),
        json.dumps(
            {"source": {**body()["source"], "facts": [{"relation": "Nope", "row": []}]}}
        ).encode(),
    ],
    ids=["not-json", "unknown-key", "unknown-relation"],
)
def test_a_malformed_body_is_a_400_every_time(payload):
    with cached() as service:
        replies, counters, _, server = served(service, [payload, payload])
        assert service.in_flight == 0
    assert [status for status, _ in replies] == [400, 400]
    assert all(json.loads(raw)["kind"] == "bad-request" for _, raw in replies)
    assert len(server._decoded) == 0
    assert "service.http.repeats" not in counters


def test_a_continuation_is_never_kept():
    src = source()
    with cached() as service:
        partial = service.exchange(src, options=ExchangeOptions(max_facts=3))
        request = {
            "source": instance_to_json(src),
            "token": partial.token.as_dict(),
            "stream": False,
        }
        replies, counters, tags, server = served(service, [request, request])
    assert [json.loads(raw)["status"] for _, raw in replies] == ["complete"] * 2
    assert len(server._decoded) == 0
    assert tags == [False, False]
    assert "service.http.repeats" not in counters


def test_the_memo_is_bounded_by_the_cache_and_evicts_least_recent():
    a, b, c = body(10), body(11), body(12)
    sizes = []
    with cached(capacity=2) as service:
        # a b a(repeat) c(evicts b) b(evicts a) c(repeat)
        replies, counters, tags, server = served(
            service,
            [a, b, a, c, b, c],
            during=lambda server: sizes.append(len(server._decoded)),
        )
    assert [status for status, _ in replies] == [200] * 6
    assert tags == [False, False, True, False, False, True]
    assert counters["service.http.repeats"] == 2
    assert max(sizes + [len(server._decoded)]) == 2
    kept = [request.source.size() for request, _ in server._decoded.values()]
    assert kept == [11 + 4, 12 + 4]  # b, then c: the most recent last


def test_no_cache_no_memo():
    request = body()
    with ExchangeService(mapping()) as service:
        replies, counters, tags, server = served(service, [request, request])
    assert server._decoded is None
    assert [status for status, _ in replies] == [200, 200]
    assert tags == [False, False]
    assert "service.http.repeats" not in counters


def test_a_tenant_at_its_quota_still_gets_429_on_a_repeat():
    request = body(tenant="capped")
    quotas = {"capped": TenantQuota(max_in_flight=1)}
    with cached(max_in_flight=8, quotas=quotas) as service:

        def occupy_the_slot(server):
            if server._decoded:  # the first send has been served
                service.gate.admit("capped", 1)

        replies, counters, tags, _ = served(
            service, [request, request], during=occupy_the_slot
        )
        service.gate.release("capped", 1)
    assert [status for status, _ in replies] == [200, 429]
    assert json.loads(replies[1][1])["reason"] == "tenant-cap"
    assert tags == [False]
    assert "service.http.repeats" not in counters
