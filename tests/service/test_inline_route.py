"""Where ``POST /v1/exchange`` runs a cache miss: the event loop or the pool.

A small request the id-space chase takes runs on the server's event loop
when its source and its estimated answer are both small
(:data:`repro.service.aserve.INLINE_MAX_FACTS`); every other request goes
to the worker pool.  The two routes must give the same reply, the inline
one must not touch the pool, and every reason to decline must still send
the request to the pool.
"""

import asyncio
import json
import re

import pytest

from repro import ExchangeOptions, ExchangeService
from repro.logic.parser import parse_rule
from repro.mapping import SchemaMapping
from repro.mapping.dependencies import TargetTgd
from repro.obs import collecting, tracing
from repro.relational import instance, relation, schema
from repro.relational.serialization import instance_to_json
from repro.service import aserve
from repro.service.aserve import ExchangeServer
from repro.service.faults import FaultPlan, fault_injection

E1_SRC = schema(relation("Emp", "name"))
E1_TGT = schema(relation("Manager", "emp", "mgr"))
JOIN_SRC = schema(relation("Emp", "name", "dept"), relation("Dept", "dept", "head"))
JOIN_TGT = schema(relation("Office", "name", "head", "room"))


def e1_mapping():
    return SchemaMapping.parse(E1_SRC, E1_TGT, "Emp(x) -> exists y . Manager(x, y)")


def e1_source(rows):
    return instance(E1_SRC, {"Emp": [[f"e{i}"] for i in range(rows)]})


def join_mapping():
    return SchemaMapping.parse(
        JOIN_SRC, JOIN_TGT, "Emp(n, d), Dept(d, h) -> exists m . Office(n, h, m)"
    )


def join_source(employees=40, depts=5):
    return instance(
        JOIN_SRC,
        {
            "Emp": [[f"e{i}", f"d{i % depts}"] for i in range(employees)],
            "Dept": [[f"d{j}", f"h{j}"] for j in range(depts)],
        },
    )


CASES = {"e1": (e1_mapping, lambda: e1_source(60)), "join": (join_mapping, join_source)}


async def _post_raw(port, body):
    """One POST; the raw reply body after the status line and headers.

    A streamed body comes back de-chunked: chunk sizes follow the
    length of the ``elapsed_ms`` figure, which is a clock.
    """
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


def served(service, bodies):
    """Each body POSTed once to a fresh server; (raw replies, counters, spans)."""

    async def drive():
        server = ExchangeServer(service, host="127.0.0.1", port=0)
        await server.start()
        try:
            return [await _post_raw(server.port, body) for body in bodies]
        finally:
            await server.aclose()

    with collecting() as registry, tracing() as tracer:
        replies = asyncio.run(drive())
    spans = [span for span in tracer.spans() if span.name == "service.http"]
    return replies, registry.snapshot()["counters"], spans


def _without_timing(raw):
    """*raw* with its ``elapsed_ms`` figure blanked: the one field that is a clock."""
    return re.sub(rb'"elapsed_ms": ?[0-9.e-]+', b'"elapsed_ms":0', raw)


class TestSameReply:
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("stream", [True, False])
    def test_inline_and_pool_replies_are_byte_identical(
        self, monkeypatch, case, stream
    ):
        make_mapping, make_source = CASES[case]
        body = {"source": instance_to_json(make_source()), "stream": stream}
        with ExchangeService(make_mapping()) as service:
            (inline,), counters, _ = served(service, [body])
            assert counters["service.http.inline"] == 1
            monkeypatch.setattr(aserve, "INLINE_MAX_FACTS", 0)
            (pooled,), counters, _ = served(service, [body])
            assert "service.http.inline" not in counters
        assert _without_timing(inline) == _without_timing(pooled)


class TestInlineSkipsThePool:
    def test_small_request_completes_while_the_pool_crashes(self):
        body = {"source": instance_to_json(e1_source(20)), "stream": False}
        options = ExchangeOptions(workers=2)
        with fault_injection(FaultPlan.pool_crashes(10)):
            with ExchangeService(e1_mapping(), options) as service:
                (raw,), counters, (span,) = served(service, [body])
        reply = json.loads(raw)
        assert reply["status"] == "complete"
        assert reply["fact_count"] == 20
        assert counters["service.http.inline"] == 1
        assert "service.retries" not in counters
        assert "exchange.pool.failures" not in counters
        assert span.attributes["inline"] is True


def _target_tgd_mapping():
    source = schema(relation("E", "n", "d"))
    target = schema(relation("Emp", "n", "d"), relation("Dept", "d"))
    rule = parse_rule("Emp(x, d) -> Dept(d)")
    return SchemaMapping.parse(
        source, target, "E(x, d) -> Emp(x, d)", [TargetTgd(rule.lhs, rule.branches[0][1])]
    ), instance(source, {"E": [[f"e{i}", f"d{i % 3}"] for i in range(6)]})


class TestDeclinedRequestsTakeThePool:
    def assert_pooled(self, mapping, bodies, options=None):
        with ExchangeService(mapping, options) as service:
            replies, counters, spans = served(service, bodies)
        assert "service.http.inline" not in counters
        assert [span.attributes["inline"] for span in spans] == [False] * len(bodies)
        return [json.loads(raw) for raw in replies]

    def test_source_at_the_constant_runs_inline(self):
        body = {
            "source": instance_to_json(e1_source(aserve.INLINE_MAX_FACTS)),
            "stream": False,
        }
        with ExchangeService(e1_mapping()) as service:
            _, counters, _ = served(service, [body])
        assert counters["service.http.inline"] == 1

    def test_e1_request_of_100_rows_runs_inline(self):
        source = e1_source(100)
        assert aserve.estimated_target_facts(e1_mapping(), source) == 100
        body = {"source": instance_to_json(source), "stream": False}
        with ExchangeService(e1_mapping()) as service:
            _, counters, (span,) = served(service, [body])
        assert counters["service.http.inline"] == 1
        assert span.attributes["inline"] is True

    def test_cross_product_above_the_constant(self):
        # A small source whose answer is not: 40 + 40 facts, 1,600 out.
        mapping = SchemaMapping.parse(
            schema(relation("A", "x"), relation("B", "y")),
            schema(relation("P", "x", "y")),
            "A(x), B(y) -> P(x, y)",
        )
        source = instance(
            mapping.source,
            {"A": [[f"a{i}"] for i in range(40)], "B": [[f"b{i}"] for i in range(40)]},
        )
        assert source.size() <= aserve.INLINE_MAX_FACTS
        assert aserve.estimated_target_facts(mapping, source) == 1600
        body = {"source": instance_to_json(source), "stream": False}
        (reply,) = self.assert_pooled(mapping, [body])
        assert reply["fact_count"] == 1600

    def test_source_above_the_constant(self):
        rows = aserve.INLINE_MAX_FACTS + 1
        body = {"source": instance_to_json(e1_source(rows)), "stream": False}
        (reply,) = self.assert_pooled(e1_mapping(), [body])
        assert reply["fact_count"] == rows

    @pytest.mark.parametrize(
        "option", [{"deadline": 60.0}, {"max_facts": 10_000}, {"provenance": True}]
    )
    def test_budget_or_lineage(self, option):
        body = {
            "source": instance_to_json(e1_source(8)),
            "options": option,
            "stream": False,
        }
        (reply,) = self.assert_pooled(e1_mapping(), [body])
        assert reply["status"] == "complete"

    def test_sqlite_backend(self):
        body = {"source": instance_to_json(e1_source(8)), "stream": False}
        (reply,) = self.assert_pooled(
            e1_mapping(), [body], ExchangeOptions(backend="sqlite")
        )
        assert reply["fact_count"] == 8

    def test_target_dependencies(self):
        mapping, source = _target_tgd_mapping()
        body = {"source": instance_to_json(source), "stream": False}
        (reply,) = self.assert_pooled(mapping, [body])
        assert reply["fact_count"] == 9

    def test_resumption_token(self):
        mapping, source = _target_tgd_mapping()
        with ExchangeService(mapping) as service:
            partial = service.exchange(
                source, options=ExchangeOptions(max_facts=7)
            )
        assert partial.token.resumable_in_place
        body = {
            "source": instance_to_json(source),
            "token": partial.token.as_dict(),
            "stream": False,
        }
        (reply,) = self.assert_pooled(mapping, [body])
        assert reply["status"] == "complete"
        assert reply["fact_count"] == 9

    def test_partial_instance_takes_the_pool_without_target_dependencies(self):
        # Only target-dependency tokens resume in place, so the test above
        # also declines for its mapping.  A token that claims that phase
        # over an E1 mapping isolates the resumption check.
        source = e1_source(8)
        with ExchangeService(e1_mapping()) as service:
            partial = service.exchange(source, options=ExchangeOptions(max_facts=3))
        token = {**partial.token.as_dict(), "phase": "target_dependencies"}
        body = {"source": instance_to_json(source), "token": token, "stream": False}
        (reply,) = self.assert_pooled(e1_mapping(), [body])
        assert reply["fact_count"] == partial.facts.size()

    def test_a_token_that_reruns_from_the_source_runs_inline(self):
        # A token from the st-tgd phase carries no partial instance: its
        # continuation is a fresh, unbudgeted exchange of the source.
        source = e1_source(8)
        with ExchangeService(e1_mapping()) as service:
            partial = service.exchange(source, options=ExchangeOptions(max_facts=3))
            assert not partial.token.resumable_in_place
            body = {
                "source": instance_to_json(source),
                "token": partial.token.as_dict(),
                "stream": False,
            }
            (raw,), counters, _ = served(service, [body])
        assert json.loads(raw)["status"] == "complete"
        assert counters["service.http.inline"] == 1

    def test_cache_hit_is_neither_route(self):
        body = {"source": instance_to_json(e1_source(8)), "stream": False}
        with ExchangeService(e1_mapping(), ExchangeOptions(cache=4)) as service:
            _, counters, spans = served(service, [body, body])
        assert counters["service.http.inline"] == 1  # the miss only
        assert [span.attributes["inline"] for span in spans] == [True, False]
