"""Tests for the asyncio HTTP front end (repro.service.aserve).

A real server on an OS-assigned port, a real client over real sockets —
concurrent streamed exchanges, pagination over HTTP, admission control
as 429s, and fair-share under an overloaded tenant.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import ExchangeOptions, ExchangeService, TenantQuota
from repro.logic.parser import parse_conjunction
from repro.logic.terms import Var
from repro.mapping import SchemaMapping
from repro.mapping.dependencies import Egd
from repro.obs import collecting
from repro.relational import instance, relation, schema
from repro.relational.canonical import canonically_equal
from repro.relational.serialization import instance_from_json, instance_to_json
from repro.service.aserve import (
    ExchangeClient,
    ExchangeClientError,
    ExchangeServer,
)


SRC = schema(relation("Emp", "name"))
TGT = schema(relation("Manager", "emp", "mgr"))


def simple_mapping():
    return SchemaMapping.parse(SRC, TGT, "Emp(x) -> exists y . Manager(x, y)")


def simple_source(rows=6):
    return instance(SRC, {"Emp": [[f"e{i}"] for i in range(rows)]})


def run(coro):
    return asyncio.run(coro)


async def with_server(service, fn, **server_kwargs):
    server = ExchangeServer(service, host="127.0.0.1", port=0, **server_kwargs)
    await server.start()
    try:
        client = ExchangeClient("127.0.0.1", server.port)
        return await fn(client)
    finally:
        await server.aclose()


class TestHealth:
    def test_health_reports_gate_state(self):
        async def check(client):
            return await client.health()

        with ExchangeService(simple_mapping(), max_in_flight=7) as service:
            body = run(with_server(service, check))
        assert body["status"] == "ok"
        assert body["capacity"] == 7
        assert body["in_flight"] == 0


class TestExchangeOverHttp:
    def test_streamed_exchange(self):
        source = simple_source(8)

        async def go(client):
            return await client.exchange(
                {"source": instance_to_json(source), "stream": True}
            )

        with ExchangeService(simple_mapping()) as service:
            events = run(with_server(service, go))
            expected = service.exchange(source)
        assert events[0]["kind"] == "header"
        facts = [f for e in events if e["kind"] == "facts" for f in e["facts"]]
        assert len(facts) == expected.size()
        summary = events[-1]
        assert summary["kind"] == "summary"
        assert summary["status"] == "complete"
        assert summary["fact_count"] == expected.size()

    def test_chunk_size_respected(self):
        source = simple_source(9)

        async def go(client):
            return await client.exchange(
                {"source": instance_to_json(source), "stream": True}
            )

        with ExchangeService(simple_mapping()) as service:
            events = run(with_server(service, go, chunk_facts=4))
        counts = [e["count"] for e in events if e["kind"] == "facts"]
        assert counts == [4, 4, 1]

    def test_buffered_exchange(self):
        source = simple_source(5)

        async def go(client):
            return await client.exchange(
                {"source": instance_to_json(source), "stream": False}
            )

        with ExchangeService(simple_mapping()) as service:
            events = run(with_server(service, go))
            expected = service.exchange(source)
        body = events[0]
        assert body["status"] == "complete"
        got = instance_from_json(body["facts"])
        assert canonically_equal(got, expected)

    def test_concurrent_streams(self):
        sources = [simple_source(4 + i) for i in range(8)]

        async def go(client):
            return await asyncio.gather(
                *(
                    client.exchange(
                        {
                            "source": instance_to_json(s),
                            "request_id": f"r{i}",
                            "stream": True,
                        }
                    )
                    for i, s in enumerate(sources)
                )
            )

        with ExchangeService(simple_mapping(), max_in_flight=16) as service:
            results = run(with_server(service, go))
        for i, events in enumerate(results):
            assert events[0]["request_id"] == f"r{i}"
            assert events[-1]["status"] == "complete"
            assert events[-1]["fact_count"] == 4 + i

    def test_bad_request_is_400(self):
        async def go(client):
            with pytest.raises(ExchangeClientError) as exc:
                await client.exchange({"nonsense": 1})
            return exc.value

        with ExchangeService(simple_mapping()) as service:
            err = run(with_server(service, go))
        assert err.status == 400


SRC_JSON = instance_to_json(simple_source(1))["schema"]

MALFORMED_SOURCES = {
    "unknown relation": {
        "schema": SRC_JSON,
        "facts": [{"relation": "Nope", "row": [{"const": "a"}]}],
    },
    "row not a list": {
        "schema": SRC_JSON,
        "facts": [{"relation": "Emp", "row": 5}],
    },
    "const is a list": {
        "schema": SRC_JSON,
        "facts": [{"relation": "Emp", "row": [{"const": [1, 2]}]}],
    },
    "const is a dict": {
        "schema": SRC_JSON,
        "facts": [{"relation": "Emp", "row": [{"const": {"a": 1}}]}],
    },
    "typed mismatch": {
        "schema": {
            "relations": [
                {"name": "Emp", "attributes": [{"name": "name", "type": "string"}]}
            ]
        },
        "facts": [{"relation": "Emp", "row": [{"const": 7}]}],
    },
    "missing facts": {"schema": SRC_JSON},
}


async def raw_replies(service, body, times):
    """*body* POSTed *times* times; each reply's raw body bytes."""
    server = ExchangeServer(service, host="127.0.0.1", port=0)
    await server.start()
    payload = json.dumps(body).encode()
    replies = []
    try:
        for _ in range(times):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(
                b"POST /v1/exchange HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                % len(payload)
                + payload
            )
            await writer.drain()
            head = (await reader.readuntil(b"\r\n\r\n")).decode("latin-1")
            length = next(
                int(line.split(":")[1])
                for line in head.splitlines()
                if line.lower().startswith("content-length:")
            )
            replies.append(await reader.readexactly(length))
            writer.close()
            await writer.wait_closed()
    finally:
        await server.aclose()
    return replies


class TestJsonOverHttp:
    @pytest.mark.parametrize(
        "source", MALFORMED_SOURCES.values(), ids=MALFORMED_SOURCES.keys()
    )
    def test_malformed_source_is_400(self, source):
        async def go(client):
            with pytest.raises(ExchangeClientError) as exc:
                await client.exchange({"source": source, "stream": False})
            return exc.value

        with ExchangeService(simple_mapping()) as service:
            err = run(with_server(service, go))
            assert service.in_flight == 0
        assert err.status == 400
        assert err.body["kind"] == "bad-request"

    def test_buffered_body_is_the_dumped_response(self):
        body = {"source": instance_to_json(simple_source(7)), "stream": False}
        options = ExchangeOptions(cache=4)
        with ExchangeService(simple_mapping(), options) as service:
            replies = run(raw_replies(service, body, 2))  # a miss, then a hit
            ((solution, _),) = service.engine.cache._entries.values()
        # the cache-hit reply was written without value objects
        assert solution._rels is None
        for raw in replies:
            data = json.loads(raw)
            assert raw == json.dumps(data).encode()  # json.dumps's own bytes
            assert data["facts"] == instance_to_json(solution)


class TestErrorsOverHttp:
    """Failures get a real status line, streamed or buffered."""

    @staticmethod
    def unsatisfiable():
        source = schema(relation("Boss", "n", "b"))
        target = schema(relation("Manager", "emp", "mgr"))
        key = Egd(
            parse_conjunction("Manager(x, y), Manager(x, z)"), Var("y"), Var("z")
        )
        mapping = SchemaMapping.parse(
            source, target, "Boss(x, b) -> Manager(x, b)", [key]
        )
        body = instance(source, {"Boss": [["ann", "mona"], ["ann", "rita"]]})
        return mapping, instance_to_json(body)

    @pytest.mark.parametrize("stream", [True, False])
    def test_unsatisfiable_mapping_is_422(self, stream):
        mapping, source_json = self.unsatisfiable()

        async def go(client):
            with pytest.raises(ExchangeClientError) as exc:
                await client.exchange({"source": source_json, "stream": stream})
            return exc.value

        with ExchangeService(mapping) as service:
            err = run(with_server(service, go))
            assert service.in_flight == 0
        assert err.status == 422
        assert err.body["kind"] == "unsatisfiable"


class TestPoolRecovery:
    @pytest.mark.usefixtures("pool_only")
    def test_killed_worker_does_not_break_later_requests(self):
        source = simple_source(6)
        body = {"source": instance_to_json(source)}

        async def go(service):
            server = ExchangeServer(service, host="127.0.0.1", port=0)
            await server.start()
            try:
                client = ExchangeClient("127.0.0.1", server.port)
                await client.exchange({**body, "stream": False})
                # The server dispatches to its own pool (workers=2).
                pool = server.ensure_pool()
                os.kill(next(iter(pool._processes)), signal.SIGKILL)
                await asyncio.sleep(0.2)
                buffered = await client.exchange({**body, "stream": False})
                streamed = await client.exchange({**body, "stream": True})
                return buffered, streamed
            finally:
                await server.aclose()

        options = ExchangeOptions(workers=2)
        with collecting() as registry:
            with ExchangeService(simple_mapping(), options) as service:
                buffered, streamed = run(go(service))
                expected = service.exchange(source)
        assert buffered[0]["status"] == "complete"
        assert canonically_equal(instance_from_json(buffered[0]["facts"]), expected)
        assert streamed[0]["kind"] == "header"
        assert streamed[-1]["status"] == "complete"
        assert streamed[-1]["fact_count"] == expected.size()
        counters = registry.snapshot()["counters"]
        assert counters["exchange.pool.failures.BrokenProcessPool"] == 1
        assert counters["service.retries"] == 1


def _children(pid):
    """Pids whose parent is *pid*, from /proc."""
    out = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
                out.append(int(entry.name))
    return out


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
class TestServeProcess:
    def test_killed_worker_keeps_the_server_up(self):
        # `repro serve` wires SIGTERM into its event loop; a killed
        # worker makes the pool SIGTERM its siblings, which must neither
        # be ignored by them nor reach the server's loop.
        example = Path(__file__).resolve().parents[2] / "examples" / "quickstart"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--schemas", str(example / "schemas.json"),
                "--mapping", str(example / "mapping.tgd"),
                "--port", "0", "--workers", "2",
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            assert "listening on" in line, line
            port = int(line.rsplit(":", 1)[1])
            body = {"source": json.loads((example / "source.json").read_text())}

            async def go():
                client = ExchangeClient("127.0.0.1", port)
                await client.exchange({**body, "stream": False})
                os.kill(_children(proc.pid)[0], signal.SIGKILL)
                await asyncio.sleep(0.5)
                buffered = await client.exchange({**body, "stream": False})
                streamed = await client.exchange({**body, "stream": True})
                return buffered, streamed

            buffered, streamed = run(go())
            assert buffered[0]["status"] == "complete"
            assert streamed[-1]["status"] == "complete"
            assert proc.poll() is None  # still serving
        finally:
            proc.terminate()
            deadline = time.monotonic() + 20
            while proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.05)
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        assert proc.returncode == 0


class TestPaginationOverHttp:
    def test_token_resumes_over_http(self):
        source = simple_source(10)

        async def go(client):
            first = await client.exchange(
                {
                    "source": instance_to_json(source),
                    "options": {"max_facts": 3},
                    "stream": True,
                }
            )
            summary = first[-1]
            assert summary["status"] == "partial"
            assert summary["token"] is not None
            second = await client.exchange(
                {
                    "source": instance_to_json(source),
                    "token": summary["token"],
                    "stream": True,
                }
            )
            return first, second

        with ExchangeService(simple_mapping()) as service:
            first, second = run(with_server(service, go))
            expected = service.exchange(source)
        assert second[-1]["status"] == "complete"
        assert second[-1]["fact_count"] == expected.size()

    def test_mismatched_token_is_400(self):
        source = simple_source(10)

        async def go(client):
            first = await client.exchange(
                {
                    "source": instance_to_json(source),
                    "options": {"max_facts": 3},
                    "stream": True,
                }
            )
            token = first[-1]["token"]
            with pytest.raises(ExchangeClientError) as exc:
                await client.exchange(
                    {
                        "source": instance_to_json(simple_source(3)),
                        "token": token,
                        "stream": True,
                    }
                )
            return exc.value

        with ExchangeService(simple_mapping()) as service:
            err = run(with_server(service, go))
        assert err.status == 400


class TestAdmissionOverHttp:
    def test_overload_is_429_with_tenant_state(self):
        quotas = {"capped": TenantQuota(max_in_flight=1)}

        async def go(client):
            service.gate.admit("capped", 1)  # occupy the only slot
            try:
                with pytest.raises(ExchangeClientError) as exc:
                    await client.exchange(
                        {
                            "source": instance_to_json(simple_source(3)),
                            "tenant": "capped",
                            "stream": True,
                        }
                    )
            finally:
                service.gate.release("capped", 1)
            return exc.value

        with ExchangeService(
            simple_mapping(), max_in_flight=8, quotas=quotas
        ) as service:
            err = run(with_server(service, go))
        assert err.status == 429
        body = err.body
        assert body["reason"] == "tenant-cap"
        assert body["tenant"] == "capped"

    def test_fair_share_protects_quiet_tenant_under_flood(self):
        """Acceptance criterion: a tenant with a configured quota gets
        its share even while another tenant floods the service."""
        quotas = {
            "quiet": TenantQuota(weight=1),
            "noisy": TenantQuota(weight=1),
        }

        async def go(client):
            # noisy saturates everything admission will give it.
            noisy_admitted = 0
            while True:
                try:
                    service.gate.admit("noisy", 1)
                    noisy_admitted += 1
                except Exception:
                    break
            try:
                # quiet's guaranteed share still goes through, over HTTP.
                events = await client.exchange(
                    {
                        "source": instance_to_json(simple_source(4)),
                        "tenant": "quiet",
                        "stream": True,
                    }
                )
            finally:
                service.gate.release("noisy", noisy_admitted)
            return noisy_admitted, events

        with ExchangeService(
            simple_mapping(), max_in_flight=4, quotas=quotas
        ) as service:
            noisy_admitted, events = run(with_server(service, go))
        assert noisy_admitted == 2  # held to its guarantee, not the capacity
        assert events[-1]["status"] == "complete"
