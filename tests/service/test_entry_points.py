"""One request, one answer, whatever the entry point.

Differential tests over {``exchange``, ``request``, ``stream``, HTTP
buffered, HTTP streamed} × {interpreted, sqlite} × {cache off, on}: for
each service configuration every entry point gives ``request()``'s
answer fact for fact, and the two backends are homomorphically
equivalent.  ``ExchangeEngine.exchange`` and ``repro exchange`` (with
and without ``--deadline``) give ``request()``'s answer too.  Both
backends number values by the source's canonical column store, so
every entry point mints the same null labels; canonical equality alone
would pass a Skolem view, as it counts Skolem values as nulls.
The pinned ``Office`` case checks that the sqlite backend's core reaches
every entry point, HTTP included, and the counter tests that every entry
point admits, degrades and counts the same way.
"""

import asyncio
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import ExchangeEngine, ExchangeOptions, ExchangeService, RetryPolicy
from repro.cli import main
from repro.mapping import SchemaMapping
from repro.obs import collecting
from repro.relational import (
    homomorphically_equivalent,
    instance,
    relation,
    schema,
)
from repro.relational.instance import Instance
from repro.relational.serialization import (
    instance_from_json,
    instance_to_json,
    loads_instance,
    schema_to_json,
)
from repro.service import ExchangeRequest
from repro.service.aserve import ExchangeClient, ExchangeClientError, ExchangeServer
from repro.service.streaming import FactChunk
from repro.workloads.generators import random_instance, random_mapping, random_schema

ENTRY_POINTS = ("exchange", "request", "stream", "http", "http_stream")


def _streamed(target, events):
    rows = {}
    for event in events:
        if event["kind"] == "facts":
            for name, row in FactChunk.from_dict(event).facts:
                rows.setdefault(name, []).append(row)
    return Instance(target, rows)


async def _over_http(service, bodies):
    server = ExchangeServer(service, host="127.0.0.1", port=0)
    await server.start()
    try:
        client = ExchangeClient("127.0.0.1", server.port)
        return [await client.exchange(body) for body in bodies]
    finally:
        await server.aclose()


def answers(service, source):
    """Each entry point's reply to one request for *source*: (facts, status)."""
    request = ExchangeRequest(source)
    response = service.request(request)
    out = {"request": (response.facts, response.status)}
    result = service.exchange(source)
    partial = getattr(result, "is_partial", False)
    out["exchange"] = (
        result.facts if partial else result,
        "partial" if partial else "complete",
    )
    streamed = service.stream(request).collect()
    out["stream"] = (streamed.facts, streamed.status)
    body = {"source": instance_to_json(source)}
    buffered, events = asyncio.run(
        _over_http(service, [{**body, "stream": False}, {**body, "stream": True}])
    )
    out["http"] = (instance_from_json(buffered[0]["facts"]), buffered[0]["status"])
    target = service.mapping.target
    out["http_stream"] = (_streamed(target, events), events[-1]["status"])
    return out


def _fresh(source):
    """A copy of *source* with no column store attached, as a new request's."""
    return Instance(
        source.schema, {name: source.rows(name) for name in source.relation_names()}
    )


def _service(mapping, backend, cache, **options):
    return ExchangeService(
        mapping,
        ExchangeOptions(
            workers=1, backend=backend, cache=8 if cache else None, **options
        ),
    )


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=300))
@example(20)  # existential nulls: labels must not depend on the entry point
def test_every_entry_point_gives_one_answer(seed):
    rng = random.Random(seed)
    source_schema = random_schema(rng, 3, prefix="S")
    target_schema = random_schema(rng, 3, prefix="T")
    mapping = random_mapping(source_schema, target_schema, rng, n_tgds=3)
    source = random_instance(source_schema, rng, rows_per_relation=5)
    solutions = {}
    for backend in ("interpreted", "sqlite"):
        for cache in (False, True):
            with _service(mapping, backend, cache) as service:
                assert service.engine.backend is not None or backend == "interpreted"
                replies = answers(service, _fresh(source))
            reference, _ = replies["request"]
            for name in ENTRY_POINTS:
                facts, status = replies[name]
                assert status == "complete", (name, backend, cache)
                assert facts == reference, (name, backend, cache)
            solutions[backend, cache] = reference
    for backend in ("interpreted", "sqlite"):
        assert solutions[backend, False] == solutions[backend, True]
    assert homomorphically_equivalent(
        solutions["interpreted", False], solutions["sqlite", False]
    )


def engine_and_cli_answers(mapping, source, backend, cache):
    """``ExchangeEngine.exchange`` and ``repro exchange``'s answers for *source*."""
    options = ExchangeOptions(backend=backend, cache=8 if cache else None)
    out = {"engine": ExchangeEngine.compile(mapping, options=options).exchange(source)}
    with tempfile.TemporaryDirectory() as tmp:
        names = ("schemas", "mapping", "data", "out")
        files = {name: Path(tmp) / name for name in names}
        files["schemas"].write_text(
            json.dumps(
                {
                    "source": schema_to_json(mapping.source),
                    "target": schema_to_json(mapping.target),
                }
            )
        )
        files["mapping"].write_text(mapping.to_text())
        files["data"].write_text(json.dumps(instance_to_json(source)))
        common = [
            "exchange",
            *(f"--{name}={files[name]}" for name in names),
            f"--backend={backend}",
            *(["--cache=8"] if cache else []),
        ]
        for name, flags in (("cli", []), ("cli_deadline", ["--deadline=60"])):
            assert main([*common, *flags]) == 0
            out[name] = loads_instance(files["out"].read_text())
    return out


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=300))
@example(20)
def test_engine_and_cli_give_the_service_answer(seed):
    rng = random.Random(seed)
    source_schema = random_schema(rng, 3, prefix="S")
    target_schema = random_schema(rng, 3, prefix="T")
    mapping = random_mapping(source_schema, target_schema, rng, n_tgds=3)
    source = random_instance(source_schema, rng, rows_per_relation=5)
    for backend in ("interpreted", "sqlite"):
        for cache in (False, True):
            with _service(mapping, backend, cache) as service:
                reference = service.request(ExchangeRequest(_fresh(source))).facts
            replies = engine_and_cli_answers(mapping, _fresh(source), backend, cache)
            for name, facts in replies.items():
                assert facts == reference, (name, backend, cache)


def office():
    """Two tgds whose laconic core drops one subsumed firing."""
    src = schema(relation("Emp", "n", "d"), relation("Dept", "d", "h"))
    tgt = schema(relation("Office", "n", "h"))
    mapping = SchemaMapping.parse(
        src,
        tgt,
        "Emp(n, d), Dept(d, h) -> Office(n, h)\n"
        "Emp(n, d) -> exists h . Office(n, h)",
    )
    source = instance(
        src, {"Emp": [["a", "d1"], ["b", "d9"]], "Dept": [["d1", "boss"]]}
    )
    return mapping, source


class TestOfficeCore:
    def test_sqlite_core_reaches_every_entry_point(self):
        mapping, source = office()
        options = ExchangeOptions(backend="sqlite", cache=8)
        with ExchangeService(mapping, options) as service:
            replies = answers(service, source)
            # Repeating the service's own backend per request is allowed.
            own = service.request(
                ExchangeRequest(source, options=ExchangeOptions(backend="sqlite"))
            )
        assert {name: facts.size() for name, (facts, _) in replies.items()} == (
            dict.fromkeys(ENTRY_POINTS, 2)
        )
        assert own.facts.size() == 2

    def test_interpreted_service_keeps_the_canonical_solution(self):
        mapping, source = office()
        with ExchangeService(mapping, ExchangeOptions(cache=8)) as service:
            replies = answers(service, source)
        assert {facts.size() for facts, _ in replies.values()} == {3}


class TestServerSideOptions:
    @pytest.mark.parametrize(
        "options",
        [
            ExchangeOptions(backend="sqlite"),
            ExchangeOptions(cache=4),
            ExchangeOptions(workers=3),
            ExchangeOptions(retry=RetryPolicy(max_retries=9)),
        ],
        ids=["backend", "cache", "workers", "retry"],
    )
    def test_request_cannot_change_a_server_field(self, options):
        mapping, source = office()
        with ExchangeService(mapping) as service:
            request = ExchangeRequest(source, options=options)
            with pytest.raises(ValueError, match="set by the service"):
                service.request(request)
            with pytest.raises(ValueError, match="set by the service"):
                service.stream(request)
            assert service.in_flight == 0

    @pytest.mark.parametrize("key,value", [("cache", 4), ("backend", "sqlite")])
    def test_http_body_setting_a_server_field_is_400(self, key, value):
        mapping, source = office()
        body = {"source": instance_to_json(source), "options": {key: value}}

        async def go(service):
            server = ExchangeServer(service, host="127.0.0.1", port=0)
            await server.start()
            try:
                client = ExchangeClient("127.0.0.1", server.port)
                with pytest.raises(ExchangeClientError) as excinfo:
                    await client.exchange(body)
                return excinfo.value
            finally:
                await server.aclose()

        with ExchangeService(mapping) as service:
            error = asyncio.run(go(service))
        assert error.status == 400
        assert "unknown option keys" in error.body["error"]


def _counted(service, source, entry):
    """The ``service.*`` counters and budget histograms one request moved."""
    with collecting() as registry:
        if entry in ("http", "http_stream"):
            body = {
                "source": instance_to_json(source),
                "stream": entry == "http_stream",
            }
            asyncio.run(_over_http(service, [body]))
        elif entry == "exchange":
            service.exchange(source)
        elif entry == "request":
            service.request(ExchangeRequest(source))
        else:
            service.stream(ExchangeRequest(source)).collect()
        snapshot = registry.snapshot()
    counters = {
        name: value
        for name, value in snapshot["counters"].items()
        if name in ("service.requests", "service.degraded")
        or name.endswith("_exceeded")
    }
    histograms = {
        name: summary["count"]
        for name, summary in snapshot["histograms"].items()
        if name.startswith("service.budget.")
    }
    return counters, histograms


class TestUniformCounters:
    def test_degraded_request_counts_the_same_everywhere(self):
        mapping, source = office()
        with ExchangeService(mapping, ExchangeOptions(max_facts=1)) as service:
            counted = {e: _counted(service, source, e) for e in ENTRY_POINTS}
        expected = (
            {
                "service.requests": 1,
                "service.degraded": 1,
                "service.max_facts_exceeded": 1,
            },
            {},
        )
        assert counted == dict.fromkeys(ENTRY_POINTS, expected)

    def test_budget_headroom_is_recorded_everywhere(self):
        mapping, source = office()
        options = ExchangeOptions(deadline=30.0, max_facts=1000)
        with ExchangeService(mapping, options) as service:
            counted = {e: _counted(service, source, e) for e in ENTRY_POINTS}
        expected = (
            {"service.requests": 1},
            {
                "service.budget.remaining_facts": 1,
                "service.budget.remaining_seconds": 1,
            },
        )
        assert counted == dict.fromkeys(ENTRY_POINTS, expected)
