"""Tests for incremental fact-chunk streaming (repro.service.streaming)."""

import json

import pytest

from repro import ExchangeOptions, ExchangeService, StreamingSolution
from repro.mapping import SchemaMapping
from repro.obs import collecting
from repro.relational import instance, relation, schema
from repro.relational.canonical import canonically_equal
from repro.service import ExchangeRequest, ServiceOverloaded
from repro.service.streaming import FactChunk, StreamSession, exchange_payload


SRC = schema(relation("Emp", "name"))
TGT = schema(relation("Manager", "emp", "mgr"))


def simple_mapping():
    return SchemaMapping.parse(SRC, TGT, "Emp(x) -> exists y . Manager(x, y)")


def simple_source(rows=10):
    return instance(SRC, {"Emp": [[f"e{i}"] for i in range(rows)]})


class TestStreamingSolution:
    def test_chunks_then_response(self):
        with ExchangeService(simple_mapping()) as service:
            stream = service.stream(
                ExchangeRequest(source=simple_source(10)), chunk_facts=3
            )
            assert isinstance(stream, StreamingSolution)
            chunks = list(stream)
            assert all(isinstance(c, FactChunk) for c in chunks)
            assert [len(c) for c in chunks] == [3, 3, 3, 1]
            assert stream.response is not None
            assert stream.response.status == "complete"
            assert stream.response.facts.size() == 10

    def test_streamed_facts_equal_buffered_result(self):
        source = simple_source(12)
        with ExchangeService(simple_mapping()) as service:
            stream = service.stream(ExchangeRequest(source=source))
            streamed = [fact for chunk in stream for fact in chunk.facts]
            expected = service.exchange(source)
        assert len(streamed) == expected.size()
        assert canonically_equal(stream.response.facts, expected)

    def test_collect_drains(self):
        with ExchangeService(simple_mapping()) as service:
            stream = service.stream(ExchangeRequest(source=simple_source(5)))
            response = stream.collect()
        assert response.complete
        assert response.facts.size() == 5

    def test_chunk_as_dict_round_trip(self):
        with ExchangeService(simple_mapping()) as service:
            stream = service.stream(
                ExchangeRequest(source=simple_source(4)), chunk_facts=2
            )
            chunk = next(iter(stream))
            stream.collect()
        data = chunk.as_dict()
        json.dumps(data)
        assert data["kind"] == "facts"
        assert data["count"] == len(chunk)
        clone = FactChunk.from_dict(data)
        assert len(clone) == len(chunk)

    def test_budgeted_stream_ends_partial_with_token(self):
        options = ExchangeOptions(max_facts=3)
        with ExchangeService(simple_mapping(), options) as service:
            stream = service.stream(ExchangeRequest(source=simple_source(10)))
            list(stream)
        resp = stream.response
        assert resp.status == "partial"
        assert resp.token is not None

    def test_stream_with_pool_options_is_one_unsplit_payload(self):
        options = ExchangeOptions(workers=2)
        source = simple_source(40)
        with collecting() as registry, ExchangeService(
            simple_mapping(), options
        ) as service:
            stream = service.stream(ExchangeRequest(source=source))
            chunks = list(stream)
            assert stream.response.complete
            # workers sizes the server pool; a request is never split.
            assert {c.shard for c in chunks} == {-1}
            histograms = registry.snapshot()["histograms"]
            assert "exchange.pool.startup_seconds" not in histograms
            expected = service.exchange(source)
        assert canonically_equal(stream.response.facts, expected)

    def test_stream_releases_admission_slot(self):
        with ExchangeService(simple_mapping(), max_in_flight=1) as service:
            stream = service.stream(ExchangeRequest(source=simple_source(4)))
            stream.collect()
            assert service.in_flight == 0
            # A second stream is admittable after the first finishes.
            service.stream(ExchangeRequest(source=simple_source(4))).collect()

    def test_stream_respects_admission_limit(self):
        with ExchangeService(simple_mapping(), max_in_flight=1) as service:
            first = service.stream(ExchangeRequest(source=simple_source(4)))
            with pytest.raises(ServiceOverloaded):
                service.stream(ExchangeRequest(source=simple_source(4)))
            first.collect()

    def test_stream_rejects_mismatched_token(self):
        options = ExchangeOptions(max_facts=2)
        with ExchangeService(simple_mapping(), options) as service:
            partial = service.exchange(simple_source(10))
            with pytest.raises(ValueError):
                service.stream(
                    ExchangeRequest(source=simple_source(3), token=partial.token)
                )

    def test_resume_via_stream(self):
        source = simple_source(10)
        options = ExchangeOptions(max_facts=2)
        with ExchangeService(simple_mapping(), options) as service:
            partial = service.exchange(source)
        with ExchangeService(simple_mapping()) as service:
            stream = service.stream(
                ExchangeRequest(source=source, token=partial.token)
            )
            stream.collect()
            expected = service.exchange(source)
        assert stream.response.complete
        assert canonically_equal(stream.response.facts, expected)


class TestStreamSession:
    """The payload seam for callers that run payloads themselves."""

    @pytest.mark.parametrize("max_facts", [None, 3])
    def test_session_answers_like_request(self, max_facts):
        source = simple_source(10)
        options = ExchangeOptions(max_facts=max_facts)
        with ExchangeService(simple_mapping(), options) as service:
            request = ExchangeRequest(source=source, request_id="r-1")
            session = StreamSession(
                service.mapping,
                request,
                options,
                mapping_fingerprint=service.engine.fingerprint,
                chunk_facts=4,
            )
            assert len(session.payloads) == 1 and not session.sharded
            chunks = list(session.chunks(0, exchange_payload(session.payloads[0])))
            expected = service.request(request)
        response = session.response()
        summary = session.summary_dict()
        assert response.status == expected.status
        assert canonically_equal(response.facts, expected.facts)
        assert session.fact_count == sum(len(c) for c in chunks)
        assert summary["fact_count"] == session.fact_count
        assert summary["kind"] == "summary" and summary["status"] == expected.status
        assert (summary["token"] is None) == (max_facts is None)
