"""Tests for the request/response wire objects (repro.service.api)."""

import json

import pytest

from repro import (
    ExchangeOptions,
    ExchangeRequest,
    ExchangeResponse,
    ExchangeService,
)
from repro.mapping import SchemaMapping
from repro.relational import instance, relation, schema
from repro.relational.canonical import canonically_equal
from repro.service.api import PartialSolution


SRC = schema(relation("Emp", "name"))
TGT = schema(relation("Manager", "emp", "mgr"))


def simple_mapping():
    return SchemaMapping.parse(SRC, TGT, "Emp(x) -> exists y . Manager(x, y)")


def simple_source(rows=4):
    return instance(SRC, {"Emp": [[f"e{i}"] for i in range(rows)]})


class TestExchangeRequest:
    def test_defaults(self):
        req = ExchangeRequest(source=simple_source())
        assert req.tenant == "default"
        assert req.options is None
        assert req.token is None
        assert not req.is_resume

    def test_wire_round_trip(self):
        req = ExchangeRequest(
            source=simple_source(),
            tenant="acme",
            options=ExchangeOptions(max_facts=10),
            request_id="r-1",
        )
        data = req.as_dict()
        json.dumps(data)  # JSON-clean
        clone = ExchangeRequest.from_dict(data)
        assert clone.tenant == "acme"
        assert clone.request_id == "r-1"
        assert clone.options.max_facts == 10
        assert canonically_equal(clone.source, req.source)

    def test_from_dict_rejects_unknown_keys(self):
        req = ExchangeRequest(source=simple_source())
        data = req.as_dict()
        data["surprise"] = True
        with pytest.raises(ValueError, match="unknown"):
            ExchangeRequest.from_dict(data)

    def test_from_dict_requires_source(self):
        with pytest.raises(ValueError):
            ExchangeRequest.from_dict({"tenant": "t"})


class TestExchangeResponse:
    def test_complete_response(self):
        with ExchangeService(simple_mapping()) as service:
            resp = service.request(ExchangeRequest(source=simple_source()))
        assert isinstance(resp, ExchangeResponse)
        assert resp.status == "complete"
        assert resp.complete
        assert resp.token is None
        assert resp.facts.size() == 4
        assert resp.elapsed_seconds >= 0

    def test_partial_response_carries_token(self):
        options = ExchangeOptions(max_facts=2)
        with ExchangeService(simple_mapping(), options) as service:
            resp = service.request(
                ExchangeRequest(source=simple_source(10), tenant="t")
            )
        assert resp.status == "partial"
        assert not resp.complete
        assert resp.token is not None
        assert resp.tenant == "t"
        assert isinstance(resp.result, PartialSolution)

    def test_as_dict_shapes(self):
        with ExchangeService(simple_mapping()) as service:
            resp = service.request(
                ExchangeRequest(source=simple_source(), request_id="req-9")
            )
        data = resp.as_dict()
        json.dumps(data)
        assert data["status"] == "complete"
        assert data["request_id"] == "req-9"
        assert data["fact_count"] == 4
        assert "facts" in data
        slim = resp.as_dict(include_facts=False)
        assert "facts" not in slim

    def test_repr_is_compact(self):
        with ExchangeService(simple_mapping()) as service:
            resp = service.request(ExchangeRequest(source=simple_source(50)))
        assert len(repr(resp)) < 200


class TestResponseJson:
    """``to_json`` is ``json.dumps(as_dict())`` byte for byte."""

    @pytest.mark.parametrize(
        "options",
        [
            ExchangeOptions(),
            ExchangeOptions(max_facts=3),
            ExchangeOptions(provenance=True),
        ],
        ids=["complete", "partial", "provenance"],
    )
    def test_to_json_is_the_dumped_dict(self, options):
        with ExchangeService(simple_mapping(), options) as service:
            request = ExchangeRequest.from_dict(
                ExchangeRequest(simple_source(6), request_id="r").as_dict()
            )
            resp = service.request(request)
        assert resp.to_json() == json.dumps(resp.as_dict())

    def test_worker_outcomes_and_cache_hits_stay_in_id_columns(self):
        from repro.service.streaming import exchange_payload, outcome_from_dict

        source_json = ExchangeRequest(simple_source(6)).as_dict()
        with ExchangeService(simple_mapping(), ExchangeOptions(cache=4)) as service:
            with service.plan(ExchangeRequest.from_dict(source_json)) as plan:
                assert plan.cached is None
                outcome = outcome_from_dict(exchange_payload(plan.payload()))
                missed = plan.respond(outcome)
            with service.plan(ExchangeRequest.from_dict(source_json)) as plan:
                hit = plan.respond(plan.cached)
        bodies = [resp.to_json() for resp in (missed, hit)]
        assert hit.facts is missed.facts  # the cached solution
        assert hit.facts._rels is None  # written without value objects
        assert bodies == [json.dumps(resp.as_dict()) for resp in (missed, hit)]


class TestRequestDrivenService:
    def test_request_resume_round_trip(self):
        options = ExchangeOptions(max_facts=2)
        source = simple_source(10)
        with ExchangeService(simple_mapping(), options) as service:
            first = service.request(ExchangeRequest(source=source))
        assert first.status == "partial"
        with ExchangeService(simple_mapping()) as service:
            second = service.request(
                ExchangeRequest(source=source, token=first.token)
            )
        assert second.status == "complete"
        with ExchangeService(simple_mapping()) as service:
            expected = service.exchange(source)
        assert canonically_equal(second.facts, expected)

    def test_request_token_mismatch_rejected(self):
        options = ExchangeOptions(max_facts=2)
        with ExchangeService(simple_mapping(), options) as service:
            first = service.request(ExchangeRequest(source=simple_source(10)))
            with pytest.raises(ValueError):
                service.request(
                    ExchangeRequest(source=simple_source(3), token=first.token)
                )
