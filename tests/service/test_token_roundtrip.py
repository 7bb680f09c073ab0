"""Resumption tokens as a stable pagination API: JSON round-trips.

The tentpole guarantee: a ``ResumptionToken`` serialized with
``to_json()`` can be carried across process boundaries (here: a real
fork via multiprocessing spawn of a worker function) and resumed by a
*different* service instance, yielding a final solution canonically
equal to the uninterrupted run.
"""

import json
import multiprocessing
import pickle

import pytest

from repro import ExchangeOptions, ExchangeService, PartialSolution
from repro.logic.parser import parse_rule
from repro.mapping import SchemaMapping
from repro.mapping.dependencies import TargetTgd
from repro.provenance import Solution
from repro.relational import instance, relation, schema
from repro.relational.canonical import canonically_equal
from repro.service import ResumptionToken
from repro.service.api import TOKEN_KIND, TOKEN_VERSION


SRC = schema(relation("Emp", "name"))
TGT = schema(relation("Manager", "emp", "mgr"))


def target_tgd(text):
    rule = parse_rule(text)
    return TargetTgd(rule.lhs, rule.branches[0][1])


def fk_mapping():
    """Target tgds so interruption can land in the resumable phase."""
    source = schema(relation("E", "n", "d"))
    target = schema(relation("Emp", "n", "d"), relation("Dept", "d"))
    return SchemaMapping.parse(
        source,
        target,
        "E(x, d) -> Emp(x, d)",
        [target_tgd("Emp(x, d) -> Dept(d)")],
    )


def fk_source(rows=40):
    source = schema(relation("E", "n", "d"))
    return instance(source, {"E": [[f"e{i}", f"d{i % 7}"] for i in range(rows)]})


def interrupt(mapping, source, *, max_facts, provenance=False):
    """Run with a tight fact budget and hand back the partial."""
    options = ExchangeOptions(max_facts=max_facts, provenance=provenance)
    with ExchangeService(mapping, options) as service:
        result = service.exchange(source)
    assert isinstance(result, PartialSolution), "budget did not trip"
    assert result.token is not None
    return result


def full_solution(mapping, source):
    with ExchangeService(mapping) as service:
        return service.exchange(source)


def _resume_in_child(token_json, source_rows, out):
    """Spawn-target: rebuild everything from scratch and resume."""
    mapping = fk_mapping()
    source = fk_source(source_rows)
    with ExchangeService(mapping) as service:
        resumed = service.resume(source, token_json)
    facts = resumed.instance if isinstance(resumed, Solution) else resumed
    out.put(pickle.dumps(facts))


class TestTokenJson:
    def test_versioned_envelope(self):
        partial = interrupt(fk_mapping(), fk_source(), max_facts=45)
        data = json.loads(partial.token.to_json())
        assert data["kind"] == TOKEN_KIND
        assert data["version"] == TOKEN_VERSION
        assert set(data) >= {"mapping", "source", "phase", "partial"}

    def test_to_json_is_deterministic(self):
        partial = interrupt(fk_mapping(), fk_source(), max_facts=45)
        assert partial.token.to_json() == partial.token.to_json()

    def test_from_json_round_trip(self):
        token = interrupt(fk_mapping(), fk_source(), max_facts=45).token
        clone = ResumptionToken.from_json(token.to_json())
        assert clone.mapping_fingerprint == token.mapping_fingerprint
        assert clone.source_fingerprint == token.source_fingerprint
        assert clone.phase == token.phase
        assert canonically_equal(clone.partial, token.partial)

    def test_from_json_accepts_parsed_mapping(self):
        token = interrupt(fk_mapping(), fk_source(), max_facts=45).token
        clone = ResumptionToken.from_json(json.loads(token.to_json()))
        assert clone.phase == token.phase

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda d: d.pop("kind"),
            lambda d: d.update(kind="not-a-token"),
            lambda d: d.update(version=999),
            lambda d: d.pop("partial"),
            lambda d: d.update(partial="not-an-instance"),
        ],
    )
    def test_malformed_tokens_rejected(self, mangle):
        token = interrupt(fk_mapping(), fk_source(), max_facts=45).token
        data = json.loads(token.to_json())
        mangle(data)
        with pytest.raises(ValueError):
            ResumptionToken.from_json(data)

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ValueError):
            ResumptionToken.from_json("{not json")
        with pytest.raises(ValueError):
            ResumptionToken.from_json("[1, 2, 3]")


class TestResumeFromJson:
    def test_resume_in_same_process_canonically_equal(self):
        mapping, source = fk_mapping(), fk_source()
        token_json = interrupt(mapping, source, max_facts=45).token.to_json()
        with ExchangeService(mapping) as service:
            resumed = service.resume(source, token_json)
        expected = full_solution(mapping, source)
        assert canonically_equal(resumed, expected)

    def test_resume_in_fresh_service_instance(self):
        mapping, source = fk_mapping(), fk_source()
        token_json = interrupt(mapping, source, max_facts=45).token.to_json()
        # A brand-new service: nothing shared with the one that issued
        # the token except the mapping text.
        rebuilt = SchemaMapping.parse(
            schema(relation("E", "n", "d")),
            schema(relation("Emp", "n", "d"), relation("Dept", "d")),
            "E(x, d) -> Emp(x, d)",
            [target_tgd("Emp(x, d) -> Dept(d)")],
        )
        with ExchangeService(rebuilt) as service:
            resumed = service.resume(source, token_json)
        assert canonically_equal(resumed, full_solution(mapping, source))

    def test_resume_in_fresh_process(self):
        """The real pagination contract: token crosses a process boundary."""
        mapping, source = fk_mapping(), fk_source()
        token_json = interrupt(mapping, source, max_facts=45).token.to_json()
        ctx = multiprocessing.get_context("spawn")
        out = ctx.Queue()
        child = ctx.Process(
            target=_resume_in_child, args=(token_json, 40, out)
        )
        child.start()
        try:
            facts = pickle.loads(out.get(timeout=120))
        finally:
            child.join(timeout=30)
        expected = full_solution(mapping, source)
        assert canonically_equal(facts, expected)

    def test_resume_with_provenance_enabled(self):
        mapping, source = fk_mapping(), fk_source()
        partial = interrupt(mapping, source, max_facts=45, provenance=True)
        token_json = partial.token.to_json()
        data = json.loads(token_json)
        assert data["provenance"] is not None, "provenance lost from token"
        options = ExchangeOptions(provenance=True)
        with ExchangeService(mapping, options) as service:
            resumed = service.resume(source, token_json)
        assert isinstance(resumed, Solution)
        expected = full_solution(mapping, source)
        assert canonically_equal(resumed.instance, expected)
        # Every resumed fact is explainable: lineage survived the trip.
        for fact in resumed.instance.facts():
            assert resumed.explain(fact) is not None

    def test_resume_after_run_with_pool_options(self):
        """Tokens issued under workers>1 options resume identically."""
        mapping, source = fk_mapping(), fk_source()
        options = ExchangeOptions(max_facts=45, workers=2)
        with ExchangeService(mapping, options) as service:
            result = service.exchange(source)
        assert isinstance(result, PartialSolution)
        token_json = result.token.to_json()
        with ExchangeService(mapping) as service:
            resumed = service.resume(source, token_json)
        assert canonically_equal(resumed, full_solution(mapping, source))

    def test_mismatched_source_rejected(self):
        mapping = fk_mapping()
        token_json = interrupt(mapping, fk_source(40), max_facts=45).token.to_json()
        with ExchangeService(mapping) as service:
            with pytest.raises(ValueError, match="different source"):
                service.resume(fk_source(13), token_json)


class TestTokenHygiene:
    def test_repr_shows_digest_previews_only(self):
        token = interrupt(fk_mapping(), fk_source(), max_facts=45).token
        text = repr(token)
        assert token.mapping_fingerprint[:8] in text
        assert token.mapping_fingerprint not in text
        assert token.source_fingerprint not in text
        assert len(text) < 200

    def test_partial_solution_repr_is_compact(self):
        partial = interrupt(fk_mapping(), fk_source(), max_facts=45)
        text = repr(partial)
        assert "PartialSolution" in text
        assert len(text) < 300
        # No raw fact dump, no full fingerprints.
        assert partial.token.mapping_fingerprint not in text

    def test_partial_solution_as_dict_is_stable(self):
        partial = interrupt(fk_mapping(), fk_source(), max_facts=45)
        data = partial.as_dict()
        assert data["status"] == "partial"
        assert data["violated"] == partial.violated
        assert data["fact_count"] == partial.facts.size()
        assert data["token"] == partial.token.as_dict()
        json.dumps(data)  # JSON-serializable end to end
