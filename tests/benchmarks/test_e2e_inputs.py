"""Seeded, program-blind inputs and the answer check of the e2e benchmark."""

from __future__ import annotations

import json

import pytest

from benchmarks.e2e.workloads import (
    WORKLOADS,
    RequestStream,
    instance_facts,
    json_facts,
    library_rows,
    load_mapping,
    reference_digest,
    solution_digest,
)
from repro.mapping.chase import chase
from repro.relational import Instance
from repro.relational.instance import Fact
from repro.relational.serialization import instance_to_json
from repro.relational.values import Constant, LabeledNull


def stream(name: str, seed: int) -> RequestStream:
    workload = WORKLOADS[name]
    return RequestStream(workload, seed, load_mapping(workload))


@pytest.mark.parametrize("name", ["serve_small", "serve_repeat"])
def test_one_seed_gives_byte_identical_bodies(name):
    first, second = stream(name, 3), stream(name, 3)
    assert [first.body(i) for i in range(30)] == [second.body(i) for i in range(30)]


@pytest.mark.parametrize("name", ["serve_small", "serve_repeat"])
def test_another_seed_gives_other_bodies(name):
    assert [stream(name, 3).body(i) for i in range(5)] != [
        stream(name, 4).body(i) for i in range(5)
    ]


def test_library_sources_follow_the_seed():
    workload = WORKLOADS["exchange_join"].smoke()
    assert library_rows(workload, 1) == library_rows(workload, 1)
    assert library_rows(workload, 1) != library_rows(workload, 2)


def test_bodies_carry_only_the_request():
    requests = stream("serve_repeat", 11)
    body = json.loads(requests.body(0))
    assert set(body) == {"source", "stream"}
    text = requests.body(0).decode()
    assert "serve_repeat" not in text and "seed" not in text


def test_serve_small_never_repeats_and_serve_repeat_draws_from_its_pool():
    small = stream("serve_small", 0)
    assert len({small.body(i) for i in range(50)}) == 50
    repeat = stream("serve_repeat", 0)
    assert {repeat.source_of(i) for i in range(200)} == set(range(WORKLOADS["serve_repeat"].pool))


def test_sources_match_the_expected_answer_size():
    for name in ("serve_small", "serve_repeat"):
        requests = stream(name, 5)
        solution = chase(requests.mapping, requests.instance(0)).solution
        assert solution.size() == WORKLOADS[name].expected_facts


class TestSolutionDigest:
    @pytest.fixture
    def answer(self):
        requests = stream("serve_repeat", 2)
        return chase(requests.mapping, requests.instance(0)).solution

    def test_wire_form_matches_the_instance(self, answer):
        wire = instance_to_json(answer)["facts"]
        assert solution_digest(json_facts(wire)) == reference_digest(instance_facts(answer))

    def test_null_renaming_keeps_the_digest(self, answer):
        renamed = answer.map_values(
            {null: LabeledNull(null.label + 10_000) for null in answer.nulls()}
        )
        assert solution_digest(instance_facts(renamed)) == reference_digest(
            instance_facts(answer)
        )

    def test_a_changed_fact_changes_the_digest(self, answer):
        fact = next(iter(answer.facts()))
        changed = answer.without_facts([fact]).with_facts(
            [Fact(fact.relation, (Constant("someone-else"),) + fact.row[1:])]
        )
        assert solution_digest(instance_facts(changed)) != reference_digest(
            instance_facts(answer)
        )

    def test_a_shared_null_is_not_isomorphic(self, answer):
        nulls = sorted(answer.nulls(), key=lambda n: n.label)
        merged = answer.map_values({nulls[1]: nulls[0]})
        assert solution_digest(instance_facts(merged)) is None

    def test_the_reference_must_be_a_core_with_single_nulls(self, answer):
        target = answer.schema
        duplicate = Instance(
            target,
            {"Office": [("a", "h", LabeledNull(1)), ("a", "h", LabeledNull(2))]},
        )
        with pytest.raises(ValueError):
            reference_digest(instance_facts(duplicate))
