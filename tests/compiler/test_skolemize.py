"""``put_back`` accepts what ``exchange`` returns.

``exchange`` answers with the chase's labelled nulls; the lens's ``put``
diffs against its Skolem view.  ``ExchangeEngine.skolemize`` maps each
null to the Skolem value of the firing that minted it, so translating
``exchange(s)`` must give exactly ``lens.get(s)`` — including when
several tgds write one relation, where a homomorphism search could send
both tgds' nulls to one Skolem value.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import ExchangeEngine
from repro.logic.parser import parse_conjunction, parse_rule
from repro.logic.terms import Var
from repro.mapping import SchemaMapping, StTgd
from repro.mapping.dependencies import Egd, TargetTgd
from repro.options import ExchangeOptions
from repro.relational import (
    dumps_instance,
    instance,
    is_homomorphic,
    loads_instance,
    relation,
    schema,
)
from repro.relational.values import LabeledNull, SkolemValue
from repro.stats import Statistics
from repro.workloads import (
    apply_edits,
    random_exchange_setting,
    random_view_edits,
)


def _engine(mapping, inst, cache):
    return ExchangeEngine.compile(
        mapping,
        Statistics.gather(inst),
        options=ExchangeOptions(cache=4 if cache else None),
    )


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=500),
    st.sampled_from([1, 2]),  # one target relation: every tgd writes it
    st.sampled_from([2, 3]),
    st.booleans(),
)
def test_translated_solution_is_the_lens_view(seed, targets, tgds, cache):
    mapping, inst = random_exchange_setting(
        seed, n_source_relations=2, n_target_relations=targets, n_tgds=tgds,
        rows_per_relation=5,
    )
    engine = _engine(mapping, inst, cache)
    for _ in range(2):  # with a cache, the second answer is a hit
        solution = engine.exchange(inst)
        assert set(engine.skolemize(solution, inst).facts()) == set(
            engine.lens.get(inst).facts()
        )
        assert engine.put_back(solution, inst) == inst  # GetPut, exact


@pytest.fixture
def two_writers():
    """Two tgds minting nulls into one relation, firing on one value."""
    source = schema(relation("A", "x"), relation("B", "x"))
    target = schema(relation("S", "x", "y"))
    mapping = SchemaMapping.parse(
        source,
        target,
        "A(x) -> exists y . S(x, y)\nB(x) -> exists y . S(x, y)",
    )
    return mapping, instance(source, {"A": [["k"]], "B": [["k"]]})


class TestTwoTgdsOneRelation:
    def test_each_null_maps_to_its_own_tgds_skolem(self, two_writers):
        mapping, inst = two_writers
        engine = ExchangeEngine.compile(mapping)
        solution = engine.exchange(inst)
        # Both facts map onto either one: a search may pick a single image.
        (first, second) = sorted(solution.facts(), key=repr)
        assert is_homomorphic(solution, solution.without_facts([second]))
        translated = engine.skolemize(solution, inst)
        names = sorted(f.row[1].function for f in translated.facts())
        assert names == ["sk_tgd_0_y", "sk_tgd_1_y"]
        assert engine.put_back(solution, inst) == inst

    def test_deleting_one_writers_fact_retracts_its_row(self, two_writers):
        mapping, inst = two_writers
        engine = ExchangeEngine.compile(mapping)
        solution = engine.exchange(inst)
        minted_by_b = max(solution.facts(), key=lambda f: f.row[1].label)
        edited = solution.without_facts([minted_by_b])
        assert not engine.put_back(edited, inst).rows("B")


def test_put_back_of_a_view_read_back_from_json():
    mapping, inst = random_exchange_setting(
        7, n_source_relations=2, n_target_relations=1, n_tgds=3,
        rows_per_relation=5,
    )
    engine = ExchangeEngine.compile(mapping)
    view = loads_instance(dumps_instance(engine.exchange(inst)))
    assert any(isinstance(v, LabeledNull) for v in view.values())
    assert engine.put_back(view, inst) == inst
    # A fresh engine (another process) translates the same labels.
    fresh = ExchangeEngine.compile(mapping)
    assert fresh.put_back(view, inst) == inst


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=300), st.integers(min_value=0, max_value=50))
def test_deleted_facts_stay_deleted_with_one_target_relation(seed, edit_seed):
    mapping, inst = random_exchange_setting(
        seed, n_source_relations=2, n_target_relations=1, n_tgds=3,
        rows_per_relation=5,
    )
    engine = ExchangeEngine.compile(mapping, Statistics.gather(inst))
    view = engine.exchange(inst)
    edits = random_view_edits(
        view, random.Random(edit_seed), n_edits=min(3, view.size()),
        insert_probability=0.0,
    )
    edited = apply_edits(view, edits)
    new_source = engine.put_back(edited, inst)
    assert is_homomorphic(engine.exchange(new_source), edited)
    # Null labels are renumbered per source; Skolem values are not.
    deleted = set(engine.skolemize(view, inst).facts()) - set(
        engine.skolemize(edited, inst).facts()
    )
    assert len(deleted) <= len(edits)
    assert not deleted & set(engine.lens.get(new_source).facts())


def test_lens_view_passes_through_unchanged():
    mapping, inst = random_exchange_setting(3)
    engine = ExchangeEngine.compile(mapping)
    view = engine.lens.get(inst)
    assert engine.skolemize(view, inst) is view
    assert not any(isinstance(v, SkolemValue) for v in engine.exchange(inst).values())


class TestTargetDependencies:
    """The chase's egds and target tgds may keep or number nulls unlike
    ``lens.get``'s; ``put_back`` diffs against the skolemized solution."""

    def test_key_egd_merging_two_tgds_nulls(self):
        source = schema(relation("A", "x"), relation("K", "x"))
        target = schema(relation("B", "x", "y"))
        key = Egd(parse_conjunction("B(x, y), B(x, z)"), Var("y"), Var("z"))
        mapping = SchemaMapping(
            source,
            target,
            [
                StTgd.parse("A(x) -> exists y . B(x, y)"),
                StTgd.parse("K(x) -> exists y . B(x, y)"),
            ],
            [key],
        )
        inst = instance(source, {"A": [["1"], ["2"]], "K": [["1"], ["3"]]})
        for cache in (False, True):
            engine = _engine(mapping, inst, cache)
            solution = engine.exchange(inst)
            assert engine.put_back(solution, inst) == inst
            shared = next(f for f in solution.facts() if f.row[0].value == "2")
            edited = engine.put_back(solution.without_facts([shared]), inst)
            assert {row[0].value for row in edited.rows("A")} == {"1"}
            assert edited.rows("K") == inst.rows("K")

    def test_target_tgd_inventing_values(self):
        source = schema(relation("P", "x"))
        target = schema(relation("E", "x", "d"), relation("D", "d", "m"))
        rule = parse_rule("E(x, d) -> exists m . D(d, m)")
        mapping = SchemaMapping(
            source,
            target,
            [StTgd.parse("P(x) -> exists d . E(x, d)")],
            [TargetTgd(rule.lhs, rule.branches[0][1])],
        )
        inst = instance(source, {"P": [["a"], ["b"]]})
        engine = ExchangeEngine.compile(mapping)
        solution = engine.exchange(inst)
        assert len(solution.rows("D")) == 2
        assert engine.put_back(solution, inst) == inst
