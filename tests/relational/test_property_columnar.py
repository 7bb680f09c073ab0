"""Property-based tests (hypothesis): the columnar engine is invisible.

The tentpole contract of the columnar refactor is behavioral identity —
an instance with (or decoded from) a column store is indistinguishable
from one built out of plain fact sets.  Random instances drive the
flat-buffer codec round-trips across the derivation API
(``with_facts`` / ``without_facts`` / ``map_values`` / ``restrict``),
and random mappings check the chase reaches ``canonically_equal``
solutions whether or not a store is attached (the id-space fast path
vs the value-space engine).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapping import universal_solution
from repro.relational import Fact, Instance, LabeledNull, constant, relation, schema
from repro.relational.canonical import canonically_equal
from repro.relational.columnar import (
    pack_instance,
    unpack_instance,
)
from repro.workloads import random_exchange_setting

SCHEMA = schema(relation("R", "a", "b"), relation("S", "b", "c"))

values = st.one_of(
    st.sampled_from([constant(x) for x in ["u", "v", "w", 1, 2]]),
    st.builds(LabeledNull, st.integers(min_value=0, max_value=3)),
)


@st.composite
def instances(draw):
    r_rows = draw(st.lists(st.tuples(values, values), max_size=6))
    s_rows = draw(st.lists(st.tuples(values, values), max_size=6))
    facts = [Fact("R", row) for row in r_rows] + [Fact("S", row) for row in s_rows]
    return Instance(SCHEMA, facts)


def assert_round_trips(inst):
    """The decoded packed buffer equals *inst*."""
    assert unpack_instance(pack_instance(inst)) == inst


@settings(max_examples=50, deadline=None)
@given(instances())
def test_codec_round_trip(inst):
    assert_round_trips(inst)


@settings(max_examples=40, deadline=None)
@given(instances(), instances())
def test_with_facts_round_trips(inst, extra):
    assert_round_trips(inst.with_facts(extra.facts()))


@settings(max_examples=40, deadline=None)
@given(instances())
def test_without_facts_round_trips(inst):
    facts = list(inst.facts())
    assert_round_trips(inst.without_facts(facts[: len(facts) // 2]))


@settings(max_examples=40, deadline=None)
@given(instances())
def test_restrict_round_trips(inst):
    assert_round_trips(inst.restrict(["R"]))


@settings(max_examples=40, deadline=None)
@given(instances())
def test_map_values_round_trips(inst):
    renaming = {LabeledNull(i): LabeledNull(i + 10) for i in range(4)}
    renaming[constant("u")] = constant("z")
    assert_round_trips(inst.map_values(renaming))


@settings(max_examples=40, deadline=None)
@given(instances())
def test_store_attachment_is_invisible(inst):
    """Equality, size and fingerprint ignore whether a store is attached."""
    plain = Instance(SCHEMA, list(inst.facts()))
    stored = Instance(SCHEMA, list(inst.facts()))
    stored.columnar()  # attach
    assert plain == stored
    assert plain.size() == stored.size()
    assert plain.fingerprint() == stored.fingerprint()


seeds = st.integers(min_value=0, max_value=200)


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_chase_agrees_with_and_without_store(seed):
    mapping, inst = random_exchange_setting(
        seed, n_source_relations=2, n_target_relations=2, n_tgds=2,
        rows_per_relation=5,
    )
    plain = Instance(mapping.source, list(inst.facts()))
    stored = Instance(mapping.source, list(inst.facts()))
    stored.columnar()  # the id-space fast path engages when eligible
    assert canonically_equal(
        universal_solution(mapping, plain),
        universal_solution(mapping, stored),
    )


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_chase_agrees_on_lazily_decoded_shards(seed):
    # the worker path: a source decoded lazily from a shipped buffer
    mapping, inst = random_exchange_setting(
        seed, n_source_relations=2, n_target_relations=2, n_tgds=2,
        rows_per_relation=5,
    )
    shipped = unpack_instance(pack_instance(inst))
    assert canonically_equal(
        universal_solution(mapping, inst),
        universal_solution(mapping, shipped),
    )
