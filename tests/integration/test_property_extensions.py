"""Property-based tests for the extension features.

Canonical forms, the delta algebra, and incremental exchange — each
checked against its semantic reference over randomized inputs.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import ExchangeEngine
from repro.compiler.incremental import IncrementalExchange
from repro.lenses.delta import InstanceDelta
from repro.relational import (
    Fact,
    Instance,
    LabeledNull,
    constant,
    homomorphically_equivalent,
    relation,
    schema,
)
from repro.relational.canonical import canonical_form, canonically_equal
from repro.stats import Statistics
from repro.workloads import random_exchange_setting

MGR_SCHEMA = schema(relation("Manager", "emp", "mgr"))

values = st.one_of(
    st.sampled_from([constant(x) for x in ["a", "b", "c"]]),
    st.builds(LabeledNull, st.integers(min_value=0, max_value=4)),
)


@st.composite
def manager_instances(draw):
    rows = draw(st.lists(st.tuples(values, values), max_size=5))
    return Instance(MGR_SCHEMA, [Fact("Manager", row) for row in rows])


@settings(max_examples=50, deadline=None)
@given(manager_instances(), st.permutations(list(range(5))))
def test_canonical_form_is_relabeling_invariant(inst, permutation):
    """Relabeling nulls never changes the canonical form."""
    relabeling = {
        LabeledNull(i): LabeledNull(100 + permutation[i]) for i in range(5)
    }
    relabeled = inst.map_values(relabeling)
    assert canonical_form(inst).instance.same_facts(
        canonical_form(relabeled).instance
    )


@settings(max_examples=40, deadline=None)
@given(manager_instances())
def test_canonical_form_is_equivalent_to_original(inst):
    form = canonical_form(inst).instance
    assert homomorphically_equivalent(inst, form.cast(MGR_SCHEMA))


@settings(max_examples=40, deadline=None)
@given(manager_instances(), manager_instances())
def test_canonical_equality_implies_hom_equivalence(left, right):
    if canonically_equal(left, right):
        assert homomorphically_equivalent(left, right)


# --- delta algebra -----------------------------------------------------------


@st.composite
def deltas(draw):
    ins = draw(st.lists(st.tuples(values, values), max_size=3))
    dels = draw(st.lists(st.tuples(values, values), max_size=3))
    return InstanceDelta(
        [Fact("Manager", r) for r in ins], [Fact("Manager", r) for r in dels]
    )


@settings(max_examples=60, deadline=None)
@given(manager_instances(), deltas(), deltas())
def test_delta_composition_is_application_order(inst, d1, d2):
    assert d1.then(d2).apply(inst).same_facts(d2.apply(d1.apply(inst)))


@settings(max_examples=60, deadline=None)
@given(manager_instances(), deltas(), deltas(), deltas())
def test_delta_composition_associative_on_states(inst, d1, d2, d3):
    left = d1.then(d2).then(d3)
    right = d1.then(d2.then(d3))
    assert left.apply(inst).same_facts(right.apply(inst))


@settings(max_examples=60, deadline=None)
@given(manager_instances(), manager_instances())
def test_diff_is_minimal_and_correct(old, new):
    delta = InstanceDelta.diff(old, new)
    assert delta.apply(old).same_facts(new)
    # Minimality: every insert is genuinely new, every delete was present.
    assert all(f not in old for f in delta.inserts)
    assert all(f in old for f in delta.deletes)


# --- incremental exchange -----------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=50))
def test_incremental_refresh_equals_recompute(seed, edit_seed):
    mapping, inst = random_exchange_setting(
        seed, n_source_relations=2, n_target_relations=2, n_tgds=2,
        rows_per_relation=5,
    )
    engine = ExchangeEngine.compile(mapping, Statistics.gather(inst))
    incremental = IncrementalExchange(engine.lens)
    old_target = engine.lens.get(inst)

    rng = random.Random(edit_seed)
    facts = sorted(inst.facts(), key=repr)
    deletes = [f for f in facts if rng.random() < 0.3][:3]
    rel = rng.choice(list(mapping.source))
    inserts = [
        Fact(
            rel.name,
            tuple(constant(f"p{edit_seed}_{i}") for i in range(rel.arity)),
        )
    ]
    delta = InstanceDelta(inserts, deletes)
    refreshed = incremental.refresh(delta, inst, old_target)
    recomputed = engine.lens.get(delta.apply(inst))
    assert refreshed.same_facts(recomputed)
