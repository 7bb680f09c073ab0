"""The column-at-a-time store build against a row-at-a-time oracle.

:func:`reference_build` is the straightforward build: collect every
cell's value, keep each equality group's smallest member, sort the
domain by ``value_sort_key`` and encode relations as sorted id-tuple
rows.  :meth:`ColumnStore.build` unwraps whole columns to raw scalars,
sorts constants per type natively and sorts packed integer keys; the
two must produce the same value table, ids, columns, counts and digest.
The digest must also survive the flat-buffer codec round-trip.
"""

from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational import Fact, Instance, LabeledNull, constant, relation, schema
from repro.relational.columnar import (
    ColumnStore,
    pack_instance,
    unpack_instance,
    width_code,
)
from repro.relational.values import Constant, SkolemValue, value_sort_key

SCHEMA = schema(
    relation("R", "a", "b"),
    relation("S", "c"),
    relation("E", "d", "e", "f"),
    relation("Z"),
)


def reference_build(instance: Instance) -> ColumnStore:
    """The row-at-a-time canonical build, with the representative rule."""
    best: dict = {}
    for name in instance.relation_names():
        for row in instance.rows(name):
            for value in row:
                rank = (value_sort_key(value), repr(value))
                held = best.get(value)
                if held is None or rank < held[0]:
                    best[value] = (rank, value)
    values = sorted((value for _, value in best.values()), key=value_sort_key)
    ids = {
        value.value if type(value) is Constant else value: ident
        for ident, value in enumerate(values)
    }
    code = width_code(len(values))
    counts, cols_by_rel = {}, {}
    for name in instance.relation_names():
        arity = instance.schema[name].arity
        keys = sorted(
            tuple(ids[v.value] if type(v) is Constant else ids[v] for v in row)
            for row in instance.rows(name)
        )
        counts[name] = len(keys)
        if keys and arity:
            cols_by_rel[name] = tuple(array(code, col) for col in zip(*keys))
        else:
            cols_by_rel[name] = tuple(array(code) for _ in range(arity))
    return ColumnStore(
        instance.schema,
        [v.value for v in values if type(v) is Constant],
        [v.label for v in values if type(v) is LabeledNull],
        [v for v in values if type(v) is SkolemValue],
        counts,
        cols_by_rel,
        canonical=True,
    )


scalars = st.one_of(
    st.text(max_size=3),
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 0.5, -2.5]),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.booleans(),
)
constants = st.builds(constant, scalars)
skolems = st.builds(
    SkolemValue,
    st.sampled_from(["f", "g"]),
    st.lists(constants, min_size=1, max_size=2).map(tuple),
)
values = st.one_of(
    constants,
    constants,
    st.builds(LabeledNull, st.integers(min_value=0, max_value=6)),
    skolems,
)


@st.composite
def instances(draw):
    facts = []
    for name in ("R", "S", "E"):
        arity = SCHEMA[name].arity
        for _ in range(draw(st.integers(min_value=0, max_value=7))):
            facts.append(Fact(name, tuple(draw(values) for _ in range(arity))))
    if draw(st.booleans()):
        facts.append(Fact("Z", ()))
    return Instance(SCHEMA, facts)


def typed(values_list):
    """Values compared with their types (``1 == True`` is not enough)."""
    return [(value_sort_key(v), repr(v)) for v in values_list]


def assert_same_store(store: ColumnStore, reference: ColumnStore) -> None:
    assert typed(store.values) == typed(reference.values)
    assert store.constant_count == reference.constant_count
    assert store.labeled_count == reference.labeled_count
    assert store.counts == {
        name: len(rows) for name, rows in reference.rows.items()
    }
    assert store.columns == reference.columns
    assert store.digest() == reference.digest()


@settings(max_examples=150, deadline=None)
@given(instances())
def test_build_matches_the_reference(inst):
    built = ColumnStore.build(inst)
    assert built.canonical
    assert_same_store(built, reference_build(inst))


@settings(max_examples=80, deadline=None)
@given(instances())
def test_digest_survives_both_decoders(inst):
    buffer = pack_instance(inst)
    digest = inst.fingerprint()
    assert unpack_instance(buffer).columnar_store.digest() == digest


def test_fingerprint_does_not_materialize_the_table():
    inst = Instance(
        SCHEMA,
        [Fact("R", (constant("x"), LabeledNull(2))), Fact("S", (constant(1.5),))],
    )
    inst.fingerprint()
    assert inst.columnar_store._table is None
