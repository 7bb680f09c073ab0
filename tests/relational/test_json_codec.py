"""The JSON instance codec against the fact-at-a-time oracle.

:func:`reference_from_json` is the decoder as it was before sources
decoded straight into id columns: one :class:`Value` per cell, one
:class:`Fact` per row, the validating constructor.
:func:`~repro.relational.serialization.instance_from_json` collects raw
columns and builds the canonical column store; the two must give equal
instances with equal fingerprints and reprs.  The encoder
(:func:`~repro.relational.serialization.fact_texts` and friends) must
write exactly the bytes ``json.dumps`` writes for
:func:`~repro.relational.serialization.instance_to_json` and
:meth:`~repro.service.streaming.FactChunk.as_dict`, in both separator
styles.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapping import SchemaMapping
from repro.mapping.chase import chase
from repro.relational import relation, schema
from repro.relational.columnar import pack_instance, unpack_instance
from repro.relational.instance import InstanceBuilder
from repro.relational.schema import Attribute, AttributeType, RelationSchema, Schema
from repro.relational.serialization import (
    fact_texts,
    instance_from_json,
    instance_json_text,
    instance_to_json,
    schema_from_json,
    schema_to_json,
    value_from_json,
)
from repro.service.streaming import fact_chunks, fact_lines

SEPARATORS = [(", ", ": "), (",", ":")]

UNTYPED = schema(
    relation("R", "a", "b"),
    relation("S", "c"),
    relation("E", "d", "e", "f"),
    relation("Z"),
)
TYPED = Schema(
    [
        RelationSchema(
            "T",
            [
                Attribute("i", AttributeType.INTEGER),
                Attribute("s", AttributeType.STRING),
                Attribute("x", AttributeType.FLOAT),
                Attribute("b", AttributeType.BOOLEAN),
            ],
        ),
        RelationSchema("U", [Attribute("a")]),
    ]
)


def reference_from_json(data):
    """The fact-at-a-time decoder: a value per cell, a fact per row."""
    builder = InstanceBuilder(schema_from_json(data["schema"]))
    for fact in data["facts"]:
        builder.add_row(fact["relation"], [value_from_json(v) for v in fact["row"]])
    return builder.build()


def const(raw):
    return {"const": raw}


texts = st.text(alphabet='ab"\\\n\t\x00é€😀/', max_size=4)
big_ints = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=2**62, max_value=2**80),
)
floats = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 0.5, 1e300]),
    st.floats(allow_nan=True, allow_infinity=True, width=32),
)
scalars = st.one_of(texts, big_ints, floats, st.booleans(), st.none())
nulls = st.builds(lambda label: {"null": label}, st.integers(min_value=0, max_value=6))
skolems = st.recursive(
    st.builds(const, scalars) | nulls,
    lambda inner: st.builds(
        lambda name, args: {"skolem": name, "args": args},
        st.sampled_from(["f", "g"]),
        st.lists(inner, min_size=1, max_size=2),
    ),
    max_leaves=4,
)
cells = st.one_of(
    st.builds(const, scalars),
    st.builds(const, scalars),
    st.builds(const, texts),
    nulls,
    skolems,
)
typed_cells = {
    "i": st.builds(const, big_ints) | nulls,
    "s": st.builds(const, texts) | nulls,
    "x": st.builds(const, floats | big_ints) | nulls,
    "b": st.builds(const, st.booleans()) | nulls,
    "a": cells,
}


@st.composite
def documents(draw, typed=False):
    """An instance's JSON encoding, duplicate facts included."""
    target = TYPED if typed else UNTYPED
    facts = []
    for rel in target:
        cell = [
            typed_cells[a.name] if typed else cells for a in rel.attributes
        ]
        rows = draw(
            st.lists(st.tuples(*cell).map(list), max_size=6)
            if rel.arity
            else st.lists(st.just([]), max_size=2)
        )
        facts.extend({"relation": rel.name, "row": row} for row in rows)
    if facts:
        # repeat some facts, reorder everything
        facts.extend(draw(st.lists(st.sampled_from(facts), max_size=3)))
        facts = draw(st.permutations(facts))
    return {"schema": schema_to_json(target), "facts": facts}


def assert_decodes_like_the_oracle(data):
    decoded = instance_from_json(data)
    oracle = reference_from_json(data)
    assert decoded == oracle
    assert repr(decoded) == repr(oracle)
    assert decoded.fingerprint() == oracle.fingerprint()


@settings(max_examples=200, deadline=None)
@given(documents())
def test_decoder_matches_the_oracle(data):
    assert_decodes_like_the_oracle(data)


@settings(max_examples=100, deadline=None)
@given(documents(typed=True))
def test_typed_decoder_matches_the_oracle(data):
    assert_decodes_like_the_oracle(data)


@settings(max_examples=100, deadline=None)
@given(documents())
def test_decoder_matches_the_oracle_through_json_text(data):
    # every NaN is its own object once the document went through text
    assert_decodes_like_the_oracle(json.loads(json.dumps(data)))


@pytest.mark.parametrize(
    "rows, kept",
    [
        ([[1], [True]], "⟨S(1)⟩"),
        ([[True], [1.0], [1]], "⟨S(True)⟩"),
        ([[-0.0], [0.0]], "⟨S(-0.0)⟩"),
    ],
)
def test_first_of_equal_facts_is_kept(rows, kept):
    data = {
        "schema": schema_to_json(UNTYPED),
        "facts": [{"relation": "S", "row": [const(v) for v in row]} for row in rows],
    }
    assert repr(instance_from_json(data)) == kept


def test_mixed_equal_constants_keep_their_print():
    data = {
        "schema": schema_to_json(UNTYPED),
        "facts": [{"relation": "R", "row": [const(1), const(True)]}],
    }
    decoded = instance_from_json(data)
    assert repr(decoded) == "⟨R(1, True)⟩"
    assert decoded.fingerprint() == reference_from_json(data).fingerprint()


def test_decoding_builds_no_value_objects():
    data = {
        "schema": schema_to_json(UNTYPED),
        "facts": [
            {"relation": "R", "row": [const("a"), const(7)]},
            {"relation": "R", "row": [const("b"), {"null": 3}]},
            {"relation": "Z", "row": []},
        ],
    }
    decoded = instance_from_json(data)
    assert decoded._rels is None
    store = decoded.columnar_store
    assert store.canonical and store._table is None
    decoded.fingerprint()
    assert decoded.columnar() is store  # the fingerprint reads the decoded store
    assert decoded._rels is None and store._table is None


# -- malformed encodings ------------------------------------------------------

SRC_JSON = schema_to_json(TYPED)

MALFORMED = {
    "not an object": [],
    "missing facts": {"schema": SRC_JSON},
    "missing schema": {"facts": []},
    "facts not a list": {"schema": SRC_JSON, "facts": {}},
    "unknown relation": {
        "schema": SRC_JSON,
        "facts": [{"relation": "Nope", "row": [const("a")]}],
    },
    "fact without row": {"schema": SRC_JSON, "facts": [{"relation": "U"}]},
    "fact not an object": {"schema": SRC_JSON, "facts": [["U", [const("a")]]]},
    "row not a list": {
        "schema": SRC_JSON,
        "facts": [{"relation": "U", "row": const("a")}],
    },
    "wrong arity": {
        "schema": SRC_JSON,
        "facts": [{"relation": "U", "row": [const("a"), const("b")]}],
    },
    "cell not an object": {
        "schema": SRC_JSON,
        "facts": [{"relation": "U", "row": [1]}],
    },
    "unknown cell kind": {
        "schema": SRC_JSON,
        "facts": [{"relation": "U", "row": [{"bogus": 1}]}],
    },
    "const list": {
        "schema": SRC_JSON,
        "facts": [{"relation": "U", "row": [const([1])]}],
    },
    "const dict": {
        "schema": SRC_JSON,
        "facts": [{"relation": "U", "row": [const({"a": 1})]}],
    },
    "const list in a skolem": {
        "schema": SRC_JSON,
        "facts": [
            {"relation": "U", "row": [{"skolem": "f", "args": [const([1])]}]}
        ],
    },
    "typed mismatch": {
        "schema": SRC_JSON,
        "facts": [
            {
                "relation": "T",
                "row": [const("one"), const("s"), const(1.0), const(True)],
            }
        ],
    },
    "bool for integer": {
        "schema": SRC_JSON,
        "facts": [
            {"relation": "T", "row": [const(True), const("s"), const(1.0), const(True)]}
        ],
    },
    "bad null label": {
        "schema": SRC_JSON,
        "facts": [{"relation": "U", "row": [{"null": "x"}]}],
    },
}


@pytest.mark.parametrize("data", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_encodings_raise_value_error(data):
    with pytest.raises(ValueError):
        instance_from_json(data)


def test_typed_mismatch_names_the_value():
    with pytest.raises(ValueError, match="'one' is not of type integer for T.i"):
        instance_from_json(MALFORMED["typed mismatch"])


# -- the encoder ---------------------------------------------------------------


def assert_encodes_like_json_dumps(make):
    """*make()* twice: one copy encoded from columns, one via instance_to_json."""
    for separators in SEPARATORS:
        fresh = make()
        expected = json.dumps(instance_to_json(make()), separators=separators)
        assert instance_json_text(fresh, separators) == expected
        facts = [
            json.dumps(f, separators=separators)
            for f in instance_to_json(make())["facts"]
        ]
        assert fact_texts(make(), separators) == facts


def ndjson(chunk):
    return json.dumps(chunk.as_dict(), separators=(",", ":")).encode() + b"\n"


def assert_lines_match_chunks(make, chunk_facts):
    lines = list(fact_lines(make(), chunk_facts))
    assert lines == [ndjson(c) for c in fact_chunks(make(), chunk_facts)]


@settings(max_examples=150, deadline=None)
@given(documents())
def test_encoder_matches_json_dumps_on_decoded_sources(data):
    assert_encodes_like_json_dumps(lambda: instance_from_json(data))


@settings(max_examples=150, deadline=None)
@given(documents(), st.integers(min_value=1, max_value=4))
def test_encoder_matches_json_dumps_on_unpacked_buffers(data, chunk_facts):
    buffer = pack_instance(reference_from_json(data))
    assert unpack_instance(buffer)._rels is None
    assert_encodes_like_json_dumps(lambda: unpack_instance(buffer))
    assert_lines_match_chunks(lambda: unpack_instance(buffer), chunk_facts)


@settings(max_examples=60, deadline=None)
@given(documents(typed=True), st.integers(min_value=1, max_value=3))
def test_encoder_matches_json_dumps_on_value_instances(data, chunk_facts):
    assert_encodes_like_json_dumps(lambda: reference_from_json(data))
    assert_lines_match_chunks(lambda: reference_from_json(data), chunk_facts)


TWO_TGDS = SchemaMapping.parse(
    schema(relation("A", "x", "y"), relation("B", "x")),
    schema(relation("P", "x", "n"), relation("Q", "x")),
    """
    A(x, y) -> exists n . P(x, n), Q(x)
    B(x) -> Q(x)
    A(x, y) -> Q(y)
    """,
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(scalars, scalars), max_size=5),
    st.lists(scalars, max_size=5),
    st.integers(min_value=1, max_value=3),
)
def test_encoder_matches_json_dumps_on_chase_solutions(a_rows, b_rows, chunk_facts):
    data = {
        "schema": schema_to_json(TWO_TGDS.source),
        "facts": [{"relation": "A", "row": [const(x), const(y)]} for x, y in a_rows]
        + [{"relation": "B", "row": [const(x)]} for x in b_rows],
    }
    source = instance_from_json(data)

    def solve():
        return chase(TWO_TGDS, source).solution

    assert_encodes_like_json_dumps(solve)
    assert_lines_match_chunks(solve, chunk_facts)


def test_two_tgds_emitting_one_fact_encode_it_once():
    data = {
        "schema": schema_to_json(TWO_TGDS.source),
        "facts": [
            {"relation": "A", "row": [const("k"), const("k")]},
            {"relation": "B", "row": [const("k")]},
        ],
    }
    solution = chase(TWO_TGDS, instance_from_json(data)).solution
    assert solution._rels is None
    assert fact_texts(solution, (",", ":")) == [
        '{"relation":"P","row":[{"const":"k"},{"null":0}]}',
        '{"relation":"Q","row":[{"const":"k"}]}',
    ]
    assert solution._rels is None  # encoded from the id columns


def test_empty_and_zero_arity_relations():
    data = {
        "schema": schema_to_json(UNTYPED),
        "facts": [{"relation": "Z", "row": []}, {"relation": "Z", "row": []}],
    }
    decoded = instance_from_json(data)
    assert decoded.size() == 1
    assert fact_texts(decoded) == ['{"relation": "Z", "row": []}']
    empty = instance_from_json({"schema": schema_to_json(UNTYPED), "facts": []})
    assert fact_texts(empty) == []
    assert instance_json_text(empty) == json.dumps(instance_to_json(empty))
