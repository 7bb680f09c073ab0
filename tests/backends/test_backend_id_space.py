"""The SQL backend runs in the source's column-store id space.

The driver loads the ids of ``source.columnar()``, gives program
constants the source lacks the ids after its constants, and builds the
answer as a column store.  These tests pin the cases that layout has to
get right: typed target columns, sources holding labelled nulls and
Skolem values, the constant predicate ``C(x)`` and conclusion constants
absent from the source, on both the fused and the temp-table paths.
"""

import pytest

from repro.backends import compile_mapping
from repro.backends.sqlite_backend import SqliteBackend
from repro.mapping import SchemaMapping, universal_solution
from repro.relational import homomorphically_equivalent, instance, relation, schema
from repro.relational.schema import Attribute, AttributeType, RelationSchema, Schema
from repro.relational.values import Constant, LabeledNull, SkolemValue


def sqlite_answer(mapping, source):
    program, report = compile_mapping(mapping)
    assert report.compilable, report.summary()
    backend = SqliteBackend(mapping, program)
    return backend.exchange(source), backend


def test_typed_target_column_raises_the_interpreted_type_error():
    src = schema(relation("R", "a"))
    tgt = Schema([RelationSchema("T", [Attribute("a", AttributeType.INTEGER)])])
    mapping = SchemaMapping.parse(src, tgt, "R(a) -> T(a)")
    source = instance(src, {"R": [["nope"]]})
    with pytest.raises(TypeError) as interpreted:
        universal_solution(mapping, source)
    with pytest.raises(TypeError) as sql:
        sqlite_answer(mapping, source)
    assert str(sql.value) == str(interpreted.value)
    assert "'nope' is not of type integer for T.a" in str(sql.value)


SKOLEM = SkolemValue("f", (Constant("x"),))

MAPPINGS = {
    # Every block concludes one atom: the driver fetches the fused
    # SELECTs and never builds target tables.
    "fused": (
        'R(a, b) -> exists z . T(a, z, "tag")\n'
        "R(a, b), C(b) -> K(b)\n"
        'R("absent", b) -> E(b)'
    ),
    # A two-atom block: bindings temp tables and INSERTs.
    "tables": (
        'R(a, b) -> exists z . T(a, z, "tag"), E(z)\n'
        "R(a, b), C(b) -> K(b)"
    ),
}


@pytest.mark.parametrize("text", MAPPINGS.values(), ids=MAPPINGS)
def test_skolem_source_with_new_program_constants(text):
    src = schema(relation("R", "a", "b"))
    tgt = schema(relation("T", "a", "n", "t"), relation("K", "b"), relation("E", "x"))
    mapping = SchemaMapping.parse(src, tgt, text)
    source = instance(
        src,
        {
            "R": [
                ["x", "y"],
                [SKOLEM, "y"],
                ["x", LabeledNull(3)],
                [LabeledNull(3), SKOLEM],
            ]
        },
    )
    sql, backend = sqlite_answer(mapping, source)
    interpreted = universal_solution(mapping, source)
    assert homomorphically_equivalent(sql, interpreted)
    # C(b) keeps the constant only: the label and the Skolem value sit
    # above the constant region, which "tag" and "absent" widened.
    assert sql.rows("K") == {(Constant("y"),)}
    # Source values reach the answer unchanged; fresh nulls get new labels.
    firsts = {row[0] for row in sql.rows("T")}
    assert firsts == {Constant("x"), SKOLEM, LabeledNull(3)}
    fresh = {row[1] for row in sql.rows("T")}
    assert len(fresh) == len(sql.rows("T")) and LabeledNull(3) not in fresh
    assert all(type(null) is LabeledNull for null in fresh)
    assert {row[2] for row in sql.rows("T")} == {Constant("tag")}
    assert backend.last_run["core"] is False


def test_untyped_answer_is_store_backed():
    src = schema(relation("R", "a"))
    tgt = schema(relation("T", "a"), relation("U", "a"))
    mapping = SchemaMapping.parse(src, tgt, "R(a) -> T(a)")
    sql, _ = sqlite_answer(mapping, instance(src, {"R": [["v"], ["w"]]}))
    assert sql.columnar_store is not None
    assert sql.rows("T") == {(Constant("v"),), (Constant("w"),)}
    assert sql.rows("U") == frozenset()


def test_writers_of_one_table_emit_each_row_once():
    src = schema(relation("A", "x"), relation("B", "x"))
    tgt = schema(relation("T", "x"))
    mapping = SchemaMapping.parse(src, tgt, "A(x) -> T(x)\nB(x) -> T(x)")
    source = instance(src, {"A": [["v"], ["w"]], "B": [["v"]]})
    sql, _ = sqlite_answer(mapping, source)
    assert sql.size() == 2
    assert sql == universal_solution(mapping, source)
