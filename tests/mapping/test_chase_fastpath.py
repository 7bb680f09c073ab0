"""The id-space st-tgd chase fast path vs the value-space engine.

When a source instance carries a column store, :func:`chase` routes the
st-tgd phase through :func:`_chase_st_tgds_ids`, which fires tgds
entirely over integer ids.  Its contract is *exact* agreement with the
value-space engine — same facts, same fresh-null labels — on canonical
(and lazily decoded canonical) stores, and a clean decline back to the
value path whenever any tgd is ineligible.  A spy around the fast path
distinguishes "engaged", "declined" and "never attempted".
"""

import importlib

import pytest

# the package re-exports the chase *function* under the same name, so the
# module object needs an explicit import
chase_mod = importlib.import_module("repro.mapping.chase")
from repro.mapping import SchemaMapping, universal_solution
from repro.mapping.chase import ChaseVariant, chase
from repro.mapping.dependencies import Egd
from repro.logic.parser import parse_conjunction
from repro.logic.terms import Var
from repro.options import ExchangeOptions
from repro.relational import instance, relation, schema
from repro.relational.canonical import canonically_equal
from repro.relational.columnar import pack_instance, unpack_instance
from repro.relational.instance import Instance
from repro.relational.schema import (
    Attribute,
    AttributeType,
    RelationSchema,
    Schema,
)
from repro.relational.values import LabeledNull, SkolemValue, constant


SRC = schema(relation("Emp", "name", "dept"), relation("Dept", "dept", "head"))
TGT = schema(relation("Office", "name", "head", "room"))
JOIN_TEXT = "Emp(n, d), Dept(d, h) -> exists m . Office(n, h, m)"


def join_mapping(target_dependencies=()):
    return SchemaMapping.parse(SRC, TGT, JOIN_TEXT, target_dependencies)


def clustered_source(employees=9, depts=3):
    return instance(
        SRC,
        {
            "Emp": [[f"e{i}", f"d{i % depts}"] for i in range(employees)],
            "Dept": [[f"d{j}", f"h{j}"] for j in range(depts)],
        },
    )


@pytest.fixture
def spy(monkeypatch):
    """Record whether the fast path ran and whether it produced a result."""
    outcome = {}
    original = chase_mod._chase_st_tgds_ids

    def wrapper(mapping, source, factory, stats):
        result = original(mapping, source, factory, stats)
        outcome["engaged"] = result is not None
        return result

    monkeypatch.setattr(chase_mod, "_chase_st_tgds_ids", wrapper)
    return outcome


def stored_copy(inst):
    copy = Instance(inst.schema, list(inst.facts()))
    copy.columnar()
    return copy


class TestExactEquivalence:
    def test_same_facts_and_null_labels_as_value_path(self, spy):
        source = clustered_source()
        fast = universal_solution(join_mapping(), stored_copy(source))
        assert spy["engaged"]
        slow = universal_solution(join_mapping(), source)
        assert not spy["engaged"]  # plain instance: no store, fast declines
        assert fast == slow  # exact, including invented null labels

    def test_lazily_decoded_source_stays_lazy(self, spy):
        source = clustered_source()
        shipped = unpack_instance(pack_instance(source))
        fast = universal_solution(join_mapping(), shipped)
        assert spy["engaged"]
        # the worker contract: chasing a shipped shard never builds its
        # value table (or the shard's tuple rows)
        assert shipped.columnar_store._table is None
        assert fast == universal_solution(join_mapping(), source)

    def test_source_nulls_keep_their_labels(self, spy):
        source = Instance(
            SRC,
            {
                "Emp": {
                    (LabeledNull(7), constant("d0")),
                    (constant("e1"), constant("d0")),
                },
                "Dept": {(constant("d0"), constant("h0"))},
            },
        )
        fast = universal_solution(join_mapping(), stored_copy(source))
        assert spy["engaged"]
        assert fast == universal_solution(join_mapping(), source)
        assert LabeledNull(7) in fast.nulls()
        # invented nulls start above the source's largest label
        assert all(n.label != 7 or n == LabeledNull(7) for n in fast.nulls())

    def test_novel_conclusion_constants(self, spy):
        mapping = SchemaMapping.parse(
            SRC,
            schema(relation("Badge", "name", "site")),
            'Emp(n, d) -> Badge(n, "HQ")',
        )
        source = clustered_source(employees=4)
        fast = universal_solution(mapping, stored_copy(source))
        assert spy["engaged"]
        assert fast == universal_solution(mapping, source)
        assert (constant("e0"), constant("HQ")) in fast.rows("Badge")

    def test_duplicate_conclusion_atoms_collapse(self, spy):
        mapping = SchemaMapping.parse(
            schema(relation("R", "x")),
            schema(relation("T", "x")),
            "R(x) -> T(x), T(x)",
        )
        source = instance(schema(relation("R", "x")), {"R": [["a"], ["b"]]})
        fast = universal_solution(mapping, stored_copy(source))
        assert spy["engaged"]
        assert fast == universal_solution(mapping, source)
        assert fast.size() == 2

    def test_no_existential_rows_dedupe(self, spy):
        mapping = SchemaMapping.parse(
            schema(relation("R", "x", "y")),
            schema(relation("T", "x")),
            "R(x, y) -> T(x)",
        )
        source = instance(
            schema(relation("R", "x", "y")),
            {"R": [["a", "b"], ["a", "c"], ["d", "e"]]},
        )
        fast = universal_solution(mapping, stored_copy(source))
        assert spy["engaged"]
        assert fast == universal_solution(mapping, source)
        assert len(fast.rows("T")) == 2

    def test_empty_source(self, spy):
        source = instance(SRC, {})
        fast = universal_solution(join_mapping(), stored_copy(source))
        assert spy["engaged"]
        assert fast.is_empty()


class TestDeclines:
    """Ineligible shapes fall back to the value path and stay correct."""

    def assert_declined_but_equal(self, spy, mapping, source):
        fast = universal_solution(mapping, stored_copy(source))
        assert spy["engaged"] is False
        assert canonically_equal(fast, universal_solution(mapping, source))

    def test_skolem_values_in_the_source(self, spy):
        source = Instance(
            SRC,
            {
                "Emp": {
                    (SkolemValue("f", (constant("x"),)), constant("d0")),
                },
                "Dept": {(constant("d0"), constant("h0"))},
            },
        )
        self.assert_declined_but_equal(spy, join_mapping(), source)

    def test_typed_target_columns(self, spy):
        target = Schema(
            [
                RelationSchema(
                    "Office",
                    [
                        Attribute("name", AttributeType.STRING),
                        Attribute("head", AttributeType.STRING),
                        Attribute("room", AttributeType.ANY),
                    ],
                )
            ]
        )
        mapping = SchemaMapping.parse(SRC, target, JOIN_TEXT)
        self.assert_declined_but_equal(spy, mapping, clustered_source(4, 2))

    def test_conclusion_constant_failing_type_check_declines(self, spy):
        target = Schema(
            [
                RelationSchema(
                    "Badge",
                    [
                        Attribute("name", AttributeType.ANY),
                        Attribute("code", AttributeType.INTEGER),
                    ],
                )
            ]
        )
        mapping = SchemaMapping.parse(SRC, target, 'Emp(n, d) -> Badge(n, "x")')
        source = stored_copy(clustered_source(2, 1))
        with pytest.raises(Exception):
            universal_solution(mapping, source)
        assert spy["engaged"] is False  # the value path raised, not the ids


class TestGates:
    """Request shapes the gate never sends to the fast path at all."""

    def assert_not_attempted(self, spy):
        assert "engaged" not in spy

    def test_standard_variant(self, spy):
        source = stored_copy(clustered_source(4, 2))
        chase(join_mapping(), source, ChaseVariant.STANDARD)
        self.assert_not_attempted(spy)

    def test_budgeted_run(self, spy):
        source = stored_copy(clustered_source(4, 2))
        chase(join_mapping(), source, options=ExchangeOptions(max_facts=10_000))
        self.assert_not_attempted(spy)

    def test_provenance_run(self, spy):
        source = stored_copy(clustered_source(4, 2))
        result = chase(join_mapping(), source, provenance=True)
        self.assert_not_attempted(spy)
        assert result.provenance.enabled

    def test_target_dependencies(self, spy):
        egd = Egd(
            parse_conjunction("Office(n, h, m), Office(n, h2, m2)"),
            Var("h"),
            Var("h2"),
        )
        source = stored_copy(clustered_source(4, 2))
        chase(join_mapping([egd]), source)
        self.assert_not_attempted(spy)
