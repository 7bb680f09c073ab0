"""Tests for statistics gathering and estimation."""

import pytest

from repro.relational import dumps_instance, instance, loads_instance, relation, schema
from repro.stats import RelationStatistics, Statistics


@pytest.fixture
def db():
    s = schema(relation("Emp", "name", "dept"), relation("Dept", "dept", "head"))
    inst = instance(
        s,
        {
            "Emp": [["a", "d1"], ["b", "d1"], ["c", "d2"], ["d", "d2"]],
            "Dept": [["d1", "h1"], ["d2", "h2"]],
        },
    )
    return s, inst


class TestGather:
    def test_cardinalities(self, db):
        _, inst = db
        stats = Statistics.gather(inst)
        assert stats.cardinality("Emp") == 4
        assert stats.cardinality("Dept") == 2

    def test_distinct_counts(self, db):
        _, inst = db
        stats = Statistics.gather(inst)
        assert stats.for_relation("Emp").distinct_of("name") == 4
        assert stats.for_relation("Emp").distinct_of("dept") == 2

    def test_unknown_relation_defaults_to_zero(self, db):
        _, inst = db
        stats = Statistics.gather(inst)
        assert stats.cardinality("Nope") == 0

    def test_store_statistics_match_gathered_ones(self, db):
        _, inst = db
        # A decoded source reads its rows from the store; of_store builds none.
        decoded = loads_instance(dumps_instance(inst))
        assert Statistics.of_store(decoded.columnar()) == Statistics.gather(inst)
        assert decoded._rels is None


class TestEstimates:
    def test_equality_selectivity(self, db):
        _, inst = db
        stats = Statistics.gather(inst)
        assert stats.for_relation("Emp").equality_selectivity("dept") == 0.5

    def test_selectivity_on_empty_relation(self):
        stats = RelationStatistics("R", 0)
        assert stats.equality_selectivity("a") == 0.0

    def test_join_size_estimate(self, db):
        _, inst = db
        stats = Statistics.gather(inst)
        estimate = stats.estimate_join_size("Emp", "Dept", ("dept",), ("dept",))
        # |Emp| * |Dept| / max(distinct) = 4*2/2 = 4 — the true join size.
        assert estimate == 4.0

    def test_assumed_statistics(self, db):
        s, _ = db
        stats = Statistics.assumed(s, default_cardinality=100)
        assert stats.cardinality("Emp") == 100
        assert stats.for_relation("Emp").distinct_of("name") == 10

    def test_merge_prefers_right(self, db):
        _, inst = db
        gathered = Statistics.gather(inst)
        override = Statistics({"Emp": RelationStatistics("Emp", 999)})
        merged = gathered.merge(override)
        assert merged.cardinality("Emp") == 999
        assert merged.cardinality("Dept") == 2

    def test_distinct_defaults_to_cardinality(self):
        stats = RelationStatistics("R", 7)
        assert stats.distinct_of("missing") == 7
