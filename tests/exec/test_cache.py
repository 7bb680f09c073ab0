"""Tests for fingerprints and the exchange solution cache (repro.exec.cache)."""

import pytest

from repro.exec import ExchangeCache, mapping_fingerprint
from repro.logic.parser import parse_conjunction
from repro.logic.terms import Var
from repro.mapping import SchemaMapping
from repro.mapping.dependencies import Egd
from repro.relational import instance, relation, schema
from repro.relational.instance import Instance
from repro.relational.values import LabeledNull, SkolemValue, constant


SRC = schema(relation("Emp", "name", "dept"), relation("Dept", "dept", "head"))
TGT = schema(relation("Office", "name", "head", "room"))
JOIN_TEXT = "Emp(n, d), Dept(d, h) -> exists m . Office(n, h, m)"


class TestInstanceFingerprint:
    def test_stable_across_construction_order(self):
        a = instance(SRC, {"Emp": [["e1", "d1"], ["e2", "d1"]],
                           "Dept": [["d1", "h1"]]})
        b = instance(SRC, {"Dept": [["d1", "h1"]],
                           "Emp": [["e2", "d1"], ["e1", "d1"]]})
        assert a.fingerprint() == b.fingerprint()

    def test_differs_on_different_facts(self):
        a = instance(SRC, {"Emp": [["e1", "d1"]]})
        b = instance(SRC, {"Emp": [["e1", "d2"]]})
        assert a.fingerprint() != b.fingerprint()

    def test_differs_on_relation_placement(self):
        pair = schema(relation("P", "x", "y"), relation("Q", "x", "y"))
        a = instance(pair, {"P": [["v", "w"]]})
        b = instance(pair, {"Q": [["v", "w"]]})
        assert a.fingerprint() != b.fingerprint()

    def test_value_kinds_are_tagged(self):
        one = schema(relation("R", "x"))
        with_const = Instance(one, {"R": {(constant("7"),)}})
        with_null = Instance(one, {"R": {(LabeledNull(7),)}})
        with_skolem = Instance(one, {"R": {(SkolemValue("f", (constant(7),)),)}})
        prints = {
            with_const.fingerprint(),
            with_null.fingerprint(),
            with_skolem.fingerprint(),
        }
        assert len(prints) == 3

    def test_scalar_type_matters(self):
        one = schema(relation("R", "x"))
        assert (
            Instance(one, {"R": {(constant(1),)}}).fingerprint()
            != Instance(one, {"R": {(constant("1"),)}}).fingerprint()
        )

    def test_cached_after_first_call(self):
        a = instance(SRC, {"Emp": [["e1", "d1"]]})
        assert a.fingerprint() is a.fingerprint()

    def test_construction_path_does_not_leak_into_the_key(self):
        # The fingerprint hashes the canonical store's packed buffers, so
        # every way of building the same facts — bulk constructor,
        # row-by-row builder, flat-buffer and JSON decode — must yield
        # one cache key.
        from repro.relational.columnar import pack_instance, unpack_instance
        from repro.relational.serialization import (
            instance_from_json,
            instance_to_json,
        )
        from repro.relational.instance import InstanceBuilder

        facts = {"Emp": [["e1", "d1"], ["e2", "d2"]], "Dept": [["d1", "h1"]]}
        bulk = instance(SRC, facts)
        builder = InstanceBuilder(SRC)
        for name, rows in facts.items():
            for row in rows:
                builder.add_row(name, row)
        built = builder.build()
        buffer = pack_instance(bulk)
        variants = [
            built,
            unpack_instance(buffer),
            instance_from_json(instance_to_json(bulk)),
        ]
        reference = bulk.fingerprint()
        assert all(v.fingerprint() == reference for v in variants)

    def test_equal_instances_share_a_cache_entry(self):
        cache = ExchangeCache(capacity=4)
        a = instance(SRC, {"Emp": [["e1", "d1"]]})
        b = instance(SRC, {"Emp": [["e1", "d1"]]})  # equal, distinct object
        solution = instance(TGT, {"Office": [["e1", "h", "r"]]})
        cache.store("m", a.fingerprint(), solution)
        assert cache.lookup("m", b.fingerprint()) is solution


class TestMappingFingerprint:
    def test_equal_mappings_agree(self):
        a = SchemaMapping.parse(SRC, TGT, JOIN_TEXT)
        b = SchemaMapping.parse(SRC, TGT, JOIN_TEXT)
        assert mapping_fingerprint(a) == mapping_fingerprint(b)

    def test_different_tgds_differ(self):
        a = SchemaMapping.parse(SRC, TGT, JOIN_TEXT)
        b = SchemaMapping.parse(
            SRC, TGT, "Emp(n, d), Dept(d, h) -> exists m . Office(h, n, m)"
        )
        assert mapping_fingerprint(a) != mapping_fingerprint(b)

    def test_target_dependencies_differ(self):
        egd = Egd(parse_conjunction("Office(n, h, m), Office(n, h2, m2)"),
                  Var("h"), Var("h2"))
        a = SchemaMapping.parse(SRC, TGT, JOIN_TEXT)
        b = SchemaMapping.parse(SRC, TGT, JOIN_TEXT, [egd])
        assert mapping_fingerprint(a) != mapping_fingerprint(b)


class TestExchangeCache:
    def solution(self, tag):
        return instance(TGT, {"Office": [[tag, "h", "r"]]})

    def test_miss_then_hit(self):
        cache = ExchangeCache(capacity=2)
        assert cache.lookup("m", "s") is None
        cache.store("m", "s", self.solution("a"))
        assert cache.lookup("m", "s") is not None
        assert (cache.hits, cache.misses) == (1, 1)

    def test_lru_eviction_order(self):
        cache = ExchangeCache(capacity=2)
        cache.store("m", "s1", self.solution("a"))
        cache.store("m", "s2", self.solution("b"))
        cache.lookup("m", "s1")          # s1 becomes most-recent
        cache.store("m", "s3", self.solution("c"))  # evicts s2
        assert cache.lookup("m", "s2") is None
        assert cache.lookup("m", "s1") is not None
        assert cache.lookup("m", "s3") is not None
        assert len(cache) == 2

    def test_mapping_key_separates_entries(self):
        cache = ExchangeCache(capacity=4)
        cache.store("m1", "s", self.solution("a"))
        assert cache.lookup("m2", "s") is None

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ExchangeCache(capacity=0)

    def test_clear(self):
        cache = ExchangeCache(capacity=2)
        cache.store("m", "s", self.solution("a"))
        cache.clear()
        assert len(cache) == 0
        assert cache.lookup("m", "s") is None

    def test_repr_mentions_counts(self):
        cache = ExchangeCache(capacity=3)
        cache.store("m", "s", self.solution("a"))
        cache.lookup("m", "s")
        assert "1/3" in repr(cache)
        assert "hits=1" in repr(cache)


class TestProvenanceEntries:
    def make_solution(self):
        return instance(TGT, {"Office": [["e1", "h1", "r1"]]})

    def test_provenance_less_entry_misses_when_required(self):
        from repro.provenance import ProvenanceLog

        cache = ExchangeCache(4)
        cache.store("m", "s", self.make_solution())
        assert cache.lookup("m", "s") is not None
        assert cache.lookup_entry("m", "s", require_provenance=True) is None

    def test_entry_with_provenance_satisfies_both_lookups(self):
        from repro.provenance import ProvenanceLog

        cache = ExchangeCache(4)
        log = ProvenanceLog()
        solution = self.make_solution()
        cache.store("m", "s", solution, log)
        assert cache.lookup("m", "s") == solution
        entry = cache.lookup_entry("m", "s", require_provenance=True)
        assert entry is not None
        assert entry[0] == solution and entry[1] is log

    def test_storing_again_upgrades_in_place(self):
        from repro.provenance import ProvenanceLog

        cache = ExchangeCache(4)
        solution = self.make_solution()
        cache.store("m", "s", solution)
        cache.store("m", "s", solution, ProvenanceLog())
        assert cache.lookup_entry("m", "s", require_provenance=True) is not None
