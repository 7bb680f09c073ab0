"""Replay verification: recorded lineage re-derives the solution.

The acceptance property of the provenance subsystem: for every execution
path — serial chase, the service's exchange core, cache hit,
budget-interrupted service resume — :func:`repro.provenance.replay` re-fires every recorded
rule on its recorded justifying facts and confirms each solution fact
comes back, through every null relabeling and egd rewrite in between.
"""

import dataclasses

import pytest

from repro import ExchangeOptions, ExchangeService, PartialSolution, SchemaMapping
from repro.logic.parser import parse_rule
from repro.mapping import chase
from repro.mapping.dependencies import target_dependency_from_rule
from repro.provenance import ProvenanceLog, Solution, replay
from repro.relational import constant, instance, relation, schema


SRC = schema(relation("Emp", "name", "dept"), relation("Dept", "dept", "head"))
TGT = schema(relation("Office", "name", "head", "room"))
JOIN_TEXT = "Emp(n, d), Dept(d, h) -> exists m . Office(n, h, m)"


def join_mapping():
    return SchemaMapping.parse(SRC, TGT, JOIN_TEXT)


def clustered_source(employees=12, depts=4):
    return instance(
        SRC,
        {
            "Emp": [[f"e{i}", f"d{i % depts}"] for i in range(employees)],
            "Dept": [[f"d{j}", f"h{j}"] for j in range(depts)],
        },
    )


def target_rule(text):
    return target_dependency_from_rule(parse_rule(text))


def assert_replay_ok(solution, provenance, mapping, source):
    report = replay(solution, provenance, mapping, source=source)
    assert report.ok, report.render()
    size = solution.instance.size() if isinstance(solution, Solution) else solution.size()
    assert report.checked == size
    return report


class TestSerialReplay:
    def test_st_tgd_chase_replays(self):
        mapping = join_mapping()
        source = clustered_source()
        result = chase(mapping, source, provenance=True)
        report = assert_replay_ok(result.solution, result.provenance, mapping, source)
        assert report.verified == report.checked > 0

    def test_target_dependencies_and_egds_replay(self):
        source_schema = schema(relation("E", "n", "d"))
        target = schema(relation("Emp", "n", "d"), relation("Dept", "d", "h"))
        mapping = SchemaMapping.parse(
            source_schema,
            target,
            "E(n, d) -> Emp(n, d)",
            [
                target_rule("Emp(n, d) -> exists h . Dept(d, h)"),
                target_rule("Dept(d, h), Dept(d, h2) -> h = h2"),
            ],
        )
        source = instance(
            source_schema, {"E": [[f"e{i}", f"d{i % 3}"] for i in range(9)]}
        )
        result = chase(mapping, source, provenance=True)
        report = assert_replay_ok(result.solution, result.provenance, mapping, source)
        assert report.rewrites_checked >= 0  # egds may or may not fire

    def test_egd_rewrites_replay(self):
        source_schema = schema(relation("Emp", "name"))
        target = schema(relation("Manager", "emp", "mgr"))
        mapping = SchemaMapping.parse(
            source_schema,
            target,
            "Emp(n) -> exists w . Manager(n, w)\n"
            "Emp(n) -> exists v . Manager(n, v)",
            [target_rule("Manager(n, m), Manager(n, m2) -> m = m2")],
        )
        source = instance(source_schema, {"Emp": [["ava"], ["bo"]]})
        result = chase(mapping, source, provenance=True)
        report = assert_replay_ok(result.solution, result.provenance, mapping, source)
        assert report.rewrites_checked > 0


class TestExecutorReplay:
    def test_executor_exchange_replays(self):
        mapping = join_mapping()
        source = clustered_source(employees=16, depts=4)
        store = ProvenanceLog()
        options = ExchangeOptions(workers=2, provenance=store)
        with ExchangeService(mapping, options) as service:
            solution = service.exchange(source).instance
        assert len(store) > 0
        assert_replay_ok(solution, store, mapping, source)
        # Every invented null the log mentions exists in the solution.
        log_facts = set(store.facts())
        assert log_facts == set(solution.facts())


class TestCachedReplay:
    def test_cache_hit_returns_replayable_lineage(self):
        mapping = join_mapping()
        source = clustered_source()
        with ExchangeService(mapping, ExchangeOptions(workers=2, cache=4)) as service:
            first_store = ProvenanceLog()
            first = service.exchange(
                source, options=ExchangeOptions(provenance=first_store)
            ).instance
            hit_store = ProvenanceLog()
            hit = service.exchange(
                source, options=ExchangeOptions(provenance=hit_store)
            ).instance
            assert service.engine.cache.hits == 1
        assert first == hit
        assert_replay_ok(first, first_store, mapping, source)
        assert_replay_ok(hit, hit_store, mapping, source)

    def test_provenance_less_entry_upgrades_on_demand(self):
        mapping = join_mapping()
        source = clustered_source()
        with ExchangeService(mapping, ExchangeOptions(workers=2, cache=4)) as service:
            service.exchange(source)  # cached without provenance
            store = ProvenanceLog()
            solution = service.exchange(
                source, options=ExchangeOptions(provenance=store)
            ).instance
        assert len(store) > 0
        assert_replay_ok(solution, store, mapping, source)


class TestBudgetResumedReplay:
    def test_resumed_solution_explains_both_sides(self):
        source_schema = schema(relation("E", "n", "d"))
        target = schema(relation("Emp", "n", "d"), relation("Dept", "d"))
        mapping = SchemaMapping.parse(
            source_schema,
            target,
            "E(x, d) -> Emp(x, d)",
            [target_rule("Emp(x, d) -> Dept(d)")],
        )
        source = instance(
            source_schema, {"E": [[f"e{i}", f"d{i}"] for i in range(10)]}
        )
        options = ExchangeOptions(max_facts=12, provenance=True)
        with ExchangeService(mapping, options) as service:
            partial = service.exchange(source)
            assert isinstance(partial, PartialSolution)
            assert partial.token.phase == "target_dependencies"
            assert partial.provenance is not None
            assert len(partial.provenance) > 0
            resumed = service.resume(
                source, partial.token, options=ExchangeOptions(provenance=True)
            )
        assert isinstance(resumed, Solution)
        assert_replay_ok(resumed, resumed.provenance, mapping, source)
        # Lineage spans the interruption: facts from the st-tgd phase and
        # the resumed target-dependency phase are both justified.
        phases = {d.phase for d in resumed.provenance.derivations}
        assert phases == {"st_tgds", "target_dependencies"}


class TestReplayCatchesTampering:
    def test_forged_binding_is_reported(self):
        mapping = join_mapping()
        source = clustered_source(employees=4, depts=2)
        result = chase(mapping, source, provenance=True)
        log = result.provenance
        # Corrupt the first derivation's binding: point n at a name that
        # never occurs in the source.
        original = log.derivations[0]
        forged_binding = tuple(
            (name, constant("nobody") if name == "n" else value)
            for name, value in original.binding
        )
        log._derivations[0] = dataclasses.replace(original, binding=forged_binding)
        report = replay(result.solution, log, mapping, source=source)
        assert not report.ok
        assert report.issues
        assert any("premise" in issue.reason or "binding" in issue.reason
                   for issue in report.issues)


class TestDisabledMode:
    def test_noop_records_nothing_anywhere(self):
        mapping = join_mapping()
        source = clustered_source(employees=4, depts=2)
        result = chase(mapping, source)  # provenance off
        assert not result.provenance.enabled
        with ExchangeService(mapping, ExchangeOptions(workers=2)) as service:
            solution = service.exchange(source)
        assert solution.size() == result.solution.size()
