"""Tests for incremental forward exchange (delta view maintenance)."""

import random

import pytest

from repro.compiler import ExchangeEngine
from repro.compiler.incremental import IncrementalExchange, IncrementalUnsupported
from repro.lenses.delta import InstanceDelta
from repro.relational import Fact, constant, instance, relation, schema
from repro.stats import Statistics
from repro.workloads import hr_scenario, random_exchange_setting


@pytest.fixture
def hr():
    scenario = hr_scenario()
    engine = ExchangeEngine.compile(
        scenario.mapping, Statistics.gather(scenario.sample)
    )
    return scenario, engine, IncrementalExchange(engine.lens)


def fact(rel, *values):
    return Fact(rel, tuple(constant(v) for v in values))


class TestInsertions:
    def test_inserted_employee_derives_new_target_facts(self, hr):
        scenario, engine, incremental = hr
        old_source = scenario.sample
        old_target = engine.exchange(old_source)
        delta = InstanceDelta([fact("Employee", 4, "Dan", "eng", 80)], [])
        target_delta = incremental.propagate_forward(delta, old_source, old_target)
        assert fact("Directory", 4, "Dan", "Berlin") in target_delta.inserts
        assert fact("OrgChart", 4, "Dana") in target_delta.inserts
        assert not target_delta.deletes

    def test_inserted_department_joins_with_existing_employees(self, hr):
        scenario, engine, incremental = hr
        old_source = scenario.sample
        old_target = engine.exchange(old_source)
        # A second 'sales' department row cannot exist (same key) — use a
        # fresh dept that an incoming employee will reference next.
        delta = InstanceDelta(
            [
                fact("Department", "ml", "Gail", "Zurich"),
                fact("Employee", 5, "Eva", "ml", 70),
            ],
            [],
        )
        target_delta = incremental.propagate_forward(delta, old_source, old_target)
        assert fact("Directory", 5, "Eva", "Zurich") in target_delta.inserts

    def test_rederived_existing_fact_not_reinserted(self, hr):
        scenario, engine, incremental = hr
        old_source = scenario.sample
        old_target = engine.exchange(old_source)
        # A duplicate-information employee row that derives nothing new:
        delta = InstanceDelta([fact("Employee", 1, "Alice", "eng", 120)], [])
        target_delta = incremental.propagate_forward(delta, old_source, old_target)
        assert target_delta.is_identity()


class TestDeletions:
    def test_deleted_employee_retracts_their_facts(self, hr):
        scenario, engine, incremental = hr
        old_source = scenario.sample
        old_target = engine.exchange(old_source)
        delta = InstanceDelta([], [fact("Employee", 1, "Alice", "eng", 120)])
        target_delta = incremental.propagate_forward(delta, old_source, old_target)
        assert fact("Directory", 1, "Alice", "Berlin") in target_delta.deletes
        assert not target_delta.inserts

    def test_alternative_support_blocks_deletion(self, hr):
        scenario, engine, incremental = hr
        base = scenario.sample.with_facts(
            [fact("Employee", 9, "Alice2", "eng", 100)]
        )
        old_target = engine.exchange(base)
        # Deleting the 'sales' department kills Carol's facts, but Alice's
        # eng-backed facts survive.
        delta = InstanceDelta([], [fact("Department", "sales", "Eve", "Lisbon")])
        target_delta = incremental.propagate_forward(delta, base, old_target)
        assert fact("Directory", 3, "Carol", "Lisbon") in target_delta.deletes
        assert fact("Directory", 1, "Alice", "Berlin") not in target_delta.deletes

    def test_insert_rederives_deleted_fact(self, hr):
        scenario, engine, incremental = hr
        old_source = scenario.sample
        old_target = engine.exchange(old_source)
        # Replace Alice's row with an identical-information variant: the
        # Directory fact survives (delete then rederive ⇒ no net change).
        delta = InstanceDelta(
            [fact("Employee", 1, "Alice", "eng", 999)],
            [fact("Employee", 1, "Alice", "eng", 120)],
        )
        target_delta = incremental.propagate_forward(delta, old_source, old_target)
        assert fact("Directory", 1, "Alice", "Berlin") not in target_delta.deletes


class TestAgreementWithFullExchange:
    @pytest.mark.parametrize("seed", [2, 3, 9, 14, 15, 19])
    def test_incremental_equals_recompute_on_random_settings(self, seed):
        mapping, inst = random_exchange_setting(seed)
        engine = ExchangeEngine.compile(mapping, Statistics.gather(inst))
        incremental = IncrementalExchange(engine.lens)
        old_target = engine.lens.get(inst)

        rng = random.Random(seed * 7)
        source_facts = sorted(inst.facts(), key=repr)
        deletes = source_facts[: min(2, len(source_facts))]
        rel = rng.choice(list(mapping.source))
        inserts = [
            Fact(rel.name, tuple(constant(f"inc{seed}_{i}") for i in range(rel.arity)))
        ]
        delta = InstanceDelta(inserts, deletes)

        refreshed = incremental.refresh(delta, inst, old_target)
        recomputed = engine.lens.get(delta.apply(inst))
        assert refreshed.same_facts(recomputed), seed

    def test_scenario_round(self, hr):
        scenario, engine, incremental = hr
        old_source = scenario.sample
        old_target = engine.exchange(old_source)
        delta = InstanceDelta(
            [fact("Employee", 4, "Dan", "sales", 75)],
            [fact("Employee", 2, "Bob", "eng", 110)],
        )
        refreshed = incremental.refresh(delta, old_source, old_target)
        assert refreshed.same_facts(engine.exchange(delta.apply(old_source)))


def _egd_engine():
    from repro.logic.parser import parse_conjunction
    from repro.logic.terms import Var
    from repro.mapping import SchemaMapping, StTgd
    from repro.mapping.dependencies import Egd

    source = schema(relation("A", "x"))
    target = schema(relation("B", "x", "y"))
    egd = Egd(parse_conjunction("B(x, y), B(x, z)"), Var("y"), Var("z"))
    mapping = SchemaMapping(
        source, target, [StTgd.parse("A(x) -> exists y . B(x, y)")], [egd]
    )
    return ExchangeEngine.compile(mapping)


def _refresh_with_fallback(engine, delta, old_source, old_target):
    """The caller-side contract: incremental when supported, else re-exchange."""
    try:
        incremental = IncrementalExchange(engine.lens)
    except IncrementalUnsupported:
        return engine.exchange(delta.apply(old_source))
    return incremental.refresh(delta, old_source, old_target)


class TestUnsupported:
    def test_target_dependencies_rejected(self):
        engine = _egd_engine()
        with pytest.raises(IncrementalUnsupported):
            IncrementalExchange(engine.lens)

    def test_rejection_is_raised_before_any_delta_work(self):
        # The constructor itself raises — callers can pick the fallback
        # path once, up front, not per delta.
        engine = _egd_engine()
        with pytest.raises(IncrementalUnsupported, match="re-exchange"):
            IncrementalExchange(engine.lens)

    def test_fallback_full_reexchange_is_byte_identical(self):
        from repro.relational import dumps_instance

        engine = _egd_engine()
        old_source = instance(engine.mapping.source, {"A": [["a1"], ["a2"]]})
        old_target = engine.exchange(old_source)
        delta = InstanceDelta([fact("A", "a3")], [fact("A", "a1")])

        refreshed = _refresh_with_fallback(engine, delta, old_source, old_target)
        recomputed = engine.exchange(delta.apply(old_source))
        assert dumps_instance(refreshed) == dumps_instance(recomputed)

    def test_fallback_contract_matches_supported_path(self):
        # On an egd-free mapping the same caller-side contract takes the
        # incremental path and still agrees with full re-exchange.
        scenario = hr_scenario()
        engine = ExchangeEngine.compile(
            scenario.mapping, Statistics.gather(scenario.sample)
        )
        old_source = scenario.sample
        old_target = engine.exchange(old_source)
        delta = InstanceDelta([fact("Employee", 4, "Dan", "sales", 75)], [])
        refreshed = _refresh_with_fallback(engine, delta, old_source, old_target)
        assert refreshed.same_facts(engine.exchange(delta.apply(old_source)))
