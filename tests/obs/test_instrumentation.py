"""Instrumentation threaded through the pipeline actually reports.

Covers the chase (spans, statistics folding, partial statistics on
failing runs), the compiler/lens (compile/plan/get/put spans, observed
cardinalities, explain(verbose)), the lens laws, and evolution-channel
propagation counters.
"""

import pytest

from repro.compiler import ExchangeEngine
from repro.channels import AddColumn, DropColumn, propagate_all, propagate_primitive
from repro.lenses.laws import check_getput, check_putget
from repro.logic.parser import parse_conjunction, parse_rule
from repro.logic.terms import Var
from repro.mapping import SchemaMapping, StTgd, chase, universal_solution
from repro.mapping.chase import ChaseFailure, ChaseNonTermination
from repro.mapping.dependencies import Egd, TargetTgd
from repro.obs import collecting, tracing
from repro.options import ExchangeOptions
from repro.relational import Attribute, instance, relation, schema
from repro.stats import Statistics
from repro.workloads import emp_manager_scenario


def parse_tgd(text):
    return StTgd.parse(text)


@pytest.fixture
def observed():
    """Fresh tracer + registry scoped around each test."""
    with tracing() as tracer, collecting() as registry:
        yield tracer, registry


def span_names(tracer):
    return [span.name for root in tracer.spans() for span, _ in root.walk()]


class TestChaseInstrumentation:
    def test_chase_produces_spans_and_counters(self, observed):
        tracer, registry = observed
        scenario = emp_manager_scenario()
        result = chase(scenario.mapping, scenario.sample)
        names = span_names(tracer)
        assert "chase" in names and "chase.st_tgds" in names
        assert registry.counter("chase.tgd_firings").value == result.statistics.tgd_firings > 0
        assert registry.counter("chase.nulls_created").value == result.statistics.nulls_created

    def test_columnar_build_span(self, observed):
        tracer, _ = observed
        source = instance(
            schema(relation("Emp", "name", "dept")),
            {"Emp": [["ann", "d1"], ["bob", "d1"]]},
        )
        source.columnar()
        source.columnar()  # memoized: one build, one span
        spans = [
            span
            for root in tracer.spans()
            for span, _ in root.walk()
            if span.name == "columnar.build"
        ]
        assert len(spans) == 1
        assert spans[0].attributes == {"source_facts": 2, "table_size": 3}

    def test_as_dict_matches_fields(self):
        scenario = emp_manager_scenario()
        stats = chase(scenario.mapping, scenario.sample).statistics
        assert stats.as_dict() == {
            "tgd_firings": stats.tgd_firings,
            "egd_firings": stats.egd_firings,
            "target_tgd_firings": stats.target_tgd_firings,
            "nulls_created": stats.nulls_created,
            "rounds": stats.rounds,
        }
        # repr derives from as_dict, so the two cannot drift apart.
        assert f"tgd={stats.tgd_firings}" in repr(stats)

    def test_chase_failure_carries_partial_statistics(self, observed):
        tracer, registry = observed
        source = schema(relation("Boss", "n", "b"))
        target = schema(relation("Manager", "emp", "mgr"))
        key = Egd(
            parse_conjunction("Manager(x, y), Manager(x, z)"), Var("y"), Var("z")
        )
        mapping = SchemaMapping(
            source, target, [parse_tgd("Boss(x, b) -> Manager(x, b)")], [key]
        )
        I = instance(source, {"Boss": [["ann", "mona"], ["ann", "rita"]]})
        with pytest.raises(ChaseFailure) as excinfo:
            universal_solution(mapping, I)
        stats = excinfo.value.statistics
        assert stats is not None
        assert stats.tgd_firings == 2  # both Boss rows fired before the egd conflict
        # Even the failing run published its counters.
        assert registry.counter("chase.tgd_firings").value == 2

    def test_nontermination_carries_partial_statistics(self):
        source = schema(relation("A", "x"))
        target = schema(relation("E", "x", "y"))
        # E(x, y) → ∃z E(y, z): not weakly acyclic, chases forever.
        loop = parse_rule("E(x, y) -> exists z . E(y, z)")
        mapping = SchemaMapping(
            source,
            target,
            [parse_tgd("A(x) -> exists y . E(x, y)")],
            [TargetTgd(loop.lhs, loop.branches[0][1])],
        )
        I = instance(source, {"A": [["a"]]})
        with pytest.raises(ChaseNonTermination) as excinfo:
            chase(mapping, I, options=ExchangeOptions(max_steps=25))
        stats = excinfo.value.statistics
        assert stats is not None
        assert stats.target_tgd_firings > 0
        assert stats.nulls_created > 0


class TestPipelineInstrumentation:
    def test_compile_get_put_spans(self, observed):
        tracer, registry = observed
        scenario = emp_manager_scenario()
        engine = ExchangeEngine.compile(
            scenario.mapping, Statistics.gather(scenario.sample)
        )
        target = engine.exchange(scenario.sample)
        engine.put_back(target, scenario.sample)
        names = span_names(tracer)
        for expected in ("compile", "plan", "plan.tgd", "lens.get",
                         "unit.forward", "lens.put"):
            assert expected in names, f"missing span {expected}"
        assert registry.counter("lens.get.calls").value >= 1
        assert registry.counter("lens.put.calls").value == 1
        assert registry.histogram("lens.get.seconds").count >= 1

    def test_observed_cardinalities_feed_explain(self, observed):
        _, registry = observed
        scenario = emp_manager_scenario()
        engine = ExchangeEngine.compile(
            scenario.mapping, Statistics.gather(scenario.sample)
        )
        before = engine.explain(verbose=True)
        assert "no exchange observed yet" in before
        engine.exchange(scenario.sample)
        after = engine.explain(verbose=True)
        assert "cardinalities (estimated vs observed)" in after
        assert "observed = 2" in after  # two Emp rows → two Manager facts
        # explain() extends the raw plan text with analyzer diagnostics.
        assert engine.explain().startswith(engine.show_plan())

    def test_timed_get_put_on_relational_lens(self, observed):
        tracer, _ = observed
        scenario = emp_manager_scenario()
        engine = ExchangeEngine.compile(scenario.mapping)
        view = engine.lens.timed_get(scenario.sample)
        engine.lens.timed_put(view, scenario.sample)
        names = span_names(tracer)
        assert "rlens.get" in names and "rlens.put" in names


class TestLawCheckInstrumentation:
    def test_law_checks_are_counted(self, observed):
        tracer, registry = observed
        scenario = emp_manager_scenario()
        engine = ExchangeEngine.compile(scenario.mapping)
        violations = check_getput(engine.lens, [scenario.sample])
        assert violations == []
        views = lambda s: [engine.lens.get(s)]
        check_putget(engine.lens, [scenario.sample], views)
        assert registry.counter("laws.checks").value == 2
        assert registry.counter("laws.checks.GetPut").value == 1
        assert registry.counter("laws.checks.PutGet").value == 1
        assert registry.counter("laws.violations").value == 0
        assert span_names(tracer).count("laws.check") == 2


class TestChannelInstrumentation:
    def test_propagation_counters(self, observed):
        _, registry = observed
        source = schema(relation("Emp", "name", "dept"))
        target = schema(relation("Roster", "name"))
        mapping = SchemaMapping.parse(source, target, "Emp(n, d) -> Roster(n)")
        step = propagate_primitive(mapping, AddColumn("Emp", Attribute("salary")))
        propagate_primitive(step.mapping, DropColumn("Emp", "dept"))
        assert registry.counter("channels.propagate.AddColumn").value == 1
        assert registry.counter("channels.propagate.DropColumn").value == 1
        assert registry.counter("channels.propagations").value == 2

    def test_induced_and_notes_counted(self, observed):
        _, registry = observed
        source = schema(relation("Emp", "name", "dept"))
        target = schema(relation("Roster", "name", "dept"))
        mapping = SchemaMapping.parse(source, target, "Emp(n, d) -> Roster(n, d)")
        result = propagate_all(mapping, [DropColumn("Emp", "dept")])
        assert result.induced  # dropping an exported column induces a target drop
        assert registry.counter("channels.induced_primitives").value == len(
            result.induced
        )
        assert registry.counter("channels.information_loss_notes").value == len(
            result.notes
        )
