"""The SQLite backend: equivalence with the chase, cores, budgets, wiring."""

import pytest

from repro.backends import (
    BackendUnavailableError,
    available_backends,
    compile_mapping,
    plan_backend,
)
from repro.backends.duckdb_backend import DuckdbBackend
from repro.backends.sqlite_backend import SqliteBackend
from repro.budget import Budget, BudgetExceeded
from repro.compiler import ExchangeEngine
from repro.mapping import SchemaMapping, core_universal_solution, universal_solution
from repro.options import ExchangeOptions
from repro.relational import (
    canonically_equal,
    homomorphically_equivalent,
    instance,
    relation,
    schema,
)
from repro.relational.homomorphism import is_core
from repro.relational.values import Constant, LabeledNull
from repro.service import ExchangeService, PartialSolution


def exchange_both_ways(mapping, source):
    """(sqlite solution, interpreted solution) for *mapping* on *source*."""
    program, report = compile_mapping(mapping)
    assert report.compilable, report.summary()
    sql = SqliteBackend(mapping, program).exchange(source)
    interpreted = universal_solution(mapping, source)
    return sql, interpreted


@pytest.fixture
def join_setup():
    src = schema(relation("Emp", "n", "d"), relation("Dept", "d", "h"))
    tgt = schema(relation("Office", "n", "h", "o"))
    mapping = SchemaMapping.parse(
        src, tgt, "Emp(n, d), Dept(d, h) -> exists o . Office(n, h, o)"
    )
    source = instance(
        src,
        {
            "Emp": [["alice", "d1"], ["bob", "d1"], ["carol", "d9"]],
            "Dept": [["d1", "hanna"], ["d2", "ivan"]],
        },
    )
    return mapping, source


class TestEquivalence:
    def test_join_mapping_matches_interpreted(self, join_setup):
        mapping, source = join_setup
        sql, interpreted = exchange_both_ways(mapping, source)
        assert homomorphically_equivalent(sql, interpreted)
        assert canonically_equal(sql, interpreted)

    def test_full_tgd_is_exact(self):
        src = schema(relation("Emp", "n"))
        tgt = schema(relation("Person", "n"))
        mapping = SchemaMapping.parse(src, tgt, "Emp(n) -> Person(n)")
        source = instance(src, {"Emp": [["a"], ["b"]]})
        sql, interpreted = exchange_both_ways(mapping, source)
        assert sql.same_facts(interpreted)

    def test_constants_and_side_conditions(self):
        src = schema(relation("Emp", "n", "d"))
        tgt = schema(relation("Sales", "n"), relation("Cross", "a", "b"))
        mapping = SchemaMapping.parse(
            src,
            tgt,
            'Emp(n, "sales") -> Sales(n)\n'
            "Emp(a, d), Emp(b, d), a != b -> Cross(a, b)",
        )
        source = instance(
            src, {"Emp": [["x", "sales"], ["y", "sales"], ["z", "ops"]]}
        )
        sql, interpreted = exchange_both_ways(mapping, source)
        assert sql.same_facts(interpreted)
        assert sql.rows("Sales") == frozenset(
            {(Constant("x"),), (Constant("y"),)}
        )

    def test_constant_predicate_filters_source_nulls(self):
        src = schema(relation("Emp", "n"))
        tgt = schema(relation("Person", "n"))
        mapping = SchemaMapping.parse(src, tgt, "Emp(n), C(n) -> Person(n)")
        source = instance(src, {"Emp": [["a"], [LabeledNull(7)]]})
        sql, interpreted = exchange_both_ways(mapping, source)
        assert sql.same_facts(interpreted)
        assert sql.size() == 1

    def test_source_nulls_flow_through(self):
        src = schema(relation("Emp", "n"))
        tgt = schema(relation("Person", "n"))
        mapping = SchemaMapping.parse(src, tgt, "Emp(n) -> Person(n)")
        source = instance(src, {"Emp": [[LabeledNull(3)], ["a"]]})
        sql, interpreted = exchange_both_ways(mapping, source)
        assert sql.same_facts(interpreted)

    def test_empty_frontier_mints_one_witness(self):
        src = schema(relation("Emp", "n"))
        tgt = schema(relation("NonEmpty", "w"))
        mapping = SchemaMapping.parse(src, tgt, "Emp(n) -> exists w . NonEmpty(w)")
        source = instance(src, {"Emp": [["a"], ["b"], ["c"]]})
        program, _ = compile_mapping(mapping)
        sql = SqliteBackend(mapping, program).exchange(source)
        # The core has exactly one witness fact, not one per Emp row.
        assert sql.size() == 1

    def test_empty_source(self, join_setup):
        mapping, _ = join_setup
        empty = instance(mapping.source, {})
        sql, interpreted = exchange_both_ways(mapping, empty)
        assert sql.size() == 0 and sql.same_facts(interpreted)

    def test_multi_atom_block_canonical_mode(self):
        src = schema(relation("Emp", "n", "d"))
        tgt = schema(relation("Office", "n", "o"), relation("Key", "o", "d"))
        mapping = SchemaMapping.parse(
            src, tgt, "Emp(n, d) -> exists o . Office(n, o), Key(o, d)"
        )
        source = instance(src, {"Emp": [["a", "d1"], ["b", "d2"]]})
        program, report = compile_mapping(mapping)
        assert not report.laconic
        sql = SqliteBackend(mapping, program).exchange(source)
        interpreted = universal_solution(mapping, source)
        assert canonically_equal(sql, interpreted)
        # Both conclusion atoms of one firing share the same fresh null.
        offices = {row[1] for row in sql.rows("Office")}
        keys = {row[0] for row in sql.rows("Key")}
        assert offices == keys


class TestCore:
    def test_subsumed_firings_are_dropped(self):
        # Office(n, h, o) with a known head subsumes the headless variant.
        src = schema(relation("Emp", "n", "d"), relation("Dept", "d", "h"))
        tgt = schema(relation("Office", "n", "h"))
        mapping = SchemaMapping.parse(
            src,
            tgt,
            "Emp(n, d), Dept(d, h) -> Office(n, h)\n"
            "Emp(n, d) -> exists h . Office(n, h)",
        )
        source = instance(
            src, {"Emp": [["a", "d1"], ["b", "d9"]], "Dept": [["d1", "boss"]]}
        )
        program, report = compile_mapping(mapping)
        assert report.laconic
        sql = SqliteBackend(mapping, program).exchange(source)
        assert is_core(sql)
        assert canonically_equal(sql, core_universal_solution(mapping, source))
        # a's firing of the existential tgd is subsumed; b keeps its null.
        assert sql.size() == 2

    def test_core_smaller_than_naive(self, join_setup):
        mapping, source = join_setup
        richer = SchemaMapping(
            mapping.source,
            mapping.target,
            list(mapping.tgds)
            + list(
                SchemaMapping.parse(
                    mapping.source,
                    mapping.target,
                    "Emp(n, d) -> exists h, o . Office(n, h, o)",
                ).tgds
            ),
        )
        program, report = compile_mapping(richer)
        assert report.laconic
        sql = SqliteBackend(richer, program).exchange(source)
        naive = universal_solution(richer, source)
        assert is_core(sql)
        assert homomorphically_equivalent(sql, naive)
        # alice/bob's unconstrained firings fold into the joined ones.
        assert sql.size() < naive.size()
        assert sql.size() == core_universal_solution(richer, source).size()

    def test_equivalent_blocks_keep_one_representative(self):
        src = schema(relation("A", "x"), relation("B", "x"))
        tgt = schema(relation("T", "x", "y"))
        mapping = SchemaMapping.parse(
            src,
            tgt,
            "A(x) -> exists y . T(x, y)\nB(x) -> exists y . T(x, y)",
        )
        source = instance(src, {"A": [["v"]], "B": [["v"]]})
        program, _ = compile_mapping(mapping)
        sql = SqliteBackend(mapping, program).exchange(source)
        assert sql.size() == 1 and is_core(sql)

    def test_run_metadata_records_core(self, join_setup):
        mapping, source = join_setup
        program, _ = compile_mapping(mapping)
        backend = SqliteBackend(mapping, program)
        backend.exchange(source)
        assert backend.last_run["core"] is True
        assert backend.last_run["backend"] == "sqlite"
        assert set(backend.last_phase_timings) == {
            "load",
            "compile",
            "execute",
            "extract",
        }

    def test_pickled_backend_gives_the_same_core(self, join_setup):
        # The HTTP server ships the ready backend to its pool workers.
        import pickle

        from repro.backends.sql import OFFSET

        mapping, source = join_setup
        program, _ = compile_mapping(mapping)
        backend = SqliteBackend(mapping, program)
        shipped = pickle.loads(pickle.dumps(backend))
        assert pickle.loads(pickle.dumps(OFFSET)) is OFFSET
        assert canonically_equal(shipped.exchange(source), backend.exchange(source))

    def test_source_nulls_revoke_core_claim(self):
        src = schema(relation("Emp", "n"))
        tgt = schema(relation("Person", "n"))
        mapping = SchemaMapping.parse(src, tgt, "Emp(n) -> Person(n)")
        source = instance(src, {"Emp": [[LabeledNull(1)]]})
        program, _ = compile_mapping(mapping)
        backend = SqliteBackend(mapping, program)
        backend.exchange(source)
        assert backend.last_run["core"] is False


class TestBudget:
    def test_fact_budget_exceeded_in_execute_phase(self, join_setup):
        mapping, source = join_setup
        program, _ = compile_mapping(mapping)
        backend = SqliteBackend(mapping, program)
        with pytest.raises(BudgetExceeded) as excinfo:
            backend.exchange(source, Budget(max_facts=1))
        assert excinfo.value.phase == "backend.execute"

    def test_unbudgeted_run_is_unchecked(self, join_setup):
        mapping, source = join_setup
        program, _ = compile_mapping(mapping)
        assert SqliteBackend(mapping, program).exchange(source, None).size() == 2


class TestPlanning:
    def test_interpreted_request_plans_nothing(self, join_setup):
        mapping, _ = join_setup
        assert plan_backend(mapping, ExchangeOptions()) is None

    def test_sqlite_request_is_ready(self, join_setup):
        mapping, _ = join_setup
        plan = plan_backend(mapping, ExchangeOptions(backend="sqlite"))
        assert plan is not None and plan.ready
        assert isinstance(plan.backend, SqliteBackend)
        assert "core" in plan.describe()

    def test_provenance_falls_back_with_reason(self, join_setup):
        mapping, _ = join_setup
        plan = plan_backend(
            mapping, ExchangeOptions(backend="sqlite", provenance=True)
        )
        assert plan is not None and not plan.ready
        assert "provenance-requested" in {r.code for r in plan.fallback}

    def test_duckdb_unavailable_raises(self, join_setup):
        mapping, _ = join_setup
        if DuckdbBackend.available():  # pragma: no cover - duckdb installed
            pytest.skip("duckdb installed in this environment")
        with pytest.raises(BackendUnavailableError):
            plan_backend(mapping, ExchangeOptions(backend="duckdb"))

    def test_available_backends_always_lists_sqlite(self):
        names = available_backends()
        assert "interpreted" in names and "sqlite" in names

    def test_invalid_backend_name_rejected(self):
        with pytest.raises(ValueError):
            ExchangeOptions(backend="postgres")


class TestEngineAndService:
    def test_engine_routes_to_backend(self, join_setup):
        mapping, source = join_setup
        engine = ExchangeEngine.compile(
            mapping, options=ExchangeOptions(backend="sqlite")
        )
        assert engine.backend_plan is not None and engine.backend_plan.ready
        result = engine.exchange(source)
        assert canonically_equal(result, universal_solution(mapping, source))

    def test_engine_exchange_many(self, join_setup):
        mapping, source = join_setup
        engine = ExchangeEngine.compile(
            mapping, options=ExchangeOptions(backend="sqlite")
        )
        results = engine.exchange_many([source, source])
        assert len(results) == 2
        assert results[0].same_facts(results[1])

    def test_interpreted_engine_has_no_backend_plan(self, join_setup):
        mapping, _ = join_setup
        engine = ExchangeEngine.compile(mapping)
        assert engine.backend_plan is None

    def test_service_runs_backend_and_degrades_on_budget(self, join_setup):
        mapping, source = join_setup
        with ExchangeService(
            mapping, ExchangeOptions(backend="sqlite", max_facts=1)
        ) as service:
            result = service.exchange(source)
        assert isinstance(result, PartialSolution)
        assert result.violated == "max_facts"

    def test_service_full_solution_matches_interpreted(self, join_setup):
        mapping, source = join_setup
        with ExchangeService(mapping, ExchangeOptions(backend="sqlite")) as service:
            result = service.exchange(source)
        assert canonically_equal(result, universal_solution(mapping, source))
