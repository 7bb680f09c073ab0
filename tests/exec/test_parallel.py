"""Tests for the exchange executor (repro.exec.parallel)."""

import importlib

import pytest

from repro import ExchangeOptions, ExchangeService, PartialSolution
from repro.exec import ExchangeCache, ParallelExchange
from repro.logic.parser import parse_conjunction
from repro.logic.terms import Var
from repro.mapping import SchemaMapping, universal_solution
from repro.mapping.chase import chase
from repro.mapping.dependencies import Egd
from repro.relational import instance, relation, schema
from repro.relational.canonical import canonically_equal
from repro.relational.instance import Instance
from repro.relational.values import LabeledNull, constant


SRC = schema(relation("Emp", "name", "dept"), relation("Dept", "dept", "head"))
TGT = schema(relation("Office", "name", "head", "room"))
JOIN_TEXT = "Emp(n, d), Dept(d, h) -> exists m . Office(n, h, m)"


def join_mapping(target_dependencies=()):
    return SchemaMapping.parse(SRC, TGT, JOIN_TEXT, target_dependencies)


def clustered_source(employees=12, depts=4):
    return instance(
        SRC,
        {
            "Emp": [[f"e{i}", f"d{i % depts}"] for i in range(employees)],
            "Dept": [[f"d{j}", f"h{j}"] for j in range(depts)],
        },
    )


# the package re-exports the chase *function* under the same name, so the
# module object needs an explicit import
chase_mod = importlib.import_module("repro.mapping.chase")


@pytest.fixture(scope="module")
def pool_executor():
    """One 2-worker executor shared by the module."""
    with ParallelExchange(join_mapping(), workers=2) as executor:
        yield executor


@pytest.fixture
def spy(monkeypatch):
    """Record whether the id-space fast path ran and produced a result."""
    outcome = {}
    original = chase_mod._chase_st_tgds_ids

    def wrapper(mapping, source, factory, stats):
        result = original(mapping, source, factory, stats)
        outcome["engaged"] = result is not None
        return result

    monkeypatch.setattr(chase_mod, "_chase_st_tgds_ids", wrapper)
    return outcome


class TestParallelMatchesSerial:
    def test_canonically_equal_to_serial_chase(self, pool_executor):
        source = clustered_source()
        serial = universal_solution(join_mapping(), source)
        parallel = pool_executor.exchange(source)
        assert canonically_equal(serial, parallel)

    def test_source_nulls_survive_merge(self, pool_executor):
        base = clustered_source(employees=6, depts=3)
        rows = set(base.rows("Emp")) | {(LabeledNull(2), constant("d0")),
                                        (LabeledNull(9), constant("d2"))}
        source = Instance(SRC, {"Emp": rows, "Dept": base.rows("Dept")})
        parallel = pool_executor.exchange(source)
        serial = universal_solution(join_mapping(), source)
        assert canonically_equal(serial, parallel)
        assert source.nulls() <= parallel.nulls() | source.nulls()
        # invented nulls must not collide with the source's
        invented = parallel.nulls() - source.nulls()
        assert {n.label for n in invented}.isdisjoint(
            {n.label for n in source.nulls()}
        )

    def test_empty_source(self, pool_executor):
        source = instance(SRC, {})
        assert pool_executor.exchange(source).is_empty()

    def test_exchange_many_matches_individual(self, pool_executor):
        sources = [clustered_source(employees=n, depts=2) for n in (4, 6, 8)]
        batch = pool_executor.exchange_many(sources)
        for source, solution in zip(sources, batch):
            assert canonically_equal(
                universal_solution(join_mapping(), source), solution
            )


class TestSerialFallbacks:
    def test_egd_mapping_falls_back_and_is_correct(self):
        egd = Egd(parse_conjunction("Office(n, h, m), Office(n, h2, m2)"),
                  Var("h"), Var("h2"))
        mapping = join_mapping([egd])
        executor = ParallelExchange(mapping, workers=4)
        source = clustered_source(employees=6, depts=2)
        assert canonically_equal(
            executor.exchange(source), universal_solution(mapping, source)
        )
        assert executor._pool is None  # never started a pool

    def test_workers_one_stays_serial(self):
        executor = ParallelExchange(join_mapping(), workers=1)
        source = clustered_source(employees=4, depts=2)
        result = executor.exchange(source)
        assert canonically_equal(
            result, universal_solution(join_mapping(), source)
        )
        assert executor._pool is None

    def test_default_workers_is_one(self):
        assert ParallelExchange(join_mapping()).workers == 1


class TestCacheIntegration:
    def test_repeat_source_hits_cache(self):
        with ParallelExchange(join_mapping(), workers=1, cache=4) as executor:
            source = clustered_source(employees=4, depts=2)
            first = executor.exchange(source)
            second = executor.exchange(source)
            assert second is first
            assert executor.cache.hits == 1
            assert executor.cache.misses == 1

    def test_equal_instances_share_entry(self):
        with ParallelExchange(join_mapping(), workers=1, cache=4) as executor:
            a = clustered_source(employees=4, depts=2)
            b = clustered_source(employees=4, depts=2)  # equal, distinct object
            assert executor.exchange(a) is executor.exchange(b)

    def test_cache_object_can_be_shared(self):
        cache = ExchangeCache(capacity=8)
        with ParallelExchange(join_mapping(), workers=1, cache=cache) as executor:
            assert executor.cache is cache
            executor.exchange(clustered_source(employees=4, depts=2))
        assert len(cache) == 1

    def test_exchange_many_counts_hits(self):
        with ParallelExchange(join_mapping(), workers=1, cache=4) as executor:
            source = clustered_source(employees=4, depts=2)
            executor.exchange_many([source, source, source])
            assert executor.cache.hits == 2
            assert executor.cache.misses == 1


class TestLifecycle:
    def test_close_is_idempotent(self):
        executor = ParallelExchange(join_mapping(), workers=2)
        pool = executor.ensure_pool()
        assert executor.ensure_pool() is pool
        executor.close()
        executor.close()
        # asking again restarts the pool transparently
        assert executor.ensure_pool() is not pool
        executor.close()

    def test_discard_pool_only_reaps_the_current_pool(self):
        executor = ParallelExchange(join_mapping(), workers=1)
        stale = executor.ensure_pool()
        assert executor.discard_pool(stale)
        fresh = executor.ensure_pool()
        assert not executor.discard_pool(stale)  # already replaced
        assert executor.ensure_pool() is fresh
        executor.close()


class TestInProcessExchange:
    """The exchange builds the source's column store exactly when the
    id-space fast path will take the request."""

    def test_plain_source_takes_the_id_path_with_serial_labels(self, spy):
        source = clustered_source()
        expected = chase(join_mapping(), clustered_source()).solution
        assert spy.pop("engaged") is False  # chase() alone builds no store
        with ExchangeService(join_mapping(), ExchangeOptions(workers=2)) as service:
            result = service.exchange(source)
        assert spy["engaged"] is True
        assert source.columnar_store is not None
        # same facts *and* the same fresh-null labels as the value path
        assert result.same_facts(expected)

    def test_no_executor_branch_takes_the_id_path(self, spy):
        source = clustered_source()
        with ExchangeService(join_mapping()) as service:
            assert service.engine.executor is None
            result = service.exchange(source)
        assert spy["engaged"] is True
        assert result.same_facts(chase(join_mapping(), clustered_source()).solution)

    @pytest.mark.parametrize(
        "options",
        [
            ExchangeOptions(workers=2, max_facts=10_000),
            ExchangeOptions(workers=2, deadline=60.0),
            ExchangeOptions(workers=2, provenance=True),
            ExchangeOptions(max_facts=10_000),
            ExchangeOptions(provenance=True),
        ],
        ids=["max_facts", "deadline", "provenance", "no-executor-budget",
             "no-executor-provenance"],
    )
    def test_budgeted_and_provenance_requests_build_no_store(self, spy, options):
        source = clustered_source()
        with ExchangeService(join_mapping(), options) as service:
            result = service.exchange(source)
        assert not isinstance(result, PartialSolution)
        assert source.columnar_store is None
        assert "engaged" not in spy

    def test_target_dependencies_build_no_store(self, spy):
        egd = Egd(parse_conjunction("Office(n, h, m), Office(n, h2, m2)"),
                  Var("h"), Var("h2"))
        source = clustered_source()
        with ExchangeService(join_mapping([egd]), ExchangeOptions(workers=2)) as service:
            service.exchange(source)
        assert source.columnar_store is None
        assert "engaged" not in spy
