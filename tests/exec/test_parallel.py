"""Tests for the exchange core behind the service, the engine and the server.

The cases once pinned the deleted ``ParallelExchange`` executor; they
now drive the same behaviour through ``ExchangeService`` (cache,
in-process chase) and ``ExchangeServer`` (the worker pool).
"""

import asyncio
import importlib

import pytest

from repro import ExchangeOptions, ExchangeService, PartialSolution
from repro.exec import ExchangeCache
from repro.logic.parser import parse_conjunction
from repro.logic.terms import Var
from repro.mapping import SchemaMapping, universal_solution
from repro.mapping.chase import chase
from repro.mapping.dependencies import Egd
from repro.obs import collecting
from repro.relational import instance, relation, schema
from repro.relational.canonical import canonically_equal
from repro.relational.instance import Instance
from repro.relational.values import LabeledNull, constant
from repro.service.aserve import ExchangeServer


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
    """One ``workers=2`` service shared by the module."""
    with ExchangeService(join_mapping(), ExchangeOptions(workers=2)) as service:
        yield service


def spawned_pool(registry):
    """Whether a worker pool started while *registry* was collecting."""
    return "exchange.pool.startup_seconds" in registry.snapshot()["histograms"]


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
        source = clustered_source(employees=6, depts=2)
        with collecting() as registry:
            with ExchangeService(mapping, ExchangeOptions(workers=4)) as service:
                result = service.exchange(source)
        assert canonically_equal(result, universal_solution(mapping, source))
        assert not spawned_pool(registry)  # never started a pool

    def test_workers_one_stays_serial(self):
        source = clustered_source(employees=4, depts=2)
        with collecting() as registry:
            with ExchangeService(join_mapping(), ExchangeOptions(workers=1)) as service:
                result = service.exchange(source)
        assert canonically_equal(
            result, universal_solution(join_mapping(), source)
        )
        assert not spawned_pool(registry)

    def test_server_pool_defaults_to_two_workers(self):
        with ExchangeService(join_mapping()) as service:
            assert ExchangeServer(service).workers == 2
        with ExchangeService(join_mapping(), ExchangeOptions(workers=3)) as service:
            assert ExchangeServer(service).workers == 3


class TestCacheIntegration:
    def test_repeat_source_hits_cache(self):
        with ExchangeService(join_mapping(), ExchangeOptions(cache=4)) as service:
            source = clustered_source(employees=4, depts=2)
            first = service.exchange(source)
            second = service.exchange(source)
            assert second is first
            assert service.engine.cache.hits == 1
            assert service.engine.cache.misses == 1

    def test_equal_instances_share_entry(self):
        with ExchangeService(join_mapping(), ExchangeOptions(cache=4)) as service:
            a = clustered_source(employees=4, depts=2)
            b = clustered_source(employees=4, depts=2)  # equal, distinct object
            assert service.exchange(a) is service.exchange(b)

    def test_cache_object_can_be_shared(self):
        cache = ExchangeCache(capacity=8)
        with ExchangeService(join_mapping(), ExchangeOptions(cache=cache)) as service:
            assert service.engine.cache is cache
            service.exchange(clustered_source(employees=4, depts=2))
        assert len(cache) == 1

    def test_exchange_many_counts_hits(self):
        with ExchangeService(join_mapping(), ExchangeOptions(cache=4)) as service:
            source = clustered_source(employees=4, depts=2)
            service.exchange_many([source, source, source])
            assert service.engine.cache.hits == 2
            assert service.engine.cache.misses == 1


class TestLifecycle:
    def test_close_is_idempotent(self):
        with ExchangeService(join_mapping(), ExchangeOptions(workers=2)) as service:
            server = ExchangeServer(service)
            pool = server.ensure_pool()
            assert server.ensure_pool() is pool
            asyncio.run(server.aclose())
            asyncio.run(server.aclose())
            # asking again restarts the pool transparently
            assert server.ensure_pool() is not pool
            asyncio.run(server.aclose())

    def test_discard_pool_only_reaps_the_current_pool(self):
        with ExchangeService(join_mapping(), ExchangeOptions(workers=1)) as service:
            server = ExchangeServer(service)
            stale = server.ensure_pool()
            assert server.discard_pool(stale)
            fresh = server.ensure_pool()
            assert not server.discard_pool(stale)  # already replaced
            assert server.ensure_pool() is fresh
            asyncio.run(server.aclose())


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
            assert service.engine.cache is None
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
