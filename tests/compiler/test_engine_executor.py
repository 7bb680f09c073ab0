"""Tests for the engine's exchange-core knobs (workers, cache)."""

from repro.compiler import ExchangeEngine
from repro.options import ExchangeOptions
from repro.exec import ExchangeCache
from repro.mapping import SchemaMapping, universal_solution
from repro.relational import instance, relation, schema
from repro.relational.canonical import canonically_equal
from repro.relational.homomorphism import homomorphically_equivalent


SRC = schema(relation("Emp", "name", "dept"), relation("Dept", "dept", "head"))
TGT = schema(relation("Office", "name", "head", "room"))


def join_mapping():
    return SchemaMapping.parse(
        SRC, TGT, "Emp(n, d), Dept(d, h) -> exists m . Office(n, h, m)"
    )


def clustered_source(employees=8, depts=4):
    return instance(
        SRC,
        {
            "Emp": [[f"e{i}", f"d{i % depts}"] for i in range(employees)],
            "Dept": [[f"d{j}", f"h{j}"] for j in range(depts)],
        },
    )


class TestEngineKnobs:
    def test_default_compile_has_no_executor(self):
        engine = ExchangeEngine.compile(join_mapping())
        assert engine.cache is None
        source = clustered_source()
        # exchange is exactly the chase, cache or no cache
        assert engine.exchange(source) == universal_solution(engine.mapping, source)

    def test_workers_knob_routes_exchange_through_executor(self):
        engine = ExchangeEngine.compile(
            join_mapping(),
            options=ExchangeOptions(workers=2),
        )
        source = clustered_source()
        result = engine.exchange(source)
        assert canonically_equal(
            result, universal_solution(engine.mapping, source)
        )
        # chase solution ≡ lens view up to homomorphic equivalence
        assert homomorphically_equivalent(result, engine.lens.get(source))

    def test_cache_knob_alone_enables_executor(self):
        engine = ExchangeEngine.compile(join_mapping(), options=ExchangeOptions(cache=4))
        assert engine.cache is not None
        assert engine.options.workers is None
        source = clustered_source()
        first = engine.exchange(source)
        assert engine.exchange(source) is first
        assert engine.cache.hits == 1

    def test_cache_accepts_prebuilt_object(self):
        cache = ExchangeCache(capacity=2)
        engine = ExchangeEngine.compile(join_mapping(), options=ExchangeOptions(cache=cache))
        engine.exchange(clustered_source())
        assert len(cache) == 1

    def test_exchange_many_without_executor_matches_lens(self):
        engine = ExchangeEngine.compile(join_mapping())
        sources = [clustered_source(employees=n) for n in (4, 8)]
        results = engine.exchange_many(sources)
        assert [r.size() for r in results] == [
            engine.lens.get(s).size() for s in sources
        ]

    def test_put_back_unaffected_by_executor(self):
        engine = ExchangeEngine.compile(join_mapping(), options=ExchangeOptions(workers=2))
        source = clustered_source()
        view = engine.lens.get(source)
        assert engine.put_back(view, source) == source  # GetPut
