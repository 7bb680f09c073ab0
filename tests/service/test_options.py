"""Tests for ExchangeOptions, RetryPolicy, and the completed migration."""

import warnings

import pytest

from repro import ExchangeEngine, ExchangeOptions, RetryPolicy
from repro.mapping import SchemaMapping, chase, universal_solution
from repro.mapping.chase import chase_target_dependencies
from repro.options import DEFAULT_MAX_STEPS
from repro.relational import instance, relation, schema


SRC = schema(relation("Emp", "name"))
TGT = schema(relation("Manager", "emp", "mgr"))


def example_mapping():
    return SchemaMapping.parse(SRC, TGT, "Emp(x) -> exists y . Manager(x, y)")


def example_source():
    return instance(SRC, {"Emp": [["Alice"], ["Bob"]]})


class TestExchangeOptions:
    def test_defaults(self):
        opts = ExchangeOptions()
        assert opts.workers is None
        assert opts.max_steps == DEFAULT_MAX_STEPS
        assert not opts.budgeted
        assert opts.budget() is None

    def test_budgeted(self):
        assert ExchangeOptions(deadline=1.0).budgeted
        assert ExchangeOptions(max_facts=10).budgeted
        assert not ExchangeOptions(workers=2, cache=8).budgeted

    def test_budget_is_fresh_per_call(self):
        opts = ExchangeOptions(deadline=1.0, max_facts=5)
        first, second = opts.budget(), opts.budget()
        assert first is not second
        assert first.deadline == 1.0 and first.max_facts == 5

    def test_replace(self):
        opts = ExchangeOptions(workers=2)
        tighter = opts.replace(deadline=0.1)
        assert tighter.workers == 2 and tighter.deadline == 0.1
        assert opts.deadline is None  # frozen original untouched

    def test_validation(self):
        with pytest.raises(ValueError):
            ExchangeOptions(workers=0)
        with pytest.raises(ValueError):
            ExchangeOptions(cache=0)
        with pytest.raises(ValueError):
            ExchangeOptions(max_steps=0)
        with pytest.raises(ValueError):
            ExchangeOptions(deadline=0)
        with pytest.raises(ValueError):
            ExchangeOptions(max_facts=0)


class TestRetryPolicy:
    def test_delay_grows_and_caps(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.0)
        rng = policy.rng()
        delays = [policy.delay(attempt, rng) for attempt in (1, 2, 3, 4, 5)]
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.5, 0.5])

    def test_jitter_is_deterministic_with_seed(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.5, seed=7)
        first = [policy.delay(i, policy.rng()) for i in (1, 2, 3)]
        second = [policy.delay(i, policy.rng()) for i in (1, 2, 3)]
        assert first == second
        base = 0.1
        assert base <= first[0] <= base * 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)


class TestWireFormat:
    """as_dict/from_dict — the JSON face ExchangeOptions shows the service."""

    def test_round_trip_defaults(self):
        opts = ExchangeOptions()
        assert ExchangeOptions.from_dict(opts.as_dict()) == opts

    def test_round_trip_everything_set(self):
        opts = ExchangeOptions(
            max_steps=50,
            deadline=1.5,
            max_facts=100,
            provenance=True,
        )
        assert sorted(opts.as_dict()) == [
            "deadline", "max_facts", "max_steps", "provenance",
        ]
        clone = ExchangeOptions.from_dict(opts.as_dict())
        assert clone == opts

    def test_workers_stays_server_side(self):
        # workers sizes the server's pool: not a request knob, so the
        # wire neither carries nor accepts it.
        assert "workers" not in ExchangeOptions(workers=2).as_dict()
        with pytest.raises(ValueError, match="unknown option keys"):
            ExchangeOptions.from_dict({"workers": 2})

    def test_min_parallel_facts_is_gone(self):
        with pytest.raises(TypeError):
            ExchangeOptions(min_parallel_facts=0)
        with pytest.raises(ValueError, match="unknown option keys"):
            ExchangeOptions.from_dict({"min_parallel_facts": 0})

    def test_cache_and_backend_stay_server_side(self):
        # The solution cache and the engine are the server's, like
        # workers: the wire neither carries nor accepts them.
        from repro.exec.cache import ExchangeCache

        opts = ExchangeOptions(cache=ExchangeCache(capacity=7), backend="sqlite")
        wire = opts.as_dict()
        assert "cache" not in wire and "backend" not in wire
        for key, value in (("cache", 7), ("backend", "sqlite")):
            with pytest.raises(ValueError, match="unknown option keys"):
                ExchangeOptions.from_dict({key: value})

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            ExchangeOptions.from_dict({"workers": 2, "max_target_steps": 10})

    def test_retry_stays_server_side(self):
        opts = ExchangeOptions(retry=RetryPolicy(max_retries=5))
        assert "retry" not in opts.as_dict()
        # Deserializing resets retry to the receiving side's default —
        # clients cannot dictate server retry behavior over the wire.
        clone = ExchangeOptions.from_dict(opts.as_dict())
        assert clone.retry == ExchangeOptions().retry


class TestMigrationComplete:
    """The pre-1.0 keyword shims are gone: options= is the only spelling."""

    def test_merge_legacy_kwargs_is_removed(self):
        with pytest.raises(ImportError):
            from repro.options import merge_legacy_kwargs  # noqa: F401

    def test_compile_rejects_legacy_workers(self):
        with pytest.raises(TypeError):
            ExchangeEngine.compile(example_mapping(), workers=2)

    def test_compile_options_path_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            engine = ExchangeEngine.compile(
                example_mapping(), options=ExchangeOptions(workers=2)
            )
        assert engine.exchange(example_source()).size() == 2

    def test_chase_rejects_legacy_max_target_steps(self):
        with pytest.raises(TypeError):
            chase(example_mapping(), example_source(), max_target_steps=25)

    def test_chase_options_path_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = chase(
                example_mapping(),
                example_source(),
                options=ExchangeOptions(max_steps=25),
            )
            universal_solution(
                example_mapping(),
                example_source(),
                options=ExchangeOptions(max_steps=25),
            )
        assert result.solution.size() == 2

    def test_chase_target_dependencies_rejects_legacy_max_steps(self):
        target = instance(TGT, {"Manager": [["a", "b"]]})
        with pytest.raises(TypeError):
            chase_target_dependencies(target, [], max_steps=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            chase_target_dependencies(
                target, [], options=ExchangeOptions(max_steps=10)
            )
