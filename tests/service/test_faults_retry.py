"""Fault-injection tests: retries, circuit breaker, degraded-but-correct.

Retry and the breaker guard the HTTP server's worker pool, so those
tests drive a real :class:`~repro.service.aserve.ExchangeServer` with a
fault plan installed before it starts: ``pool.spawn`` faults hit the
start-up warm-up, ``pool.map`` faults hit request dispatch.
"""

import asyncio

import pytest

from repro import ExchangeOptions, ExchangeService, PartialSolution, RetryPolicy
from repro.exec.retry import CircuitBreaker
from repro.mapping import SchemaMapping, universal_solution
from repro.obs import collecting
from repro.relational import instance, relation, schema
from repro.relational.canonical import canonically_equal
from repro.relational.serialization import instance_from_json, instance_to_json
from repro.service.aserve import ExchangeClient, ExchangeServer
from repro.service.faults import FaultPlan, fault_injection


# Small requests run on the server's event loop; these tests are about the pool.
pytestmark = pytest.mark.usefixtures("pool_only")

SRC = schema(relation("Emp", "name", "dept"), relation("Dept", "dept", "head"))
TGT = schema(relation("Office", "name", "head", "room"))


def join_mapping():
    return SchemaMapping.parse(
        SRC, TGT, "Emp(n, d), Dept(d, h) -> exists m . Office(n, h, m)"
    )


def clustered_source(employees=12, depts=4):
    return instance(
        SRC,
        {
            "Emp": [[f"e{i}", f"d{i % depts}"] for i in range(employees)],
            "Dept": [[f"d{j}", f"h{j}"] for j in range(depts)],
        },
    )


def fast_retry(**overrides):
    """Milliseconds-scale deterministic backoff so tests stay quick."""
    defaults = dict(max_retries=3, base_delay=0.001, max_delay=0.01, seed=1)
    defaults.update(overrides)
    return RetryPolicy(**defaults)


def serve(plan, options, source, requests=1, breaker=None, between=None):
    """Buffered HTTP exchanges of *source* under *plan*; (results, counters).

    *between* runs after each request with the service, so a test can
    watch the breaker's state move.
    """
    body = {"source": instance_to_json(source), "stream": False}

    async def drive(service):
        server = ExchangeServer(service, host="127.0.0.1", port=0)
        await server.start()
        try:
            client = ExchangeClient("127.0.0.1", server.port)
            results = []
            for index in range(requests):
                reply = await client.exchange(body)
                results.append(instance_from_json(reply[0]["facts"]))
                if between is not None:
                    between(index, service)
            return results
        finally:
            await server.aclose()

    with collecting() as registry, fault_injection(plan):
        with ExchangeService(join_mapping(), options, breaker=breaker) as service:
            results = asyncio.run(drive(service))
    return results, registry.snapshot()["counters"]


class TestRetry:
    def test_two_pool_crashes_then_success_matches_serial_chase(self):
        source = clustered_source()
        options = ExchangeOptions(workers=2, retry=fast_retry())
        (result,), counters = serve(FaultPlan.pool_crashes(2), options, source)
        assert not isinstance(result, PartialSolution)
        expected = universal_solution(join_mapping(), source)
        assert canonically_equal(result, expected)
        assert counters["service.retries"] == 2
        assert counters["exchange.pool.failures"] == 2
        assert counters["exchange.pool.failures.BrokenProcessPool"] == 2
        assert "service.inprocess_fallbacks" not in counters

    def test_spawn_failures_retry_then_succeed(self):
        source = clustered_source()
        options = ExchangeOptions(workers=2, retry=fast_retry())
        (result,), counters = serve(
            FaultPlan.pool_spawn_failures(2), options, source
        )
        assert canonically_equal(result, universal_solution(join_mapping(), source))
        assert counters["service.retries"] == 2
        assert counters["exchange.pool.failures.OSError"] == 2

    def test_retries_exhausted_falls_back_to_serial(self):
        source = clustered_source()
        options = ExchangeOptions(workers=2, retry=fast_retry(max_retries=1))
        (result,), counters = serve(FaultPlan.pool_crashes(10), options, source)
        assert canonically_equal(result, universal_solution(join_mapping(), source))
        assert counters["service.retries"] == 1  # one retry, then in process
        assert counters["service.inprocess_fallbacks"] == 1

    def test_zero_retries_restores_one_shot_fallback(self):
        source = clustered_source()
        options = ExchangeOptions(workers=2, retry=fast_retry(max_retries=0))
        (result,), counters = serve(FaultPlan.pool_crashes(1), options, source)
        assert canonically_equal(result, universal_solution(join_mapping(), source))
        assert "service.retries" not in counters
        assert counters["service.inprocess_fallbacks"] == 1


class TestBreaker:
    def test_breaker_opens_and_pins_serial(self):
        source = clustered_source(employees=6, depts=2)
        breaker = CircuitBreaker(failure_threshold=2, reset_after=3600.0)
        options = ExchangeOptions(workers=2, retry=fast_retry(max_retries=0))
        # max_retries=0: each request records one pool failure.
        states = []
        results, counters = serve(
            FaultPlan.pool_crashes(10),
            options,
            source,
            requests=3,
            breaker=breaker,
            between=lambda index, service: states.append(service.breaker.is_open),
        )
        # the second consecutive failure tripped it; the third request
        # short-circuits to the in-process chase
        assert states == [False, True, True]
        expected = universal_solution(join_mapping(), source)
        for result in results:
            assert canonically_equal(result, expected)
        assert counters["service.breaker_open"] == 1
        assert counters["exchange.breaker.short_circuits"] >= 1
        # An open breaker stops pool attempts: fewer failures than faults.
        assert counters["exchange.pool.failures"] == 2

    def test_breaker_state_machine(self):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=2, reset_after=10.0, clock=lambda: clock[0])
        assert breaker.state == "closed"
        assert breaker.record_failure() is False
        assert breaker.record_failure() is True  # crosses the threshold
        assert breaker.is_open and breaker.open_count == 1
        clock[0] = 11.0
        assert breaker.state == "half_open"
        assert not breaker.is_open  # half-open allows one probe
        assert breaker.record_failure() is True  # probe failed: re-open
        assert breaker.open_count == 2
        clock[0] = 22.0
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.consecutive_failures == 0

    def test_breaker_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_after=-1.0)


class TestSlowChase:
    def test_slow_chase_trips_deadline_deterministically(self):
        # The chase.step seam lives in the target-dependency fixpoint, so
        # the mapping needs a target tgd for the fault to have a site.
        from repro.logic.parser import parse_rule
        from repro.mapping.dependencies import TargetTgd

        source_schema = schema(relation("E", "n", "d"))
        target_schema = schema(relation("Emp", "n", "d"), relation("Dept", "d"))
        fk_rule = parse_rule("Emp(x, d) -> Dept(d)")
        mapping = SchemaMapping.parse(
            source_schema,
            target_schema,
            "E(x, d) -> Emp(x, d)",
            [TargetTgd(fk_rule.lhs, fk_rule.branches[0][1])],
        )
        source = instance(
            source_schema, {"E": [[f"e{i}", f"d{i}"] for i in range(12)]}
        )
        options = ExchangeOptions(deadline=0.05)
        with fault_injection(FaultPlan.slow_chase(0.2, steps=5)):
            with ExchangeService(mapping, options) as service:
                result = service.exchange(source)
        assert isinstance(result, PartialSolution)
        assert result.violated == "deadline"

    def test_plan_accounting(self):
        plan = FaultPlan.pool_crashes(2).merged_with(FaultPlan.pool_spawn_failures(1))
        with fault_injection(plan) as active:
            assert active.hits("pool.map") == 0
        assert not plan.fired  # nothing ran inside the block
