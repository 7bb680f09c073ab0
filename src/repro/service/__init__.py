"""repro.service — budgeted, fault-tolerant exchange as a long-running service.

The production face of the exchange stack: where
:class:`~repro.compiler.engine.ExchangeEngine` answers one request and
raises on trouble, :class:`ExchangeService` holds budgets, retries pool
failures with backoff, opens a circuit breaker under repeated failure,
sheds load past its admission limit, and degrades to
:class:`PartialSolution` instead of hanging or crashing::

    from repro import ExchangeOptions, ExchangeService, PartialSolution

    service = ExchangeService(mapping, ExchangeOptions(
        workers=2, cache=128, deadline=0.5, max_facts=1_000_000))
    result = service.exchange(source)
    if isinstance(result, PartialSolution):
        result = service.resume(source, result.token)

The service speaks request/response objects (:class:`ExchangeRequest`,
:class:`ExchangeResponse`), streams bounded fact chunks
(:meth:`ExchangeService.stream`, :class:`StreamingSolution`), shares its
capacity fairly across tenants (:class:`TenantQuota`,
:class:`~repro.service.tenancy.FairShareGate`) and serves it all over
HTTP via ``repro serve`` (:mod:`repro.service.aserve`).

Submodules:

* :mod:`repro.service.api` — request/response objects, partial
  solutions, the JSON-serializable :class:`ResumptionToken`;
* :mod:`repro.service.tenancy` — per-tenant quotas and weighted
  fair-share admission;
* :mod:`repro.service.streaming` — incremental fact-chunk delivery;
* :mod:`repro.service.service` — the service itself;
* :mod:`repro.service.aserve` — the asyncio HTTP front end
  (chunked NDJSON streaming, ``repro serve``);
* :mod:`repro.service.faults` — the deterministic fault-injection
  harness (worker crashes, pool-spawn failures, slow chases).

The budget/options/breaker building blocks re-exported here live in
:mod:`repro.budget`, :mod:`repro.options` and :mod:`repro.exec.retry`.
See docs/ROBUSTNESS.md for the degradation contract and docs/SERVICE.md
for the HTTP API.
"""

from ..budget import Budget, BudgetExceeded
from ..exec.retry import CircuitBreaker
from ..faults import Fault, FaultPlan, InjectedFault, fault_injection
from ..options import ExchangeOptions, RetryPolicy
from .api import (
    ExchangeRequest,
    ExchangeResponse,
    PartialSolution,
    ResumptionToken,
)
from .service import ExchangeService
from .streaming import FactChunk, StreamingSolution
from .tenancy import FairShareGate, ServiceOverloaded, TenantQuota

__all__ = [
    "Budget",
    "BudgetExceeded",
    "CircuitBreaker",
    "ExchangeOptions",
    "ExchangeRequest",
    "ExchangeResponse",
    "ExchangeService",
    "FactChunk",
    "FairShareGate",
    "Fault",
    "FaultPlan",
    "InjectedFault",
    "PartialSolution",
    "ResumptionToken",
    "RetryPolicy",
    "ServiceOverloaded",
    "StreamingSolution",
    "TenantQuota",
    "fault_injection",
]
