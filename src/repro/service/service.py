"""`ExchangeService`: budgeted, fault-tolerant, multi-tenant exchange.

The engine (:class:`~repro.compiler.engine.ExchangeEngine`) answers one
request and crashes loudly; a production exchange endpoint needs the
opposite contract.  :class:`ExchangeService` wraps a compiled engine
with:

* **budgets** — every request gets a fresh
  :class:`~repro.budget.Budget` from the service's
  :class:`~repro.options.ExchangeOptions` (wall-clock ``deadline``,
  ``max_facts``), checked cooperatively at chase-step boundaries, plus
  the ``max_steps`` chase-step cap;
* **graceful degradation** — budget exhaustion (and step-cap
  non-termination) returns a :class:`PartialSolution` carrying the
  facts chased so far, the violated budget and a
  :class:`ResumptionToken`, instead of raising;
* **one execution path** — every entry point admits a request through
  :meth:`ExchangeService.plan` (token check, option check, admission,
  the ``service.*`` counters, the cache lookup) and runs it through the
  exchange core (:func:`repro.exec.core.execute`), so ``backend`` and
  ``cache`` hold on every entry point, HTTP included;
* **retry + circuit breaker** — the service owns the
  :class:`~repro.exec.retry.CircuitBreaker` and the
  :class:`~repro.options.RetryPolicy` that guard the HTTP server's
  worker pool (:mod:`repro.service.aserve`): pool startup/worker
  crashes retry with exponential backoff + jitter, and repeated
  failures open the breaker, pinning the server to the in-process
  chase;
* **admission control** — per-tenant weighted fair sharing
  (:class:`~repro.service.tenancy.FairShareGate`) with explicit
  :class:`ServiceOverloaded` rejection, applied whole-batch to
  :meth:`exchange_many`;
* **streaming** — :meth:`stream` answers an :class:`ExchangeRequest`
  with a :class:`~repro.service.streaming.StreamingSolution` that
  yields bounded fact chunks (the synchronous twin of the HTTP layer in
  :mod:`repro.service.aserve`).

The request/response vocabulary (:class:`ExchangeRequest`,
:class:`ExchangeResponse`, the JSON-serializable
:class:`ResumptionToken`) lives in :mod:`repro.service.api`; this
module re-exports it so existing imports keep working.

Everything is observable through :mod:`repro.obs` (``service.*`` and
``service.tenant.<id>.*`` counters, budget-remaining histograms, a
``service`` span tree) and every degradation path is reachable
deterministically through :mod:`repro.service.faults` — see
docs/ROBUSTNESS.md.
"""

from __future__ import annotations

import time
from typing import Any, Iterable, Iterator, Mapping

from ..compiler.engine import ExchangeEngine
from ..compiler.hints import Hints
from ..exec.core import Outcome, execute, through_cache
from ..exec.retry import CircuitBreaker
from ..mapping.sttgd import SchemaMapping
from ..obs import get_registry, get_tracer
from ..options import ExchangeOptions
from ..provenance import ProvenanceLog, Solution
from ..relational.instance import Instance
from ..stats import Statistics
from .api import (
    ExchangeRequest,
    ExchangeResponse,
    PartialSolution,
    ResumptionToken,
    settle,
)
from .streaming import (
    DEFAULT_CHUNK_FACTS,
    FactChunk,
    StreamingSolution,
    fact_chunks,
    request_payload,
)
from .tenancy import DEFAULT_TENANT, FairShareGate, ServiceOverloaded, TenantQuota

__all__ = [
    "ExchangeRequest",
    "ExchangeResponse",
    "ExchangeService",
    "PartialSolution",
    "RequestPlan",
    "ResumptionToken",
    "ServiceOverloaded",
    "TenantQuota",
]


class RequestPlan:
    """One admitted request on its way through the exchange core.

    :attr:`cached` is the cache's answer (``None`` on a miss or without
    a cache).  Otherwise the front end runs the request — :meth:`run` in
    process, or :meth:`payload` on a pool worker through
    :func:`~repro.service.streaming.exchange_payload` — and hands the
    outcome to :meth:`finish` (or :meth:`respond`).  :meth:`release`
    frees the admission slot; a plan is also a context manager that
    releases on exit.
    """

    def __init__(
        self,
        service: "ExchangeService",
        request: ExchangeRequest,
        options: ExchangeOptions,
        admitted: bool,
    ) -> None:
        self.request = request
        self.options = options
        self.budget = options.budget()
        self.started = time.perf_counter()
        self._service = service
        self._admitted = admitted
        token = request.token
        resume = token is not None and token.resumable_in_place
        self.partial = token.partial if resume else None
        self._history = token.provenance if resume else None
        engine = service.engine
        self.cached, self._keep = through_cache(
            None if resume else engine.cache,
            engine.fingerprint,
            request.source,
            engine.backend,
            options.wants_provenance,
        )

    def run(self) -> Outcome:
        """Run the request through the exchange core, in this process."""
        log = None
        if self.options.wants_provenance:
            # A continuation extends the interrupted history in step order.
            history = self._history
            log = ProvenanceLog() if history is None else history.copy()
        engine = self._service.engine
        return execute(
            engine.mapping,
            self.request.source,
            self.options,
            self.budget,
            provenance=log,
            backend=engine.backend,
            partial=self.partial,
        )

    def payload(self) -> dict[str, Any]:
        """The request as a pool payload (deadline measured from now)."""
        engine = self._service.engine
        return request_payload(
            engine.mapping, self.request, self.options, engine.backend
        )

    def finish(self, outcome: Outcome) -> Instance | Solution | PartialSolution:
        """Store a fresh outcome in the cache and settle it into a result."""
        return settle(
            self._keep(outcome),
            source=self.request.source,
            mapping_fingerprint=self._service.engine.fingerprint,
            options=self.options,
            budget=self.budget,
        )

    def respond(self, outcome: Outcome) -> ExchangeResponse:
        """:meth:`finish`, as the uniform :class:`ExchangeResponse`."""
        return ExchangeResponse.from_result(
            self.finish(outcome),
            tenant=self.request.tenant,
            request_id=self.request.request_id,
            elapsed_seconds=time.perf_counter() - self.started,
        )

    def release(self) -> None:
        """Give the admission slot back (idempotent)."""
        if self._admitted:
            self._admitted = False
            self._service.gate.release(self.request.tenant, 1)

    def __enter__(self) -> "RequestPlan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


class ExchangeService:
    """A long-running exchange endpoint over one compiled mapping.

    >>> service = ExchangeService(mapping, ExchangeOptions(
    ...     workers=2, deadline=0.5, max_facts=100_000))
    >>> result = service.exchange(source)
    >>> if isinstance(result, PartialSolution):
    ...     result = service.resume(source, result.token)   # more budget
    >>> service.close()

    The redesigned surface speaks request/response objects —
    :meth:`request` for one-shot answers, :meth:`stream` for chunked
    delivery — while :meth:`exchange` / :meth:`exchange_many` /
    :meth:`resume` remain as the thin positional forms.  Every one of
    them, and the HTTP server, admits through :meth:`plan`.  Admission
    control is per tenant: pass ``quotas`` to guarantee configured
    tenants their weighted share of ``max_in_flight`` (see
    :mod:`repro.service.tenancy`).

    The service is thread-safe at the admission-control boundary; the
    library entry points run one request per call, in process.
    *breaker* (default: a fresh
    :class:`~repro.exec.retry.CircuitBreaker`) and ``options.retry``
    guard the worker pool of an HTTP server over this service.
    """

    def __init__(
        self,
        mapping: SchemaMapping,
        options: ExchangeOptions | None = None,
        *,
        statistics: Statistics | None = None,
        hints: Hints | None = None,
        max_in_flight: int = 64,
        quotas: Mapping[str, TenantQuota] | None = None,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        if max_in_flight < 1:
            raise ValueError(f"max_in_flight must be >= 1, got {max_in_flight}")
        self._options = options if options is not None else ExchangeOptions()
        self._engine = ExchangeEngine.compile(
            mapping, statistics, hints, options=self._options
        )
        self._breaker = breaker if breaker is not None else CircuitBreaker()
        self._gate = FairShareGate(max_in_flight, quotas)

    # -- introspection -------------------------------------------------------

    @property
    def engine(self) -> ExchangeEngine:
        return self._engine

    @property
    def mapping(self) -> SchemaMapping:
        return self._engine.mapping

    @property
    def options(self) -> ExchangeOptions:
        return self._options

    @property
    def breaker(self) -> CircuitBreaker:
        """The circuit breaker guarding the server's worker pool."""
        return self._breaker

    @property
    def gate(self) -> FairShareGate:
        """The admission controller (per-tenant state, ``snapshot()``)."""
        return self._gate

    @property
    def in_flight(self) -> int:
        return self._gate.in_flight

    @property
    def max_in_flight(self) -> int:
        return self._gate.capacity

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Nothing to release: the service holds no processes (the HTTP
        server owns the worker pool).  Kept so callers close uniformly."""

    def __enter__(self) -> "ExchangeService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- admission: the step every entry point takes ------------------------

    def plan(self, request: ExchangeRequest, *, admit: bool = True) -> RequestPlan:
        """Check, admit and count one request; look it up in the cache.

        Raises ``ValueError`` when the request's token is for another
        mapping or source, or its options change a server-side field
        (``workers``, ``cache``, ``backend``, ``retry``), and
        :class:`ServiceOverloaded` when admission fails.  Counts
        ``service.requests`` (and ``service.resumptions`` for tokens).
        *admit* false skips admission for a request whose slot the caller
        already holds.
        """
        options = self._options.admit_request(request.options)
        token = request.token
        if token is not None:
            if token.mapping_fingerprint != self._engine.fingerprint:
                raise ValueError("resumption token is for a different mapping")
            if token.source_fingerprint != request.source.fingerprint():
                raise ValueError("resumption token is for a different source")
        if admit:
            self._gate.admit(request.tenant, 1)
        registry = get_registry()
        registry.increment("service.requests")
        if token is not None:
            registry.increment("service.resumptions")
        return RequestPlan(self, request, options, admit)

    # -- the request/response API -------------------------------------------

    def request(self, request: ExchangeRequest) -> ExchangeResponse:
        """Answer one :class:`ExchangeRequest` with an :class:`ExchangeResponse`.

        Continuations (requests carrying a token) resume; everything
        else exchanges.  Admission, budgets and degradation behave
        exactly as in :meth:`exchange` — the response's ``status`` says
        which way it went.
        """
        with self.plan(request) as plan:
            return plan.respond(self._run(plan))

    def stream(
        self,
        request: ExchangeRequest,
        *,
        chunk_facts: int = DEFAULT_CHUNK_FACTS,
    ) -> StreamingSolution:
        """Answer a request with incrementally delivered fact chunks.

        Returns a :class:`~repro.service.streaming.StreamingSolution`;
        iterate it for :class:`~repro.service.streaming.FactChunk`\\ s
        (the request runs in process), then read ``.response`` for the
        final status/token.  Admission happens here, up front; the slot is
        held until the stream is drained or dropped.
        """
        if chunk_facts < 1:
            raise ValueError(f"chunk_facts must be >= 1, got {chunk_facts}")
        plan = self.plan(request)
        return StreamingSolution(self._stream_chunks(plan, chunk_facts))

    def _stream_chunks(
        self, plan: RequestPlan, chunk_facts: int
    ) -> Iterator[FactChunk]:
        with plan, get_tracer().span(
            "service.stream",
            tenant=plan.request.tenant,
            payloads=1,
            source_facts=plan.request.source.size(),
        ) as span:
            get_registry().increment("service.streams")
            response = plan.respond(plan.cached or plan.run())
            yield from fact_chunks(response.facts, chunk_facts)
            span.set(target_facts=response.facts.size())
        return response  # noqa: B901 — StreamingSolution reads StopIteration.value

    # -- exchange ------------------------------------------------------------

    def exchange(
        self,
        source: Instance,
        *,
        options: ExchangeOptions | None = None,
        tenant: str = DEFAULT_TENANT,
    ) -> Instance | Solution | PartialSolution:
        """One budgeted request: a full solution or a :class:`PartialSolution`.

        *options* overrides the service defaults for this request only
        (e.g. a tighter per-tenant deadline); *tenant* names the
        admission-control queue it bills to.  Never raises on budget
        exhaustion or chase step caps; egd *failures*
        (:class:`~repro.mapping.chase.ChaseFailure` — the mapping has no
        solution) still raise, because no amount of budget fixes them.
        """
        with self.plan(ExchangeRequest(source, tenant, options)) as plan:
            return plan.finish(self._run(plan))

    def exchange_many(
        self,
        sources: Iterable[Instance],
        *,
        options: ExchangeOptions | None = None,
        tenant: str = DEFAULT_TENANT,
    ) -> list[Instance | Solution | PartialSolution]:
        """A budgeted batch, admitted whole or rejected whole.

        Admission control reserves the full batch up front: if the batch
        does not fit next to the requests already in flight (or past the
        tenant's own share), the whole batch is rejected with
        :class:`ServiceOverloaded` — no partial batch ever runs, so
        callers can safely retry it elsewhere.
        """
        batch = list(sources)
        units = max(1, len(batch))
        self._gate.admit(tenant, units)
        try:
            with get_tracer().span(
                "service.batch", sources=len(batch), tenant=tenant
            ) as span:
                results = []
                for source in batch:
                    request = ExchangeRequest(source, tenant, options)
                    plan = self.plan(request, admit=False)
                    results.append(plan.finish(self._run(plan)))
                degraded = sum(
                    1 for r in results if isinstance(r, PartialSolution)
                )
                span.set(degraded=degraded)
            return results
        finally:
            self._gate.release(tenant, units)

    def _run(self, plan: RequestPlan) -> Outcome:
        """The plan's outcome, in process, under a ``service.*`` span."""
        request = plan.request
        name = "service.resume" if request.token is not None else "service.exchange"
        with get_tracer().span(name, source_facts=request.source.size()) as span:
            outcome = plan.cached or plan.run()
            if outcome.status == "partial":
                span.set(
                    degraded=outcome.violated,
                    phase=outcome.phase,
                    partial_facts=outcome.solution.size(),
                )
            else:
                span.set(target_facts=outcome.solution.size())
            return outcome

    # -- resumption ----------------------------------------------------------

    def resume(
        self,
        source: Instance,
        token: "ResumptionToken | str | Mapping[str, Any]",
        *,
        options: ExchangeOptions | None = None,
        tenant: str = DEFAULT_TENANT,
    ) -> Instance | Solution | PartialSolution:
        """Continue a degraded exchange under a fresh budget.

        *token* may be the :class:`ResumptionToken` object or its JSON
        serialization (text or parsed object) — tokens round-trip across
        processes, so a token minted by one service instance resumes on
        another serving the same mapping.  The token must come from this
        service's mapping and *source* (fingerprint-checked;
        ``ValueError`` otherwise).  A ``"target_dependencies"`` token
        continues the chase from the partial instance; earlier phases
        re-run the exchange from the source.  The result is again either
        a full solution or another :class:`PartialSolution` with a
        fresher token.
        """
        if not isinstance(token, ResumptionToken):
            token = ResumptionToken.from_json(token)
        with self.plan(ExchangeRequest(source, tenant, options, token)) as plan:
            return plan.finish(self._run(plan))
