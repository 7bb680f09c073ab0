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

from ..budget import Budget, BudgetExceeded
from ..compiler.engine import ExchangeEngine
from ..compiler.hints import Hints
from ..exec.cache import mapping_fingerprint
from ..exec.parallel import exchange_in_process
from ..exec.retry import CircuitBreaker
from ..mapping.chase import (
    ChaseNonTermination,
    ChaseStatistics,
    chase_target_dependencies,
)
from ..mapping.sttgd import SchemaMapping
from ..obs import get_registry, get_tracer
from ..options import ExchangeOptions
from ..provenance import ProvenanceLog, Solution, resolve_provenance
from ..relational.instance import Instance
from ..stats import Statistics
from .api import ExchangeRequest, ExchangeResponse, PartialSolution, ResumptionToken
from .streaming import (
    DEFAULT_CHUNK_FACTS,
    FactChunk,
    StreamingSolution,
    StreamSession,
    exchange_payload,
)
from .tenancy import DEFAULT_TENANT, FairShareGate, ServiceOverloaded, TenantQuota

__all__ = [
    "ExchangeRequest",
    "ExchangeResponse",
    "ExchangeService",
    "PartialSolution",
    "ResumptionToken",
    "ServiceOverloaded",
    "TenantQuota",
]


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
    :meth:`resume` remain as the thin positional forms.  Admission
    control is per tenant: pass ``quotas`` to guarantee configured
    tenants their weighted share of ``max_in_flight`` (see
    :mod:`repro.service.tenancy`).

    The service is thread-safe at the admission-control boundary; the
    underlying chase runs one request per call, in process.  *breaker*
    (default: a fresh :class:`~repro.exec.retry.CircuitBreaker`) and
    ``options.retry`` guard the worker pool of an HTTP server over this
    service.  Use it as a context manager to guarantee worker-pool
    shutdown.
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
        self._mapping_fingerprint = mapping_fingerprint(mapping)
        self._closed = False

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
        """Shut the engine's worker pool down (idempotent)."""
        self._closed = True
        self._engine.close()

    def __enter__(self) -> "ExchangeService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- the request/response API -------------------------------------------

    def request(self, request: ExchangeRequest) -> ExchangeResponse:
        """Answer one :class:`ExchangeRequest` with an :class:`ExchangeResponse`.

        Continuations (requests carrying a token) resume; everything
        else exchanges.  Admission, budgets and degradation behave
        exactly as in :meth:`exchange` — the response's ``status`` says
        which way it went.
        """
        opts = request.options if request.options is not None else self._options
        started = time.perf_counter()
        if request.token is not None:
            result = self.resume(
                request.source, request.token, options=opts, tenant=request.tenant
            )
        else:
            result = self.exchange(
                request.source, options=opts, tenant=request.tenant
            )
        return ExchangeResponse.from_result(
            result,
            tenant=request.tenant,
            request_id=request.request_id,
            elapsed_seconds=time.perf_counter() - started,
        )

    def stream(
        self,
        request: ExchangeRequest,
        *,
        chunk_facts: int = DEFAULT_CHUNK_FACTS,
    ) -> StreamingSolution:
        """Answer a request with incrementally delivered fact chunks.

        Returns a :class:`~repro.service.streaming.StreamingSolution`;
        iterate it for :class:`~repro.service.streaming.FactChunk`\\ s
        (the payload runs in process), then read ``.response`` for the
        final status/token.  Admission happens here, up front; the slot is
        held until the stream is drained or dropped.
        """
        opts = request.options if request.options is not None else self._options
        if request.token is not None:
            self._check_token(request.source, request.token)
        self._gate.admit(request.tenant, 1)
        started = time.perf_counter()
        try:
            session = StreamSession(
                self.mapping,
                request,
                opts,
                mapping_fingerprint=self._mapping_fingerprint,
                chunk_facts=chunk_facts,
            )
        except BaseException:
            self._gate.release(request.tenant, 1)
            raise
        return StreamingSolution(self._stream_chunks(request, session, started))

    def _stream_chunks(
        self, request: ExchangeRequest, session: StreamSession, started: float
    ) -> Iterator[FactChunk]:
        registry = get_registry()
        try:
            with get_tracer().span(
                "service.stream",
                tenant=request.tenant,
                payloads=len(session.payloads),
                source_facts=request.source.size(),
            ) as span:
                registry.increment("service.requests")
                registry.increment("service.streams")
                for index, payload in enumerate(session.payloads):
                    yield from session.chunks(index, exchange_payload(payload))
                span.set(target_facts=session.fact_count)
            response = session.response(
                elapsed_seconds=time.perf_counter() - started
            )
            if not response.complete:
                registry.increment("service.degraded")
                if response.violated:
                    registry.increment(f"service.{response.violated}_exceeded")
            return response  # noqa: B901 — StreamingSolution reads StopIteration.value
        finally:
            self._gate.release(request.tenant, 1)

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
        self._gate.admit(tenant, 1)
        try:
            return self._exchange_admitted(source, options or self._options)
        finally:
            self._gate.release(tenant, 1)

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
        opts = options or self._options
        self._gate.admit(tenant, max(1, len(batch)))
        try:
            with get_tracer().span(
                "service.batch", sources=len(batch), tenant=tenant
            ) as span:
                results = [self._exchange_admitted(s, opts) for s in batch]
                degraded = sum(
                    1 for r in results if isinstance(r, PartialSolution)
                )
                span.set(degraded=degraded)
            return results
        finally:
            self._gate.release(tenant, max(1, len(batch)))

    def _exchange_admitted(
        self, source: Instance, opts: ExchangeOptions
    ) -> Instance | Solution | PartialSolution:
        registry = get_registry()
        budget = opts.budget()
        store = resolve_provenance(opts.provenance)
        with get_tracer().span(
            "service.exchange", source_facts=source.size()
        ) as span:
            registry.increment("service.requests")
            try:
                solution = self._run(source, opts, budget, store)
            except BudgetExceeded as exc:
                return self._degrade(
                    source,
                    exc.violated,
                    exc.partial,
                    exc.statistics,
                    exc.phase or "st_tgds",
                    span,
                    provenance=self._partial_provenance(exc, store),
                )
            except ChaseNonTermination as exc:
                return self._degrade(
                    source,
                    "max_steps",
                    exc.partial,
                    exc.statistics,
                    "target_dependencies",
                    span,
                    provenance=self._partial_provenance(exc, store),
                )
            self._observe_remaining(budget, solution)
            span.set(target_facts=solution.size())
            if store.enabled:
                return Solution(solution, store, source)
            return solution

    @staticmethod
    def _partial_provenance(
        exc: BaseException, store
    ) -> ProvenanceLog | None:
        """The lineage recorded before *exc* interrupted the request.

        The chase attaches its store to the exception, which wins over
        the request store; a cached path may not have absorbed into the
        request store yet.
        """
        attached = getattr(exc, "provenance", None)
        if attached is not None:
            return attached
        return store if store.enabled else None

    def _run(
        self,
        source: Instance,
        opts: ExchangeOptions,
        budget: Budget | None,
        provenance,
    ) -> Instance:
        backend_plan = self._engine.backend_plan
        if (
            backend_plan is not None
            and backend_plan.ready
            and not provenance.enabled
        ):
            # The SQL backend honours the same budget (phase boundaries
            # plus per-tgd checks), so BudgetExceeded degrades exactly
            # like the interpreted paths.  Provenance requests never
            # reach here: plan_backend already fell back for them.
            return backend_plan.backend.exchange(source, budget)
        executor = self._engine.executor
        if executor is not None:
            return executor.exchange(source, budget, provenance)
        return exchange_in_process(
            self.mapping, source, opts.max_steps, budget, provenance
        )

    def _degrade(
        self,
        source: Instance,
        violated: str,
        partial: Instance | None,
        statistics: ChaseStatistics | None,
        phase: str,
        span,
        provenance: ProvenanceLog | None = None,
    ) -> PartialSolution:
        registry = get_registry()
        registry.increment("service.degraded")
        registry.increment(f"service.{violated}_exceeded")
        if partial is None:
            partial = Instance(self.mapping.target, [])
        token = ResumptionToken(
            mapping_fingerprint=self._mapping_fingerprint,
            source_fingerprint=source.fingerprint(),
            phase=phase,
            partial=partial,
            provenance=provenance.copy() if provenance is not None else None,
        )
        span.set(degraded=violated, phase=phase, partial_facts=partial.size())
        return PartialSolution(partial, violated, statistics, token, provenance)

    def _observe_remaining(self, budget: Budget | None, solution: Instance) -> None:
        """Budget headroom histograms: how close successful requests cut it."""
        if budget is None:
            return
        registry = get_registry()
        remaining_seconds = budget.remaining_seconds()
        if remaining_seconds is not None:
            registry.observe("service.budget.remaining_seconds", remaining_seconds)
        remaining_facts = budget.remaining_facts(solution.size())
        if remaining_facts is not None:
            registry.observe("service.budget.remaining_facts", remaining_facts)

    # -- resumption ----------------------------------------------------------

    def _check_token(self, source: Instance, token: ResumptionToken) -> None:
        if token.mapping_fingerprint != self._mapping_fingerprint:
            raise ValueError("resumption token is for a different mapping")
        if token.source_fingerprint != source.fingerprint():
            raise ValueError("resumption token is for a different source")

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
        self._check_token(source, token)
        opts = options or self._options
        get_registry().increment("service.resumptions")
        if not token.resumable_in_place:
            return self.exchange(source, options=opts, tenant=tenant)
        self._gate.admit(tenant, 1)
        try:
            budget = opts.budget()
            store = resolve_provenance(opts.provenance)
            if store.enabled and token.provenance is not None:
                # Continue the interrupted history: the token's snapshot
                # seeds the store and new records extend it in step order.
                store.absorb(token.provenance)
            with get_tracer().span(
                "service.resume", partial_facts=token.partial.size()
            ) as span:
                try:
                    solution = chase_target_dependencies(
                        token.partial,
                        self.mapping.target_dependencies,
                        options=opts,
                        budget=budget,
                        provenance=store,
                    )
                except BudgetExceeded as exc:
                    return self._degrade(
                        source,
                        exc.violated,
                        exc.partial if exc.partial is not None else token.partial,
                        exc.statistics,
                        "target_dependencies",
                        span,
                        provenance=self._partial_provenance(exc, store),
                    )
                except ChaseNonTermination as exc:
                    return self._degrade(
                        source,
                        "max_steps",
                        exc.partial if exc.partial is not None else token.partial,
                        exc.statistics,
                        "target_dependencies",
                        span,
                        provenance=self._partial_provenance(exc, store),
                    )
                self._observe_remaining(budget, solution)
                span.set(target_facts=solution.size())
                if store.enabled:
                    return Solution(solution, store, source)
                return solution
        finally:
            self._gate.release(tenant, 1)
