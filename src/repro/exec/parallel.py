"""The exchange executor: solution cache, in-process chase, worker pool.

:class:`ParallelExchange` answers forward exchanges for one mapping.  A
cache miss chases in process through :func:`exchange_in_process`, which
builds the source's column store first whenever the id-space fast path
will take the request (:func:`~repro.mapping.chase.id_path_applies`), so
premises join over integer ids.  An optional fingerprint-keyed
:class:`~repro.exec.cache.ExchangeCache` serves repeated sources, and
:meth:`~ParallelExchange.exchange_many` amortizes compilation over a
request stream.

The executor also owns the worker pool (``workers`` processes) that the
HTTP server (:mod:`repro.service.aserve`) dispatches whole requests to,
so one service owns one set of worker processes.  Retry with backoff and
the circuit breaker guard that dispatch, in the server.  Requests are
not split across processes: intra-request sharding was measured and
removed (docs/PERFORMANCE.md, "Intra-request sharding").
"""

from __future__ import annotations

import signal
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Iterable

from ..budget import Budget
from ..faults import fault_point
from ..mapping.chase import ChaseVariant, chase, id_path_applies
from ..mapping.sttgd import SchemaMapping
from ..obs import get_registry, get_tracer
from ..options import DEFAULT_MAX_STEPS, ExchangeOptions
from ..provenance.store import NOOP, ProvenanceLog, ProvenanceStore
from ..relational.instance import Instance
from .cache import ExchangeCache, mapping_fingerprint


def exchange_in_process(
    mapping: SchemaMapping,
    source: Instance,
    max_steps: int = DEFAULT_MAX_STEPS,
    budget: Budget | None = None,
    provenance: ProvenanceStore = NOOP,
) -> Instance:
    """The canonical universal solution for *source*, chased in this process.

    When the id-space fast path will take the request, the source's
    canonical column store is built (and memoized on *source*) before
    the chase, so the st-tgd phase runs over integer ids.  Budgeted and
    provenance-recording requests, and mappings with target
    dependencies, chase in value space and build no store.
    """
    if id_path_applies(mapping, ChaseVariant.NAIVE, budget, provenance):
        source.columnar()
    return chase(
        mapping,
        source,
        options=ExchangeOptions(max_steps=max_steps),
        budget=budget,
        provenance=provenance,
    ).solution


def _reset_inherited_signals() -> None:
    """Pool-worker initializer: drop the signal wiring forked from the parent.

    ``repro serve`` routes SIGTERM/SIGINT into its event loop through a
    wakeup fd.  A forked worker inherits that fd and the no-op Python
    handlers, so a SIGTERM the pool sends a worker (as it reaps a
    broken pool) would be ignored by the worker and would stop the
    parent server instead.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.default_int_handler)


class ParallelExchange:
    """A forward-exchange executor: solution cache + the service's worker pool.

    >>> executor = ParallelExchange(mapping, workers=4, cache=128)
    >>> solution = executor.exchange(source)          # one request
    >>> solutions = executor.exchange_many(stream)    # a batch
    >>> executor.close()                              # or use as a context manager

    :meth:`exchange` always chases in process; ``workers`` only sizes
    the pool :meth:`ensure_pool` hands to the HTTP server.
    """

    def __init__(
        self,
        mapping: SchemaMapping,
        workers: int | None = None,
        cache: ExchangeCache | int | None = None,
        options: ExchangeOptions | None = None,
    ) -> None:
        if options is not None:
            workers = workers if workers is not None else options.workers
            cache = cache if cache is not None else options.cache
            max_steps = options.max_steps
        else:
            max_steps = DEFAULT_MAX_STEPS
        self._mapping = mapping
        self._workers = workers if workers is not None else 1
        if isinstance(cache, int):
            cache = ExchangeCache(capacity=cache)
        self._cache = cache
        self._max_steps = max_steps
        self._mapping_key = mapping_fingerprint(mapping)
        self._pool: ProcessPoolExecutor | None = None

    # -- introspection -----------------------------------------------------

    @property
    def mapping(self) -> SchemaMapping:
        return self._mapping

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def cache(self) -> ExchangeCache | None:
        return self._cache

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "ParallelExchange":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def ensure_pool(self) -> ProcessPoolExecutor:
        """The worker pool, spawning it on first use.

        The HTTP server dispatches request payloads here, so one service
        owns one set of worker processes.  ``"pool.spawn"`` is the fault
        seam for spawn failures.
        """
        if self._pool is None:
            fault_point("pool.spawn")
            started = time.perf_counter()
            self._pool = ProcessPoolExecutor(
                max_workers=self._workers, initializer=_reset_inherited_signals
            )
            get_registry().observe(
                "exchange.pool.startup_seconds", time.perf_counter() - started
            )
        return self._pool

    def discard_pool(self, pool: ProcessPoolExecutor) -> bool:
        """Reap *pool* after a failure; ``False`` if it was already replaced.

        Waits for the pool's management thread, so a respawn never forks
        while it still runs; the next :meth:`ensure_pool` starts over.
        """
        if self._pool is not pool:
            return False
        self._pool = None
        pool.shutdown(wait=True, cancel_futures=True)
        return True

    # -- exchange ----------------------------------------------------------

    def exchange(
        self,
        source: Instance,
        budget: Budget | None = None,
        provenance: ProvenanceStore | None = None,
    ) -> Instance:
        """The canonical universal solution for *source* (cached).

        *budget* is a request-scoped :class:`~repro.budget.Budget`
        threaded into every chase step.  A cache hit never consults the
        budget (it is effectively free).

        With an enabled *provenance* store, cached solutions come back
        with their stored log (an entry cached without provenance counts
        as a miss and is upgraded in place).
        """
        store = provenance if provenance is not None else NOOP
        if self._cache is None:
            return self._chase(source, budget, store)
        if store.enabled:
            entry = self._cache.lookup_entry(
                self._mapping_key, source.fingerprint(), require_provenance=True
            )
            if entry is not None:
                solution, log = entry
                store.absorb(log)
                return solution
            run_log = ProvenanceLog()
            solution = self._chase(source, budget, run_log)
            self._cache.store(
                self._mapping_key, source.fingerprint(), solution, run_log.copy()
            )
            store.absorb(run_log)
            return solution
        cached = self._cache.lookup(self._mapping_key, source.fingerprint())
        if cached is not None:
            return cached
        solution = self._chase(source, budget, store)
        self._cache.store(self._mapping_key, source.fingerprint(), solution)
        return solution

    def exchange_many(self, sources: Iterable[Instance]) -> list[Instance]:
        """Exchange a request stream, amortizing compilation over it.

        Semantically ``[self.exchange(s) for s in sources]``; the batch
        span and the shared cache make the amortization visible to the
        observability layer.  (Budgeted, admission-controlled batches
        live one layer up in :class:`repro.service.ExchangeService`.)
        """
        batch = list(sources)
        with get_tracer().span("exchange.batch", sources=len(batch)) as span:
            out = [self.exchange(source) for source in batch]
            if self._cache is not None:
                span.set(cache_hits=self._cache.hits, cache_misses=self._cache.misses)
        return out

    def _chase(
        self, source: Instance, budget: Budget | None, provenance: ProvenanceStore
    ) -> Instance:
        return exchange_in_process(
            self._mapping, source, self._max_steps, budget, provenance
        )
