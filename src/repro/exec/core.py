"""The exchange core: one request in, one :class:`Outcome` out.

Every front end runs a request through :func:`execute` —
``ExchangeService.exchange``/``exchange_many``/``resume``/``request``/
``stream``, the HTTP server's pool workers
(:func:`repro.service.streaming.exchange_payload`), and
``ExchangeEngine.exchange`` (so ``repro exchange`` too).
:func:`execute` picks the engine — the SQL backend, the
id-space or value-space chase, or the target-dependency chase that
resumes a partial instance in place — and is the one place where budget
exhaustion and step caps become a partial outcome.  :func:`through_cache`
is the one place the solution cache is read and written.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..budget import Budget, BudgetExceeded
from ..mapping.chase import (
    ChaseNonTermination,
    ChaseStatistics,
    ChaseVariant,
    chase,
    chase_target_dependencies,
    id_path_applies,
)
from ..mapping.sttgd import SchemaMapping
from ..options import ExchangeOptions
from ..provenance.store import NOOP, ProvenanceLog
from ..relational.instance import Instance
from .cache import ExchangeCache

__all__ = ["Outcome", "execute", "through_cache"]


@dataclass(frozen=True)
class Outcome:
    """What one run of the core produced.

    ``status`` is ``"complete"`` or ``"partial"``; ``solution`` is the
    universal solution, or the chase prefix when partial.  ``violated``
    and ``phase`` name the exhausted limit and the interrupted phase
    (partial only).  ``provenance`` is the run's lineage (``None``
    without provenance); ``statistics`` the chase's counters (``None``
    when a SQL backend or the cache answered).
    """

    status: str
    solution: Instance
    violated: str | None = None
    phase: str | None = None
    provenance: ProvenanceLog | None = None
    statistics: ChaseStatistics | None = None


def _answering_backend(backend: Any, provenance: bool, resuming: bool = False) -> Any:
    """The SQL backend that answers, or ``None`` for the chase.

    Backends record no lineage and cannot continue a partial instance.
    """
    return None if provenance or resuming else backend


def execute(
    mapping: SchemaMapping,
    source: Instance,
    options: ExchangeOptions,
    budget: Budget | None = None,
    *,
    provenance: ProvenanceLog | None = None,
    backend: Any = None,
    partial: Instance | None = None,
    degrade: bool = True,
) -> Outcome:
    """Run one exchange of *source*, or resume *partial* in place.

    *backend* is a ready SQL backend (``None`` for the chase); it
    answers unless lineage is recorded into *provenance* or a partial
    instance resumes.  The chase builds the source's column store first
    whenever the id-space fast path will take the request.  Budget
    exhaustion and the step cap return a partial outcome, or raise when
    *degrade* is false; chase *failures* always raise.
    """
    store = provenance if provenance is not None else NOOP
    backend = _answering_backend(backend, provenance is not None, partial is not None)
    statistics = None
    try:
        if partial is not None:
            solution = chase_target_dependencies(
                partial,
                mapping.target_dependencies,
                options=options,
                budget=budget,
                provenance=store,
            )
        elif backend is not None:
            solution = backend.exchange(source, budget)
        else:
            if id_path_applies(mapping, ChaseVariant.NAIVE, budget, store):
                source.columnar()
            result = chase(
                mapping, source, options=options, budget=budget, provenance=store
            )
            solution, statistics = result.solution, result.statistics
    except BudgetExceeded as exc:
        if not degrade:
            raise
        failure, violated, phase = exc, exc.violated, exc.phase or "st_tgds"
    except ChaseNonTermination as exc:
        if not degrade:
            raise
        failure, violated, phase = exc, "max_steps", "target_dependencies"
    else:
        return Outcome(
            "complete", solution, provenance=provenance, statistics=statistics
        )
    prefix = failure.partial
    if prefix is None:
        prefix = partial if partial is not None else Instance(mapping.target, [])
    return Outcome(
        "partial",
        prefix,
        violated,
        "target_dependencies" if partial is not None else phase,
        provenance,
        failure.statistics,
    )


def _unchanged(outcome: Outcome) -> Outcome:
    return outcome


def through_cache(
    cache: ExchangeCache | None,
    mapping_key: str,
    source: Instance,
    backend: Any,
    provenance: bool,
) -> tuple[Outcome | None, Callable[[Outcome], Outcome]]:
    """Look the request up in *cache*: ``(hit, keep)``.

    ``hit`` is the cached complete outcome, or ``None``; on a miss the
    caller runs the request and passes the outcome through ``keep``,
    which stores it when complete and returns it.  The key covers the
    mapping, the source and the engine that answers: the SQL backends
    return the core, the chase the canonical solution, and one cache
    may serve several services.  A request that records lineage skips
    an entry stored without it, and storing upgrades that entry.
    Without a cache nothing is fingerprinted.
    """
    if cache is None:
        return None, _unchanged
    engine = _answering_backend(backend, provenance)
    key = f"{mapping_key}/{engine.name if engine is not None else 'interpreted'}"
    source_key = source.fingerprint()
    entry = cache.lookup_entry(key, source_key, require_provenance=provenance)
    if entry is not None:
        solution, log = entry
        return Outcome(
            "complete", solution, provenance=log.copy() if provenance else None
        ), _unchanged

    def keep(outcome: Outcome) -> Outcome:
        if outcome.status == "complete":
            log = outcome.provenance
            cache.store(
                key,
                source_key,
                outcome.solution,
                log.copy() if log is not None else None,
            )
        return outcome

    return None, keep
