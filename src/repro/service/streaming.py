"""Incremental delivery of target facts: one payload out, chunks back.

The batch service buffers a whole solution before the first byte reaches
the client.  Streaming delivers it in pieces: :class:`StreamSession`
plans one request as one worker payload, :func:`exchange_payload` runs
it (in a pool worker or in process), and the session turns the outcome
into :class:`FactChunk`\\ s, so the client decodes facts in bounded
batches instead of one response body.

Two front ends drive a session:

* :meth:`repro.service.ExchangeService.stream` — synchronous, yields a
  :class:`StreamingSolution`;
* :mod:`repro.service.aserve` — the asyncio HTTP layer, writing each
  chunk as one NDJSON line (docs/SERVICE.md "Streaming format").

Budgeted or provenance-recording requests report ``partial`` outcomes
with a resumable :class:`~repro.service.api.ResumptionToken` built
parent-side.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterator

from ..budget import Budget, BudgetExceeded
from ..mapping.chase import ChaseNonTermination, chase, chase_target_dependencies
from ..mapping.sttgd import SchemaMapping
from ..options import ExchangeOptions
from ..provenance import ProvenanceLog, Solution
from ..relational.columnar import pack_instance, unpack_instance
from ..relational.instance import Instance, Row
from ..relational.serialization import value_from_json, value_to_json
from .api import ExchangeRequest, ExchangeResponse, PartialSolution, ResumptionToken

__all__ = [
    "DEFAULT_CHUNK_FACTS",
    "FactChunk",
    "StreamSession",
    "StreamingSolution",
    "exchange_payload",
]

DEFAULT_CHUNK_FACTS = 2048
"""Facts per NDJSON chunk: big enough to amortize a line's JSON overhead,
small enough that the first chunk leaves before a large solution
finishes encoding."""


@dataclass(frozen=True)
class FactChunk:
    """One streamed batch of target facts.

    ``shard`` stays on the wire for compatibility and is always ``-1``
    (requests are never split); ``facts`` are ``(relation, row)`` pairs.
    """

    shard: int
    facts: tuple[tuple[str, Row], ...]

    def __len__(self) -> int:
        return len(self.facts)

    def as_dict(self) -> dict[str, Any]:
        """One NDJSON ``facts`` line (docs/SERVICE.md)."""
        return {
            "kind": "facts",
            "shard": self.shard,
            "count": len(self.facts),
            "facts": [
                {"relation": name, "row": [value_to_json(v) for v in row]}
                for name, row in self.facts
            ],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FactChunk":
        """Decode a ``facts`` line (the client half of the codec)."""
        return cls(
            shard=int(data.get("shard", -1)),
            facts=tuple(
                (f["relation"], tuple(value_from_json(v) for v in f["row"]))
                for f in data["facts"]
            ),
        )


def exchange_payload(payload: dict[str, Any]) -> dict[str, Any]:
    """Pool worker: run one streaming payload, return a packed outcome.

    Module-level so ``ProcessPoolExecutor`` can pickle it.  The payload
    carries the :class:`~repro.mapping.sttgd.SchemaMapping` itself
    (mappings pickle compactly, target dependencies included — unlike
    ``to_text``), the source as a flat column buffer, the options
    as their wire dict, and — for continuations — the token's partial
    instance and lineage snapshot.  Deadlines travel as absolute unix
    time so pool queue wait counts against the budget.

    Outcome dict: ``status`` (``"complete"``/``"partial"``), ``solution``
    (packed buffer — the chase prefix when partial), ``violated``/
    ``phase`` (partial only), ``provenance`` (JSON text or ``None``) and
    ``seconds``.  Chase *failures* (unsatisfiable egds) raise through
    the pool: no amount of streaming fixes a mapping with no solution.
    """
    started = time.perf_counter()
    mapping: SchemaMapping = payload["mapping"]
    options = ExchangeOptions.from_dict(payload["options"])
    mode = payload["mode"]
    source = unpack_instance(payload["source"])
    deadline_at = payload.get("deadline_at")
    budget = None
    if deadline_at is not None or options.max_facts is not None:
        remaining = (
            max(1e-9, deadline_at - time.time()) if deadline_at is not None else None
        )
        budget = Budget(deadline=remaining, max_facts=options.max_facts)
    provenance = ProvenanceLog() if payload["want_provenance"] else None
    if provenance is not None and payload.get("token_provenance") is not None:
        # Continue the interrupted history: the token's snapshot seeds
        # the log and new records extend it in step order.
        provenance.absorb(ProvenanceLog.from_json_text(payload["token_provenance"]))

    try:
        if mode == "resume":
            partial = unpack_instance(payload["partial"])
            solution = chase_target_dependencies(
                partial,
                mapping.target_dependencies,
                options=options,
                budget=budget,
                provenance=provenance,
            )
        else:
            solution = chase(
                mapping,
                source,
                options=options,
                budget=budget,
                provenance=provenance,
            ).solution
    except BudgetExceeded as exc:
        return _partial_outcome(
            mapping, exc.violated, exc.partial, exc.phase or "st_tgds",
            exc, provenance, started,
        )
    except ChaseNonTermination as exc:
        return _partial_outcome(
            mapping, "max_steps", exc.partial, "target_dependencies",
            exc, provenance, started,
        )
    return {
        "status": "complete",
        "solution": _pack(solution),
        "violated": None,
        "phase": None,
        "provenance": provenance.to_json_text() if provenance is not None else None,
        "seconds": time.perf_counter() - started,
    }


def _partial_outcome(
    mapping: SchemaMapping,
    violated: str,
    partial: Instance | None,
    phase: str,
    exc: BaseException,
    provenance: ProvenanceLog | None,
    started: float,
) -> dict[str, Any]:
    if partial is None:
        partial = Instance(mapping.target, [])
    attached = getattr(exc, "provenance", None)
    log = attached if attached is not None else provenance
    return {
        "status": "partial",
        "solution": _pack(partial),
        "violated": violated,
        "phase": phase,
        "provenance": log.to_json_text() if log is not None else None,
        "seconds": time.perf_counter() - started,
    }


def _pack(instance: Instance) -> bytes:
    store = instance.columnar_store
    if store is not None:
        return store.pack()
    return pack_instance(instance)


class StreamSession:
    """Parent-side state for one streaming exchange.

    Construction plans the request's one payload (:attr:`payloads`); the
    driver runs it — in-process, on a thread or process pool, however it
    likes — and feeds the outcome back through :meth:`chunks`, which
    yields :class:`FactChunk`\\ s.  Afterwards :meth:`response`
    assembles the final :class:`~repro.service.api.ExchangeResponse`
    (and :meth:`summary_dict` the NDJSON trailer).
    """

    def __init__(
        self,
        mapping: SchemaMapping,
        request: ExchangeRequest,
        options: ExchangeOptions,
        *,
        mapping_fingerprint: str,
        chunk_facts: int = DEFAULT_CHUNK_FACTS,
    ) -> None:
        if chunk_facts < 1:
            raise ValueError(f"chunk_facts must be >= 1, got {chunk_facts}")
        self._mapping = mapping
        self._request = request
        self._mapping_fingerprint = mapping_fingerprint
        self._chunk_facts = chunk_facts
        self._fact_count = 0
        # The outcome (filled by chunks()):
        self._status = "complete"
        self._violated: str | None = None
        self._phase: str | None = None
        self._provenance: ProvenanceLog | None = None
        self._result_instance: Instance | None = None
        self.payloads: list[dict[str, Any]] = [self._payload(request, options)]

    def _payload(
        self, request: ExchangeRequest, options: ExchangeOptions
    ) -> dict[str, Any]:
        token = request.token
        resume = token is not None and token.resumable_in_place
        payload = {
            "mode": "resume" if resume else "full",
            "mapping": self._mapping,
            "options": options.as_dict(),
            "source": _pack(request.source),
            "token_provenance": None,
            "want_provenance": options.wants_provenance,
            "deadline_at": (
                time.time() + options.deadline
                if options.deadline is not None
                else None
            ),
        }
        if resume:
            payload["partial"] = _pack(token.partial)
            if token.provenance is not None and options.wants_provenance:
                payload["token_provenance"] = token.provenance.to_json_text()
        return payload

    # -- introspection -------------------------------------------------------

    @property
    def sharded(self) -> bool:
        """Always ``False``: a request runs as one payload (kept for the wire)."""
        return False

    @property
    def fact_count(self) -> int:
        return self._fact_count

    # -- chunk production ----------------------------------------------------

    def chunks(self, index: int, outcome: dict[str, Any]) -> Iterator[FactChunk]:
        """Turn payload *index*'s outcome into fact chunks.

        Also records the outcome (status, violated budget, lineage) that
        :meth:`response` reports.
        """
        self._status = outcome["status"]
        self._violated = outcome["violated"]
        self._phase = outcome["phase"]
        if outcome["provenance"] is not None:
            self._provenance = ProvenanceLog.from_json_text(outcome["provenance"])
        instance = unpack_instance(outcome["solution"])
        self._result_instance = instance
        batch: list[tuple[str, Row]] = []
        for name in instance.relation_names():
            for row in instance.rows(name):
                batch.append((name, row))
                if len(batch) >= self._chunk_facts:
                    self._fact_count += len(batch)
                    yield FactChunk(-1, tuple(batch))
                    batch = []
        if batch:
            self._fact_count += len(batch)
            yield FactChunk(-1, tuple(batch))

    # -- completion ----------------------------------------------------------

    def _token(self) -> ResumptionToken | None:
        if self._status != "partial":
            return None
        partial = self._result_instance
        assert partial is not None
        return ResumptionToken(
            mapping_fingerprint=self._mapping_fingerprint,
            source_fingerprint=self._request.source.fingerprint(),
            phase=self._phase or "st_tgds",
            partial=partial,
            provenance=self._provenance,
        )

    def response(self, *, elapsed_seconds: float = 0.0) -> ExchangeResponse:
        """The final response once the payload's chunks were drained."""
        facts = self._result_instance
        if facts is None:
            facts = Instance(self._mapping.target, [])
        result: Instance | Solution | PartialSolution = facts
        token = self._token()
        if token is not None:
            result = PartialSolution(
                facts, self._violated or "deadline", None, token, self._provenance
            )
        elif self._provenance is not None:
            result = Solution(facts, self._provenance, self._request.source)
        return ExchangeResponse.from_result(
            result,
            tenant=self._request.tenant,
            request_id=self._request.request_id,
            elapsed_seconds=elapsed_seconds,
        )

    def summary_dict(self, *, elapsed_seconds: float = 0.0) -> dict[str, Any]:
        """The NDJSON ``summary`` trailer line (docs/SERVICE.md)."""
        token = self._token()
        return {
            "kind": "summary",
            "status": self._status,
            "violated": self._violated,
            "fact_count": self._fact_count,
            "token": token.as_dict() if token is not None else None,
            "elapsed_ms": round(elapsed_seconds * 1000.0, 3),
        }


class StreamingSolution:
    """A lazily-consumed stream of :class:`FactChunk`\\ s.

    Iterate to receive chunks as payloads complete; once the iterator is
    exhausted, :attr:`response` holds the final
    :class:`~repro.service.api.ExchangeResponse` (status, token,
    provenance).  :meth:`collect` drains and returns that response in
    one call for callers who wanted the batch API after all.
    """

    def __init__(self, generator: Iterator[FactChunk]) -> None:
        self._generator = generator
        self.response: ExchangeResponse | None = None

    def __iter__(self) -> "StreamingSolution":
        return self

    def __next__(self) -> FactChunk:
        try:
            return next(self._generator)
        except StopIteration as stop:
            if stop.value is not None:
                self.response = stop.value
            raise

    def collect(self) -> ExchangeResponse:
        """Drain the stream and return the final response."""
        for _ in self:
            pass
        assert self.response is not None
        return self.response
