"""Incremental delivery of target facts, and the pool-worker payload codec.

A solution reaches a client in :class:`FactChunk`\\ s of bounded size
(:func:`fact_chunks`), so the client decodes facts in batches instead of
one response body.  Two front ends stream:

* :meth:`repro.service.ExchangeService.stream` — synchronous, yields a
  :class:`StreamingSolution`;
* :mod:`repro.service.aserve` — the asyncio HTTP layer, writing each
  chunk as one NDJSON line (:func:`fact_lines`, docs/SERVICE.md).

Both yield facts in :meth:`Instance.facts` order, the buffered reply's.

The HTTP server runs on worker processes every request it does not
answer on its event loop (:data:`repro.service.aserve.INLINE_MAX_FACTS`):
:func:`request_payload` packs one request, :func:`exchange_payload` (in
the worker) unpacks it, runs the exchange core
(:func:`repro.exec.core.execute`) and packs the outcome, and
:func:`outcome_from_dict` unpacks that in the parent.  Both
unpacks defer the value table, so neither side builds value objects for
a request the id-space chase takes.
:class:`StreamSession` bundles those steps for callers that run payloads
themselves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterator

from ..budget import Budget
from ..exec.core import Outcome, execute
from ..mapping.sttgd import SchemaMapping
from ..options import ExchangeOptions
from ..provenance import ProvenanceLog, Solution
from ..relational.columnar import pack_instance, unpack_instance
from ..relational.instance import Instance, Row
from ..relational.serialization import (
    fact_texts,
    ordered_facts,
    value_from_json,
    value_to_json,
)
from .api import ExchangeRequest, ExchangeResponse, PartialSolution, settle

__all__ = [
    "DEFAULT_CHUNK_FACTS",
    "FactChunk",
    "StreamSession",
    "StreamingSolution",
    "exchange_payload",
    "fact_chunks",
    "fact_lines",
    "outcome_from_dict",
    "request_payload",
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


def fact_chunks(instance: Instance, chunk_facts: int) -> Iterator[FactChunk]:
    """*instance*'s facts in chunks of at most *chunk_facts*.

    Facts come in :meth:`Instance.facts` order, the order of the
    buffered reply and of :func:`fact_lines`, whatever the hash seed.
    """
    batch: list[tuple[str, Row]] = []
    for fact in ordered_facts(instance):
        batch.append(fact)
        if len(batch) >= chunk_facts:
            yield FactChunk(-1, tuple(batch))
            batch = []
    if batch:
        yield FactChunk(-1, tuple(batch))


def fact_lines(instance: Instance, chunk_facts: int) -> Iterator[bytes]:
    """The NDJSON ``facts`` lines of :func:`fact_chunks`, written from id columns.

    Each line is the compact ``json.dumps`` of a chunk's
    :meth:`FactChunk.as_dict` plus a newline, byte for byte, with the
    facts' texts from :func:`~repro.relational.serialization.fact_texts`.
    """
    texts = fact_texts(instance, (",", ":"))
    for start in range(0, len(texts), chunk_facts):
        batch = texts[start : start + chunk_facts]
        yield (
            f'{{"kind":"facts","shard":-1,"count":{len(batch)},'
            f'"facts":[{",".join(batch)}]}}\n'
        ).encode("utf-8")


def _pack(instance: Instance) -> bytes:
    store = instance.columnar_store
    if store is not None:
        return store.pack()
    return pack_instance(instance)


def request_payload(
    mapping: SchemaMapping,
    request: ExchangeRequest,
    options: ExchangeOptions,
    backend: Any = None,
) -> dict[str, Any]:
    """One request as a picklable payload for :func:`exchange_payload`.

    The payload carries the :class:`~repro.mapping.sttgd.SchemaMapping`
    itself (mappings pickle compactly, target dependencies included —
    unlike ``to_text``), the source as a flat column buffer, the options
    as their wire dict, the ready SQL *backend* (or ``None``), and — for
    continuations — the token's partial instance and lineage snapshot.
    Deadlines travel as absolute unix time so pool queue wait counts
    against the budget.
    """
    token = request.token
    resume = token is not None and token.resumable_in_place
    payload = {
        "mode": "resume" if resume else "full",
        "mapping": mapping,
        "options": options.as_dict(),
        "source": _pack(request.source),
        "token_provenance": None,
        "want_provenance": options.wants_provenance,
        "deadline_at": (
            time.time() + options.deadline if options.deadline is not None else None
        ),
        "backend": backend,
    }
    if resume:
        payload["partial"] = _pack(token.partial)
        if token.provenance is not None and options.wants_provenance:
            payload["token_provenance"] = token.provenance.to_json_text()
    return payload


def exchange_payload(payload: dict[str, Any]) -> dict[str, Any]:
    """Pool worker: unpack one payload, run the exchange core, pack the outcome.

    Module-level so ``ProcessPoolExecutor`` can pickle it.  Outcome
    dict: ``status`` (``"complete"``/``"partial"``), ``solution``
    (packed buffer — the chase prefix when partial), ``violated``/
    ``phase`` (partial only), ``provenance`` (JSON text or ``None``) and
    ``seconds`` spent in the worker.  Chase *failures* (unsatisfiable
    egds) raise through the pool: no amount of budget fixes a mapping
    with no solution.
    """
    started = time.perf_counter()
    options = ExchangeOptions.from_dict(payload["options"])
    deadline_at = payload.get("deadline_at")
    budget = None
    if deadline_at is not None or options.max_facts is not None:
        remaining = (
            max(1e-9, deadline_at - time.time()) if deadline_at is not None else None
        )
        budget = Budget(deadline=remaining, max_facts=options.max_facts)
    log = None
    if payload["want_provenance"]:
        history = payload["token_provenance"]  # JSON text, never empty
        log = ProvenanceLog.from_json_text(history) if history else ProvenanceLog()
    outcome = execute(
        payload["mapping"],
        unpack_instance(payload["source"]),
        options,
        budget,
        provenance=log,
        backend=payload.get("backend"),
        partial=(
            unpack_instance(payload["partial"]) if payload["mode"] == "resume" else None
        ),
    )
    return {
        "status": outcome.status,
        "solution": _pack(outcome.solution),
        "violated": outcome.violated,
        "phase": outcome.phase,
        "provenance": log.to_json_text() if log is not None else None,
        "seconds": time.perf_counter() - started,
    }


def outcome_from_dict(data: dict[str, Any]) -> Outcome:
    """The parent half of :func:`exchange_payload`'s outcome codec."""
    text = data["provenance"]
    return Outcome(
        data["status"],
        unpack_instance(data["solution"]),
        data["violated"],
        data["phase"],
        ProvenanceLog.from_json_text(text) if text is not None else None,
    )


class StreamSession:
    """One request as one pool payload, its outcome turned into chunks.

    Construction plans :attr:`payloads` (always one: requests are never
    split); the caller runs it through :func:`exchange_payload` however
    it likes and feeds the outcome dict to :meth:`chunks`, which yields
    :class:`FactChunk`\\ s.  :meth:`response` and :meth:`summary_dict`
    then report the result.  The service and the HTTP server take the
    same steps through :meth:`repro.service.ExchangeService.plan`.
    """

    sharded = False
    """Always ``False``: a request runs as one payload (kept for the wire)."""

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
        self._request = request
        self._options = options
        self._mapping_fingerprint = mapping_fingerprint
        self._chunk_facts = chunk_facts
        self._result: Instance | Solution | PartialSolution = Instance(
            mapping.target, []
        )
        self.fact_count = 0
        self.payloads = [request_payload(mapping, request, options)]

    def chunks(self, index: int, outcome: dict[str, Any]) -> Iterator[FactChunk]:
        """Turn payload *index*'s outcome dict into fact chunks."""
        self._result = settle(
            outcome_from_dict(outcome),
            source=self._request.source,
            mapping_fingerprint=self._mapping_fingerprint,
            options=self._options,
        )
        for chunk in fact_chunks(self.response().facts, self._chunk_facts):
            self.fact_count += len(chunk)
            yield chunk

    def response(self, *, elapsed_seconds: float = 0.0) -> ExchangeResponse:
        """The final response once the payload's chunks were drained."""
        return ExchangeResponse.from_result(
            self._result,
            tenant=self._request.tenant,
            request_id=self._request.request_id,
            elapsed_seconds=elapsed_seconds,
        )

    def summary_dict(self, *, elapsed_seconds: float = 0.0) -> dict[str, Any]:
        """The NDJSON ``summary`` trailer line (docs/SERVICE.md)."""
        return self.response(elapsed_seconds=elapsed_seconds).summary_dict()


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
