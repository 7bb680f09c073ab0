"""The service's public request/response vocabulary.

PR 5 grew the service organically: ``exchange(source)`` returned one of
three unrelated types and the resumption token was an internal dataclass
that leaked raw fingerprints through ``repr`` and could not cross a
process boundary.  This module redesigns that surface around four
explicit objects:

* :class:`ExchangeRequest` — everything one request is: the source
  instance, the tenant it bills to, per-request
  :class:`~repro.options.ExchangeOptions`, and (for continuations) a
  :class:`ResumptionToken`;
* :class:`ExchangeResponse` — the uniform reply: status
  (``"complete"``/``"partial"``), the target facts, the violated budget
  and a fresh token when degraded;
* :class:`ResumptionToken` — now a **stable, versioned, JSON-serializable
  pagination API**: :meth:`ResumptionToken.to_json` in one process,
  :meth:`ResumptionToken.from_json` in another, resume, and the final
  solution is canonically equal to the uninterrupted run (tested in
  tests/service/test_token_roundtrip.py);
* :class:`PartialSolution` — unchanged contract, but its ``repr`` and
  new :meth:`PartialSolution.as_dict` no longer leak fingerprint
  internals and match the token's JSON shape.

Wire shapes are documented in docs/SERVICE.md; every ``as_dict`` here is
the body (or a sub-object) of the HTTP API in
:mod:`repro.service.aserve`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

from ..budget import Budget
from ..exec.core import Outcome
from ..mapping.chase import ChaseStatistics
from ..obs import get_registry
from ..options import ExchangeOptions
from ..provenance import ProvenanceLog, Solution
from ..relational.instance import Instance
from ..relational.serialization import (
    instance_from_json,
    instance_json_text,
    instance_to_json,
)
from .tenancy import DEFAULT_TENANT

__all__ = [
    "ExchangeRequest",
    "ExchangeResponse",
    "PartialSolution",
    "ResumptionToken",
    "TOKEN_KIND",
    "TOKEN_VERSION",
    "settle",
]

TOKEN_VERSION = 1
"""Version stamped into every serialized token.

Bump only with a migration path in :meth:`ResumptionToken.from_json`;
clients treat tokens as opaque, so the version is the *only* thing that
may reject one.
"""

TOKEN_KIND = "repro.resumption-token"
"""Type tag distinguishing tokens from other JSON objects on the wire."""


def _digest_preview(fingerprint: str) -> str:
    """First 8 hex chars — enough to eyeball, not enough to leak."""
    return fingerprint[:8]


@dataclass(frozen=True, repr=False)
class ResumptionToken:
    """Where a budget-interrupted exchange stopped, and how to continue.

    ``phase`` names the interrupted chase phase:

    * ``"target_dependencies"`` — the st-tgd phase completed;
      :meth:`ExchangeService.resume` continues the target-dependency
      chase from ``partial`` (sound: the chase is monotone and the
      restricted chase from any intermediate instance still reaches a
      solution);
    * ``"st_tgds"`` / ``"merge"`` — the interruption predates a
      resumable waypoint; resume re-runs the exchange from the source
      under the new budget.

    The fingerprints pin the token to one (mapping, source) pair so a
    token cannot be replayed against different data.  ``provenance``
    snapshots the lineage recorded before the interruption (``None``
    when the request ran without provenance); resume extends it across
    the continued chase so the final solution explains facts from *both*
    sides of the interruption.

    Tokens are a public pagination API: :meth:`to_json` /
    :meth:`from_json` round-trip across processes and service instances
    (versioned — see :data:`TOKEN_VERSION`), so an HTTP client can hold
    a token, come back later, and continue against any replica serving
    the same mapping.
    """

    mapping_fingerprint: str
    source_fingerprint: str
    phase: str
    partial: Instance
    provenance: ProvenanceLog | None = None

    @property
    def resumable_in_place(self) -> bool:
        return self.phase == "target_dependencies"

    def __repr__(self) -> str:
        return (
            f"ResumptionToken(phase={self.phase!r}, "
            f"partial_facts={self.partial.size()}, "
            f"mapping={_digest_preview(self.mapping_fingerprint)}…, "
            f"source={_digest_preview(self.source_fingerprint)}…)"
        )

    # -- the versioned wire format ------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        """The token's stable JSON shape (see docs/SERVICE.md "Pagination").

        Full fingerprints are included — they are what pins a token to
        its (mapping, source) pair on resume — but the shape is versioned
        and kind-tagged so it can evolve without breaking held tokens.
        """
        return {
            "version": TOKEN_VERSION,
            "kind": TOKEN_KIND,
            "mapping": self.mapping_fingerprint,
            "source": self.source_fingerprint,
            "phase": self.phase,
            "partial": instance_to_json(self.partial),
            "provenance": (
                json.loads(self.provenance.to_json_text())
                if self.provenance is not None
                else None
            ),
        }

    def to_json(self) -> str:
        """Serialize for transport; :meth:`from_json` anywhere restores it."""
        return json.dumps(self.as_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, data: str | Mapping[str, Any]) -> "ResumptionToken":
        """Restore a token serialized by :meth:`to_json` / :meth:`as_dict`.

        Accepts the JSON text or the already-parsed object (the HTTP
        layer hands the parsed request body straight in).  Raises
        ``ValueError`` on a wrong kind, an unsupported version, or a
        malformed payload — never silently resumes from garbage.
        """
        if isinstance(data, str):
            data = json.loads(data)
        if not isinstance(data, Mapping):
            raise ValueError(f"resumption token must be a JSON object, got {data!r}")
        kind = data.get("kind")
        if kind != TOKEN_KIND:
            raise ValueError(f"not a resumption token (kind={kind!r})")
        version = data.get("version")
        if version != TOKEN_VERSION:
            raise ValueError(
                f"unsupported resumption token version {version!r} "
                f"(this build speaks version {TOKEN_VERSION})"
            )
        try:
            provenance_data = data.get("provenance")
            return cls(
                mapping_fingerprint=str(data["mapping"]),
                source_fingerprint=str(data["source"]),
                phase=str(data["phase"]),
                partial=instance_from_json(data["partial"]),
                provenance=(
                    ProvenanceLog.from_json_text(json.dumps(provenance_data))
                    if provenance_data is not None
                    else None
                ),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed resumption token: {exc}") from exc


@dataclass(frozen=True, repr=False)
class PartialSolution:
    """What a budget-exhausted exchange managed to produce.

    ``facts`` is a *prefix* of the chase: every fact is derivable, so it
    is a subset (up to null naming) of the full canonical universal
    solution — useful for best-effort answers and for resumption, but
    **not** a solution (some dependency may be unsatisfied).  ``violated``
    names the exhausted limit (``"deadline"`` / ``"max_facts"`` /
    ``"max_steps"``); ``token`` feeds :meth:`ExchangeService.resume`;
    ``provenance`` is the partial lineage recorded up to the
    interruption (``None`` when the request ran without provenance), so
    even a degraded answer can explain the facts it *did* produce.
    """

    facts: Instance
    violated: str
    statistics: ChaseStatistics | None
    token: ResumptionToken
    provenance: ProvenanceLog | None = None

    @property
    def is_partial(self) -> bool:
        """True — shared vocabulary with full Instances via ``getattr``."""
        return True

    def __repr__(self) -> str:
        return (
            f"PartialSolution({self.facts.size()} facts, "
            f"violated={self.violated!r}, phase={self.token.phase!r})"
        )

    def as_dict(self, *, include_facts: bool = False) -> dict[str, Any]:
        """A JSON view matching the token format (docs/SERVICE.md).

        The token inside already carries the partial instance, so the
        facts are not duplicated unless *include_facts* asks for them.
        """
        out: dict[str, Any] = {
            "status": "partial",
            "violated": self.violated,
            "phase": self.token.phase,
            "fact_count": self.facts.size(),
            "token": self.token.as_dict(),
        }
        if include_facts:
            out["facts"] = instance_to_json(self.facts)
        return out


def settle(
    outcome: Outcome,
    *,
    source: Instance,
    mapping_fingerprint: str,
    options: ExchangeOptions,
    budget: Budget | None = None,
) -> "Instance | Solution | PartialSolution":
    """Turn an exchange-core outcome into the result a caller sees.

    A partial outcome becomes a :class:`PartialSolution` with a fresh
    :class:`ResumptionToken` — the one place tokens are minted — and
    counts ``service.degraded`` and ``service.<violated>_exceeded``.  A
    complete one becomes the solution (a :class:`~repro.provenance.Solution`
    when it carries lineage) and feeds the ``service.budget.remaining_*``
    histograms.  A caller-supplied provenance store in *options* absorbs
    the run's lineage.
    """
    registry = get_registry()
    log = outcome.provenance
    if log is not None and isinstance(options.provenance, ProvenanceLog):
        log = options.provenance.absorb(log)
    if outcome.status == "partial":
        registry.increment("service.degraded")
        registry.increment(f"service.{outcome.violated}_exceeded")
        token = ResumptionToken(
            mapping_fingerprint=mapping_fingerprint,
            source_fingerprint=source.fingerprint(),
            phase=outcome.phase,
            partial=outcome.solution,
            provenance=log.copy() if log is not None else None,
        )
        return PartialSolution(
            outcome.solution, outcome.violated, outcome.statistics, token, log
        )
    if budget is not None:
        remaining_seconds = budget.remaining_seconds()
        if remaining_seconds is not None:
            registry.observe("service.budget.remaining_seconds", remaining_seconds)
        remaining_facts = budget.remaining_facts(outcome.solution.size())
        if remaining_facts is not None:
            registry.observe("service.budget.remaining_facts", remaining_facts)
    if log is not None:
        return Solution(outcome.solution, log, source)
    return outcome.solution


_REQUEST_WIRE_KEYS = ("tenant", "source", "options", "token", "request_id", "stream")


@dataclass(frozen=True)
class ExchangeRequest:
    """One exchange request, complete and immutable.

    ``source`` is the instance to exchange; ``tenant`` is who it bills
    to (admission control is per tenant — :mod:`repro.service.tenancy`);
    ``options`` overrides the service defaults for this request only;
    ``token`` makes this a *continuation* of a previously degraded
    request; ``request_id`` is an optional client-chosen correlation id
    echoed through responses, spans and log lines.
    """

    source: Instance
    tenant: str = DEFAULT_TENANT
    options: ExchangeOptions | None = None
    token: ResumptionToken | None = None
    request_id: str | None = None

    def __post_init__(self) -> None:
        if not self.tenant:
            raise ValueError("tenant must be a non-empty string")

    @property
    def is_resume(self) -> bool:
        return self.token is not None

    def as_dict(self) -> dict[str, Any]:
        """The HTTP request body shape (``POST /v1/exchange``)."""
        return {
            "tenant": self.tenant,
            "source": instance_to_json(self.source),
            "options": self.options.as_dict() if self.options is not None else None,
            "token": self.token.as_dict() if self.token is not None else None,
            "request_id": self.request_id,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExchangeRequest":
        """Parse an HTTP request body; unknown keys fail loudly."""
        if not isinstance(data, Mapping):
            raise ValueError(f"request must be a JSON object, got {data!r}")
        unknown = sorted(set(data) - set(_REQUEST_WIRE_KEYS))
        if unknown:
            raise ValueError(
                f"unknown request keys {unknown}; allowed: "
                f"{sorted(_REQUEST_WIRE_KEYS)}"
            )
        if "source" not in data or data["source"] is None:
            raise ValueError("request is missing 'source'")
        options = data.get("options")
        token = data.get("token")
        return cls(
            source=instance_from_json(data["source"]),
            tenant=str(data.get("tenant") or DEFAULT_TENANT),
            options=(
                ExchangeOptions.from_dict(options) if options is not None else None
            ),
            token=ResumptionToken.from_json(token) if token is not None else None,
            request_id=(
                str(data["request_id"])
                if data.get("request_id") is not None
                else None
            ),
        )


@dataclass(frozen=True, repr=False)
class ExchangeResponse:
    """The uniform reply to an :class:`ExchangeRequest`.

    ``status`` is ``"complete"`` or ``"partial"``; ``facts`` always
    holds the produced target instance (the full solution, or the
    chase prefix when degraded).  ``result`` keeps the underlying
    object — an :class:`~repro.relational.instance.Instance`, a
    provenance-carrying :class:`~repro.provenance.Solution`, or a
    :class:`PartialSolution` — for callers that need the richer API
    (``explain``, statistics); the flat fields exist so nobody has to
    isinstance-switch to learn what happened.
    """

    status: str
    facts: Instance
    result: "Instance | Solution | PartialSolution"
    tenant: str = DEFAULT_TENANT
    request_id: str | None = None
    violated: str | None = None
    token: ResumptionToken | None = None
    elapsed_seconds: float = 0.0

    @property
    def complete(self) -> bool:
        return self.status == "complete"

    def __repr__(self) -> str:
        detail = f", violated={self.violated!r}" if self.violated else ""
        return (
            f"ExchangeResponse({self.status}, {self.facts.size()} facts, "
            f"tenant={self.tenant!r}{detail})"
        )

    @classmethod
    def from_result(
        cls,
        result: "Instance | Solution | PartialSolution",
        *,
        tenant: str = DEFAULT_TENANT,
        request_id: str | None = None,
        elapsed_seconds: float = 0.0,
    ) -> "ExchangeResponse":
        """Wrap a legacy ``exchange()`` result into the uniform response."""
        if isinstance(result, PartialSolution):
            return cls(
                status="partial",
                facts=result.facts,
                result=result,
                tenant=tenant,
                request_id=request_id,
                violated=result.violated,
                token=result.token,
                elapsed_seconds=elapsed_seconds,
            )
        facts = result.instance if isinstance(result, Solution) else result
        return cls(
            status="complete",
            facts=facts,
            result=result,
            tenant=tenant,
            request_id=request_id,
            elapsed_seconds=elapsed_seconds,
        )

    def as_dict(self, *, include_facts: bool = True) -> dict[str, Any]:
        """The HTTP response body shape (non-streaming ``POST /v1/exchange``)."""
        out: dict[str, Any] = {
            "status": self.status,
            "tenant": self.tenant,
            "request_id": self.request_id,
            "fact_count": self.facts.size(),
            "violated": self.violated,
            "token": self.token.as_dict() if self.token is not None else None,
            "elapsed_ms": round(self.elapsed_seconds * 1000.0, 3),
        }
        if include_facts:
            out["facts"] = instance_to_json(self.facts)
        return out

    def to_json(self) -> str:
        """``json.dumps(self.as_dict())``, byte for byte: the buffered HTTP body.

        The facts are written from the solution's id columns
        (:func:`~repro.relational.serialization.instance_json_text`), so
        a store-backed solution builds no value objects on the way out.
        """
        head = json.dumps(self.as_dict(include_facts=False))
        return f'{head[:-1]}, "facts": {instance_json_text(self.facts)}}}'

    def summary_dict(self) -> dict[str, Any]:
        """The NDJSON ``summary`` trailer of a streamed reply (docs/SERVICE.md)."""
        return {
            "kind": "summary",
            "status": self.status,
            "violated": self.violated,
            "fact_count": self.facts.size(),
            "token": self.token.as_dict() if self.token is not None else None,
            "elapsed_ms": round(self.elapsed_seconds * 1000.0, 3),
        }
