"""`ExchangeOptions` — the one options object every entry point accepts.

Four PRs of organic growth spelled limits four ways: ``chase(max_target_steps=)``,
``ExchangeEngine.compile(workers=, cache=)``, per-subcommand CLI flags.
This module unifies them:

>>> from repro import ExchangeOptions, ExchangeEngine
>>> opts = ExchangeOptions(workers=2, cache=64, deadline=0.5, max_facts=100_000)
>>> engine = ExchangeEngine.compile(mapping, options=opts)

Fields map one-to-one onto CLI flags (``--workers``, ``--cache``,
``--max-steps``, ``--deadline``, ``--max-facts``, ``--backend``), onto the
knobs of :class:`~repro.service.ExchangeService`, and — all but the
server-side ``workers``, ``cache``, ``backend`` and ``retry`` — onto the
JSON ``options`` object of the HTTP service (:meth:`ExchangeOptions.as_dict`
/ :meth:`ExchangeOptions.from_dict` — see docs/SERVICE.md).  The
pre-unification keyword arguments (``workers=``/``cache=`` on
``ExchangeEngine.compile``, ``max_target_steps=`` on ``chase``) were
removed after a deprecation cycle; passing them is a ``TypeError`` now —
see README "Migrating to ExchangeOptions".

Standard-library only; imports :mod:`repro.budget` and nothing else from
:mod:`repro`, so every layer can depend on it without cycles.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping

from .budget import Budget

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .exec.cache import ExchangeCache
    from .provenance.store import ProvenanceStore

__all__ = ["DEFAULT_MAX_STEPS", "ExchangeOptions", "RetryPolicy"]

DEFAULT_MAX_STEPS = 10_000
"""The default target-dependency chase-step cap (the seed's value)."""


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter for pool startup / worker crashes.

    The HTTP server (:mod:`repro.service.aserve`) applies it to its
    worker-pool dispatch.

    ``delay(attempt)`` for attempts 1, 2, 3... is
    ``min(max_delay, base_delay * multiplier**(attempt-1))`` scaled by a
    random factor in ``[1, 1+jitter]``.  A ``seed`` makes the jitter
    deterministic (fault-injection tests rely on this).  ``max_retries=0``
    falls back to the in-process chase after one failed dispatch.
    """

    max_retries: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.1
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")

    def rng(self) -> random.Random:
        """A jitter source (deterministic when ``seed`` is set)."""
        return random.Random(self.seed)

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry *attempt* (1-based), jittered via *rng*."""
        raw = min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))
        return raw * (1.0 + self.jitter * rng.random())


@dataclass(frozen=True)
class ExchangeOptions:
    """Every limit and executor knob of one exchange, in one frozen object.

    * ``workers`` — size of the HTTP server's worker pool (requests,
      not parts of one, run in parallel; server-side, not on the wire);
    * ``cache`` — LRU capacity (or a prebuilt
      :class:`~repro.exec.cache.ExchangeCache`, shareable between
      services) for universal solutions; server-side;
    * ``max_steps`` — target-dependency chase-step cap
      (:class:`~repro.mapping.chase.ChaseNonTermination` past it);
    * ``deadline`` — wall-clock seconds per request
      (:class:`~repro.budget.BudgetExceeded` past it);
    * ``max_facts`` — target-fact cap per request (ditto);
    * ``retry`` — the server pool's failure :class:`RetryPolicy`;
    * ``provenance`` — record fact-level lineage (``True`` for a fresh
      per-request :class:`~repro.provenance.ProvenanceLog`, or a
      prebuilt :class:`~repro.provenance.ProvenanceStore`); results
      come back as :class:`~repro.provenance.Solution` wrappers that
      can ``explain(fact)``.
    * ``backend`` — where the exchange runs: ``"interpreted"`` (the
      Python chase, the default), ``"sqlite"`` or ``"duckdb"``
      (SQL-compiled via :mod:`repro.backends`; mappings outside the
      compilable fragment fall back to the interpreted chase with a
      structured reason); server-side.
    """

    workers: int | None = None
    cache: "ExchangeCache | int | None" = None
    max_steps: int = DEFAULT_MAX_STEPS
    deadline: float | None = None
    max_facts: int | None = None
    retry: RetryPolicy = RetryPolicy()
    provenance: "bool | ProvenanceStore" = False
    backend: str = "interpreted"

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if isinstance(self.cache, int) and self.cache < 1:
            raise ValueError(f"cache capacity must be >= 1, got {self.cache}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be positive, got {self.deadline}")
        if self.max_facts is not None and self.max_facts < 1:
            raise ValueError(f"max_facts must be >= 1, got {self.max_facts}")
        if self.backend not in ("interpreted", "sqlite", "duckdb"):
            raise ValueError(
                f"backend must be one of 'interpreted', 'sqlite', 'duckdb'; "
                f"got {self.backend!r}"
            )

    # -- derived views ------------------------------------------------------

    @property
    def wants_backend(self) -> bool:
        """True when a SQL-compiled backend is requested."""
        return self.backend != "interpreted"

    @property
    def budgeted(self) -> bool:
        """True when the options imply a per-request :class:`Budget`."""
        return self.deadline is not None or self.max_facts is not None

    @property
    def wants_provenance(self) -> bool:
        """True when the options ask for lineage recording.

        Duck-typed (``.enabled``) rather than isinstance so this module
        keeps its no-:mod:`repro`-imports cycle guarantee.
        """
        if isinstance(self.provenance, bool):
            return self.provenance
        return bool(getattr(self.provenance, "enabled", False))

    def budget(self) -> Budget | None:
        """A fresh per-request budget (``None`` when nothing is capped).

        The budget's clock starts *now*: build one per request, not one
        per engine.
        """
        if not self.budgeted:
            return None
        return Budget(deadline=self.deadline, max_facts=self.max_facts)

    def replace(self, **changes: object) -> "ExchangeOptions":
        """A copy with *changes* applied (``dataclasses.replace``)."""
        return dataclasses.replace(self, **changes)

    # -- wire format --------------------------------------------------------

    # The fields a remote client may set, i.e. everything that survives a
    # JSON round-trip.  ``workers``, ``cache``, ``backend`` and ``retry``
    # stay server-side: pool size, solution cache, engine and retry policy
    # are operator knobs, not request knobs.
    _WIRE_FIELDS = ("max_steps", "deadline", "max_facts", "provenance")
    _SERVER_FIELDS = ("workers", "cache", "backend", "retry")

    def admit_request(self, request: "ExchangeOptions | None") -> "ExchangeOptions":
        """The options one request runs with, on a service configured by *self*.

        The server-side fields belong to the service: a request may
        leave them at their defaults or repeat the service's value, and
        anything else raises ``ValueError`` instead of being dropped.
        """
        if request is None:
            return self
        for name in self._SERVER_FIELDS:
            asked, serving = getattr(request, name), getattr(self, name)
            if asked != serving and asked != getattr(_DEFAULTS, name):
                raise ValueError(
                    f"options.{name} is set by the service ({serving!r}); "
                    f"a request cannot change it to {asked!r}"
                )
        return request

    def as_dict(self) -> dict[str, Any]:
        """A JSON-compatible dict of the wire fields (stable keys).

        A prebuilt provenance store degrades to the boolean "record
        lineage", so ``from_dict(as_dict())`` round-trips the *request
        semantics*, not object identity.
        """
        out: dict[str, Any] = {}
        for name in self._WIRE_FIELDS:
            value = getattr(self, name)
            if name == "provenance" and not isinstance(value, bool):
                value = bool(getattr(value, "enabled", False))
            out[name] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExchangeOptions":
        """Build options from a JSON object (the HTTP request's ``options``).

        Missing keys take their defaults; unknown keys raise
        ``ValueError`` so client typos fail loudly instead of silently
        running with defaults.
        """
        if not isinstance(data, Mapping):
            raise ValueError(f"options must be a JSON object, got {data!r}")
        unknown = sorted(set(data) - set(cls._WIRE_FIELDS))
        if unknown:
            raise ValueError(
                f"unknown option keys {unknown}; allowed: "
                f"{sorted(cls._WIRE_FIELDS)}"
            )
        kwargs: dict[str, Any] = {}
        for name in cls._WIRE_FIELDS:
            if name in data and data[name] is not None:
                kwargs[name] = data[name]
        if "max_steps" not in kwargs:
            kwargs["max_steps"] = DEFAULT_MAX_STEPS
        if "provenance" in kwargs and not isinstance(kwargs["provenance"], bool):
            raise ValueError("options['provenance'] must be a boolean on the wire")
        return cls(**kwargs)


_DEFAULTS = ExchangeOptions()
