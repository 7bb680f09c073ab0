"""Request-scoped budgets: cooperative limits for one exchange.

A :class:`Budget` is the runtime half of
:class:`~repro.options.ExchangeOptions`: one mutable object per request,
checked cooperatively at chase-step and phase boundaries.  Two
limits live here —

* ``deadline`` — wall-clock seconds from the budget's creation;
* ``max_facts`` — a cap on the number of target facts materialized.

The chase-*step* cap is deliberately **not** a budget: exceeding
``ExchangeOptions.max_steps`` raises
:class:`~repro.mapping.chase.ChaseNonTermination` (the structural
non-termination guard the weak-acyclicity witness explains), while
exceeding a budget raises :class:`BudgetExceeded`.  The service layer
treats both as degradable — see :mod:`repro.service`.

This module is standard-library only and imports nothing from the rest
of :mod:`repro`, so every layer (mapping, exec, compiler, service) can
use it without cycles.
"""

from __future__ import annotations

import time
from typing import Any, Callable

__all__ = ["Budget", "BudgetExceeded"]


class BudgetExceeded(Exception):
    """A cooperative budget check failed.

    Attributes carry everything the service layer needs to degrade
    gracefully instead of crashing:

    * ``violated`` — which limit tripped (``"deadline"`` / ``"max_facts"``);
    * ``budget`` — the exhausted :class:`Budget`;
    * ``partial`` — the facts chased so far, as an
      :class:`~repro.relational.instance.Instance` (attached by the
      raising phase; ``None`` when nothing was materialized yet);
    * ``partial_facts`` — raw fact list for phases that have no schema
      at hand (the st-tgd phase); :func:`~repro.mapping.chase.chase`
      promotes it to ``partial``;
    * ``statistics`` — partial chase statistics, like
      :class:`~repro.mapping.chase.ChaseFailure` carries;
    * ``phase`` — where the check tripped (``"st_tgds"``,
      ``"target_dependencies"``, ``"merge"``, ...).
    """

    def __init__(self, message: str, violated: str, budget: "Budget | None" = None):
        super().__init__(message)
        self.violated = violated
        self.budget = budget
        self.partial: Any = None
        self.partial_facts: Any = None
        self.statistics: Any = None
        self.phase: str | None = None


class Budget:
    """A per-request budget, started at construction.

    >>> budget = Budget(deadline=0.05, max_facts=10_000)
    >>> budget.check(facts=instance.size())   # raises BudgetExceeded
    >>> budget.remaining_seconds()            # None when no deadline set

    Checks are cooperative: code holding a budget calls :meth:`check` at
    natural boundaries (chase steps, phase ends).  A budget with
    neither limit set is :attr:`unlimited` and every check is a no-op.
    """

    __slots__ = ("deadline", "max_facts", "_clock", "_started", "_checks")

    def __init__(
        self,
        deadline: float | None = None,
        max_facts: int | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be positive, got {deadline!r}")
        if max_facts is not None and max_facts < 1:
            raise ValueError(f"max_facts must be >= 1, got {max_facts!r}")
        self.deadline = deadline
        self.max_facts = max_facts
        self._clock = clock
        self._started = clock()
        self._checks = 0

    # -- introspection -----------------------------------------------------

    @property
    def unlimited(self) -> bool:
        """True when no limit is set (checks are no-ops)."""
        return self.deadline is None and self.max_facts is None

    @property
    def checks(self) -> int:
        """How many times :meth:`check` ran (cooperation visibility)."""
        return self._checks

    def elapsed_seconds(self) -> float:
        return self._clock() - self._started

    def remaining_seconds(self) -> float | None:
        """Wall-clock budget left; ``None`` when no deadline is set."""
        if self.deadline is None:
            return None
        return self.deadline - self.elapsed_seconds()

    def remaining_facts(self, facts: int) -> int | None:
        """Fact budget left given *facts* materialized; ``None`` if uncapped."""
        if self.max_facts is None:
            return None
        return self.max_facts - facts

    def as_dict(self) -> dict[str, float | int | None]:
        return {
            "deadline": self.deadline,
            "max_facts": self.max_facts,
            "elapsed_seconds": self.elapsed_seconds(),
        }

    # -- the cooperative check ---------------------------------------------

    def check(self, facts: int | None = None, phase: str | None = None) -> None:
        """Raise :class:`BudgetExceeded` if a limit is exhausted.

        *facts* is the current materialized fact count (checked against
        ``max_facts`` when both are present); *phase* labels the raising
        site on the exception.
        """
        self._checks += 1
        if self.deadline is not None:
            elapsed = self.elapsed_seconds()
            if elapsed >= self.deadline:
                exc = BudgetExceeded(
                    f"deadline of {self.deadline:.3f}s exhausted "
                    f"after {elapsed:.3f}s",
                    violated="deadline",
                    budget=self,
                )
                exc.phase = phase
                raise exc
        if self.max_facts is not None and facts is not None and facts >= self.max_facts:
            exc = BudgetExceeded(
                f"fact budget of {self.max_facts} exhausted ({facts} facts)",
                violated="max_facts",
                budget=self,
            )
            exc.phase = phase
            raise exc

    def __repr__(self) -> str:
        limits = []
        if self.deadline is not None:
            limits.append(f"deadline={self.deadline}")
        if self.max_facts is not None:
            limits.append(f"max_facts={self.max_facts}")
        return f"Budget({', '.join(limits) or 'unlimited'})"
