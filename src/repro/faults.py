"""Deterministic fault injection: every degradation path testable in CI.

The canonical import path is :mod:`repro.service.faults`; the
implementation lives here (a leaf module) so the layers it instruments —
:mod:`repro.mapping.chase` and :mod:`repro.service.aserve` — can
import the hook without cycles.

Code under test calls :func:`fault_point` at named seams; a
:class:`FaultPlan` installed via :func:`fault_injection` decides, from a
deterministic schedule, whether the Nth arrival at a seam raises, sleeps
or passes.  With no plan installed the hook is one global read and a
``None`` check — effectively free on the chase hot path.

Seams currently instrumented:

* ``"pool.spawn"``  — :class:`~repro.service.aserve.ExchangeServer`
  creating its ``ProcessPoolExecutor`` (inject ``OSError`` to simulate
  spawn failure);
* ``"pool.map"``    — the HTTP server dispatching a request payload to
  the pool (inject ``BrokenProcessPool`` to simulate a worker crash);
* ``"chase.step"``  — each target-dependency chase step (inject a sleep
  to simulate a slow/hostile chase and trip deadlines).

Cookbook::

    from repro.service.faults import FaultPlan, fault_injection

    # the first two pool dispatches crash, the third succeeds
    with fault_injection(FaultPlan.pool_crashes(2)):
        await client.exchange(body)      # against an ExchangeServer

    # a seeded schedule: reproducible, but not hand-placed
    with fault_injection(FaultPlan.seeded(7, site="pool.map", faults=2, horizon=8)):
        ...
"""

from __future__ import annotations

import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

__all__ = [
    "Fault",
    "FaultPlan",
    "InjectedFault",
    "active_fault_plan",
    "fault_injection",
    "fault_point",
    "install_fault_plan",
]

KNOWN_SITES = ("pool.spawn", "pool.map", "chase.step")


class InjectedFault(RuntimeError):
    """Default exception for injected faults with no explicit type."""


@dataclass(frozen=True)
class Fault:
    """One scheduled fault: at *site*, on visit number *index* (0-based).

    ``exc`` (an exception class or instance) is raised; with ``exc``
    unset and ``sleep_seconds`` > 0 the fault sleeps instead (a "slow
    chase"); with neither, :class:`InjectedFault` is raised.
    """

    site: str
    index: int
    exc: type[BaseException] | BaseException | None = None
    sleep_seconds: float = 0.0

    def fire(self) -> None:
        if self.exc is None and self.sleep_seconds > 0:
            time.sleep(self.sleep_seconds)
            return
        exc = self.exc if self.exc is not None else InjectedFault(
            f"injected fault at {self.site}[{self.index}]"
        )
        if isinstance(exc, type):
            exc = exc(f"injected fault at {self.site}[{self.index}]")
        raise exc


@dataclass
class FaultPlan:
    """A deterministic schedule of faults, consumed as seams are visited.

    The plan counts arrivals per seam; arrival *i* at seam *s* fires the
    fault scheduled at ``(s, i)`` if any.  ``fired`` and ``hits`` make
    the consumed schedule assertable in tests.
    """

    faults: tuple[Fault, ...] = ()
    _by_site: dict[str, dict[int, Fault]] = field(init=False, repr=False)
    _hits: dict[str, int] = field(init=False, repr=False)
    _fired: list[Fault] = field(init=False, repr=False)
    _lock: threading.Lock = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._by_site = {}
        for fault in self.faults:
            slot = self._by_site.setdefault(fault.site, {})
            if fault.index in slot:
                raise ValueError(
                    f"two faults scheduled at {fault.site}[{fault.index}]"
                )
            slot[fault.index] = fault
        self._hits = {}
        self._fired = []
        self._lock = threading.Lock()

    # -- constructors --------------------------------------------------------

    @classmethod
    def pool_crashes(cls, count: int, site: str = "pool.map") -> "FaultPlan":
        """The first *count* visits to *site* raise ``BrokenProcessPool``."""
        from concurrent.futures.process import BrokenProcessPool

        return cls(
            tuple(
                Fault(site, i, exc=BrokenProcessPool) for i in range(count)
            )
        )

    @classmethod
    def pool_spawn_failures(cls, count: int) -> "FaultPlan":
        """The first *count* pool creations raise ``OSError``."""
        return cls(tuple(Fault("pool.spawn", i, exc=OSError) for i in range(count)))

    @classmethod
    def slow_chase(cls, seconds: float, steps: int = 1_000_000) -> "FaultPlan":
        """Every chase step up to *steps* sleeps *seconds* (trips deadlines)."""
        return cls(
            tuple(
                Fault("chase.step", i, sleep_seconds=seconds)
                for i in range(steps)
            )
        )

    @classmethod
    def seeded(
        cls,
        seed: int,
        site: str = "pool.map",
        faults: int = 2,
        horizon: int = 8,
        exc: type[BaseException] | None = None,
    ) -> "FaultPlan":
        """*faults* crashes at ``random.Random(seed)``-chosen visit indices.

        The schedule is a pure function of the arguments — the same seed
        always fails the same visits, so CI failures reproduce locally.
        """
        if faults > horizon:
            raise ValueError(f"cannot place {faults} faults in horizon {horizon}")
        if exc is None:
            from concurrent.futures.process import BrokenProcessPool

            exc = BrokenProcessPool
        indices = sorted(random.Random(seed).sample(range(horizon), faults))
        return cls(tuple(Fault(site, i, exc=exc) for i in indices))

    def merged_with(self, other: "FaultPlan") -> "FaultPlan":
        """One plan scheduling both plans' faults (indices must not clash)."""
        return FaultPlan(self.faults + other.faults)

    # -- runtime -------------------------------------------------------------

    def trigger(self, site: str) -> None:
        """Record a visit to *site*; fire the fault scheduled for it, if any."""
        with self._lock:
            index = self._hits.get(site, 0)
            self._hits[site] = index + 1
            fault = self._by_site.get(site, {}).get(index)
            if fault is not None:
                self._fired.append(fault)
        if fault is not None:
            fault.fire()

    def hits(self, site: str) -> int:
        """How many times *site* was visited under this plan."""
        return self._hits.get(site, 0)

    @property
    def fired(self) -> tuple[Fault, ...]:
        """The faults that actually fired, in firing order."""
        return tuple(self._fired)


_active: FaultPlan | None = None


def active_fault_plan() -> FaultPlan | None:
    """The installed plan, or ``None`` (the normal, fault-free state)."""
    return _active


def install_fault_plan(plan: FaultPlan | None) -> FaultPlan | None:
    """Install *plan* globally (``None`` disables injection); returns it."""
    global _active
    _active = plan
    return plan


@contextmanager
def fault_injection(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Scope *plan* around a block, restoring the previous plan after."""
    previous = _active
    install_fault_plan(plan)
    try:
        yield plan
    finally:
        install_fault_plan(previous)


def fault_point(site: str) -> None:
    """The seam hook: a no-op unless a plan is installed.

    Instrumented code calls this at the seams listed in the module
    docstring; injected exceptions propagate exactly as the real fault
    would (a ``BrokenProcessPool`` from ``"pool.map"`` takes the same
    retry path as a genuine worker crash).
    """
    plan = _active
    if plan is not None:
        plan.trigger(site)
