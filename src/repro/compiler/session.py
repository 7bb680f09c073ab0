"""Synchronization sessions: stateful bidirectional exchange with conflicts.

The paper's introduction motivates bidirectionality with "networked and
cloud-enabled applications [where] one wants such transformations to be
bidirectional to enable updates to propagate between instances."  Real
deployments add one more ingredient the lens laws alone don't give:
**both** replicas may have been edited since the last synchronization.

:class:`SyncSession` wraps a compiled :class:`ExchangeEngine` with the
baseline bookkeeping that makes that case manageable:

* one-sided edits flow through ``push_source`` / ``push_target`` (plain
  lens get/put against the stored baseline);
* the target replica is ``lens.get``'s view, whose Skolem values (unlike
  the chase's renumbered nulls) keep their identity across source edits;
* :meth:`synchronize` handles two-sided edits: it diffs both replicas
  against their baselines, propagates the source edits forward, detects
  **conflicts** — target facts that the two sides drive in different
  directions — and resolves them per a :class:`ConflictPolicy`
  (``SOURCE_WINS`` / ``TARGET_WINS`` / ``FAIL``).

The conflict notion is fact-level: a conflict exists when the source
side's propagated delta and the target side's own delta disagree about a
fact (one inserts what the other deletes).  Against a shared baseline
such collisions cannot happen (set semantics); they arise when a **stale
replica** replays edits made against an older baseline, passed via
``synchronize(..., target_baseline=...)``.  Compatible edits merge.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..lenses.delta import InstanceDelta
from ..relational.instance import Fact, Instance
from .engine import ExchangeEngine


class ConflictPolicy(enum.Enum):
    """How :meth:`SyncSession.synchronize` resolves two-sided conflicts."""

    SOURCE_WINS = "source_wins"
    TARGET_WINS = "target_wins"
    FAIL = "fail"


class SyncConflict(RuntimeError):
    """Raised under ``ConflictPolicy.FAIL`` when edits collide."""

    def __init__(self, conflicts: list["Conflict"]) -> None:
        self.conflicts = conflicts
        summary = "; ".join(repr(c) for c in conflicts[:3])
        super().__init__(
            f"{len(conflicts)} conflicting fact(s) between replicas: {summary}"
        )


@dataclass(frozen=True)
class Conflict:
    """One contested target fact and what each side wants."""

    fact: Fact
    source_side: str  # "insert" | "delete"
    target_side: str  # "insert" | "delete"

    def __repr__(self) -> str:
        return (
            f"{self.fact!r}: source wants {self.source_side}, "
            f"target wants {self.target_side}"
        )


@dataclass
class SyncOutcome:
    """Result of a synchronize call: the merged replicas plus conflicts."""

    source: Instance
    target: Instance
    conflicts: list[Conflict] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.conflicts


class SyncSession:
    """Stateful bidirectional synchronization over a compiled mapping."""

    def __init__(self, engine: ExchangeEngine, source: Instance) -> None:
        self._lens = engine.lens
        self._source = source
        self._target = self._lens.get(source)

    # -- state -------------------------------------------------------------

    @property
    def source(self) -> Instance:
        """The source replica as of the last synchronization."""
        return self._source

    @property
    def target(self) -> Instance:
        """The target replica as of the last synchronization."""
        return self._target

    # -- one-sided updates ----------------------------------------------------

    def push_source(self, new_source: Instance) -> Instance:
        """The source was edited: refresh the target (lens get)."""
        self._source = new_source
        self._target = self._lens.get(new_source)
        return self._target

    def push_target(self, new_target: Instance) -> Instance:
        """The target was edited: propagate back (lens put), then refresh."""
        self._source = self._lens.put(new_target, self._source)
        self._target = self._lens.get(self._source)
        return self._source

    # -- two-sided synchronization ----------------------------------------------

    def synchronize(
        self,
        new_source: Instance,
        new_target: Instance,
        policy: ConflictPolicy = ConflictPolicy.FAIL,
        target_baseline: Instance | None = None,
    ) -> SyncOutcome:
        """Merge concurrent edits on both replicas.

        The source edits are propagated forward into a target delta; the
        target's own delta is diffed against *target_baseline* — by
        default the session's current baseline, but a **stale replica**
        passes the (older) baseline its edits were made against.  Facts
        the two deltas drive in opposite directions are conflicts,
        resolved per *policy*; the surviving target edits are pushed back
        through the lens and both baselines advance.

        With the default (shared) baseline, honest diffs can never
        collide fact-for-fact — an insert needs the baseline to lack the
        fact, a delete needs it present — so conflicts only arise in the
        stale-replica case, which is exactly when replicas need them.
        """
        source_delta_fwd = InstanceDelta.diff(
            self._target, self._lens.get(new_source)
        )
        target_delta = InstanceDelta.diff(
            self._target if target_baseline is None else target_baseline,
            new_target,
        )

        conflicts = self._find_conflicts(source_delta_fwd, target_delta)
        if conflicts and policy is ConflictPolicy.FAIL:
            raise SyncConflict(conflicts)

        if policy is ConflictPolicy.SOURCE_WINS:
            target_delta = self._drop(target_delta, conflicts, side="target")
        elif policy is ConflictPolicy.TARGET_WINS:
            source_delta_fwd = self._drop(source_delta_fwd, conflicts, side="source")

        # Push the target side's surviving edits back into the edited
        # source; the merged target is re-derived from the merged source
        # so the lens invariant (target = get(source)) always holds.
        merged_source = self._lens.put(
            target_delta.apply(self._lens.get(new_source)),
            new_source,
        )
        self._source = merged_source
        self._target = self._lens.get(merged_source)
        return SyncOutcome(self._source, self._target, conflicts)

    # -- internals ---------------------------------------------------------------

    @staticmethod
    def _find_conflicts(
        source_delta: InstanceDelta, target_delta: InstanceDelta
    ) -> list[Conflict]:
        conflicts = []
        for fact in sorted(source_delta.inserts & target_delta.deletes, key=repr):
            conflicts.append(Conflict(fact, "insert", "delete"))
        for fact in sorted(source_delta.deletes & target_delta.inserts, key=repr):
            conflicts.append(Conflict(fact, "delete", "insert"))
        return conflicts

    @staticmethod
    def _drop(
        delta: InstanceDelta, conflicts: list[Conflict], side: str
    ) -> InstanceDelta:
        """Remove the losing side's contested edits from its delta."""
        contested = {c.fact for c in conflicts}
        return InstanceDelta(
            [f for f in delta.inserts if f not in contested],
            [f for f in delta.deletes if f not in contested],
        )
