"""Provenance stores: the recording log and its disabled no-op twin.

Mirrors the :mod:`repro.obs` enablement pattern: the chase threads a
:class:`ProvenanceStore` through every firing site, and when provenance
is off that store is the shared :data:`NOOP` singleton — one attribute
check (``provenance.enabled``) per firing, no allocation, no recording
(the disabled-mode overhead is benchmarked in
``benchmarks/bench_provenance.py``).

:class:`ProvenanceLog` is the recording store.  Its records
(:class:`~repro.provenance.model.Derivation` /
:class:`~repro.provenance.model.Rewrite`) are immutable; the log keeps a
*current-fact index* mapping each fact **as it stands now** (after any
egd rewrites) to its derivations, so lookups work on solution facts
while replay still sees the values exactly as recorded.  Logs survive
every executor seam:

* :meth:`map_values` — push a null renaming through a log, so its
  records name the nulls of a renamed solution;
* :meth:`absorb` — a cache hit's stored log is absorbed into the
  requesting store;
* :meth:`to_json` / :meth:`from_json` — logs travel across the process
  pool alongside the payload outcomes;
* :meth:`copy` — the service snapshots a log into a
  :class:`~repro.service.ResumptionToken` so later resumes extend it
  without mutating the token.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Iterable, Iterator, Mapping

from ..relational.instance import Fact, Instance
from ..relational.values import Value
from .model import Derivation, NamedValues, Rewrite, WhyNode, fact_in, named_values

__all__ = [
    "NOOP",
    "ProvenanceLog",
    "ProvenanceStore",
    "resolve_provenance",
]


class ProvenanceStore:
    """The no-op base store: records nothing, costs one attribute check.

    Firing sites guard recording with ``if provenance.enabled:`` exactly
    like the tracer's ``NoopTracer`` idiom, so the disabled mode touches
    no allocation-heavy path.
    """

    __slots__ = ()

    enabled = False

    def record_firing(
        self,
        rule_id: str,
        rule_text: str,
        phase: str,
        premise: Iterable[Fact],
        binding: Mapping[Any, Value],
        existentials: Mapping[Any, Value],
        facts: Iterable[Fact],
    ) -> None:
        """Record one tgd firing deriving *facts* (no-op here)."""

    def record_rewrite(
        self,
        rule_id: str,
        rule_text: str,
        old: Value,
        new: Value,
        premise: Iterable[Fact],
        binding: Mapping[Any, Value],
    ) -> None:
        """Record one egd value unification (no-op here)."""

    def __repr__(self) -> str:
        return "NoopProvenance()"


NOOP = ProvenanceStore()
"""The shared disabled store (compare with ``repro.obs.trace._NOOP_SPAN``)."""


def _substitute(fact: Fact, substitution: Mapping[Value, Value]) -> Fact:
    if not substitution:
        return fact
    return Fact(fact.relation, tuple(substitution.get(v, v) for v in fact.row))


class ProvenanceLog(ProvenanceStore):
    """The recording store: every firing and rewrite of one exchange."""

    __slots__ = ("_derivations", "_rewrites", "_index", "_steps")

    enabled = True

    def __init__(self) -> None:
        self._derivations: list[Derivation] = []
        self._rewrites: list[Rewrite] = []
        # Current fact (post-rewrites) → indexes into _derivations.
        self._index: dict[Fact, list[int]] = {}
        self._steps = 0

    # -- recording ---------------------------------------------------------

    def record_firing(
        self,
        rule_id: str,
        rule_text: str,
        phase: str,
        premise: Iterable[Fact],
        binding: Mapping[Any, Value],
        existentials: Mapping[Any, Value],
        facts: Iterable[Fact],
    ) -> None:
        step = self._steps
        self._steps += 1
        premise_facts = tuple(premise)
        named_binding = named_values(binding)
        named_existentials = named_values(existentials)
        for fact in facts:
            self._index.setdefault(fact, []).append(len(self._derivations))
            self._derivations.append(
                Derivation(
                    fact=fact,
                    rule_id=rule_id,
                    rule_text=rule_text,
                    phase=phase,
                    premise=premise_facts,
                    binding=named_binding,
                    existentials=named_existentials,
                    step=step,
                )
            )

    def record_rewrite(
        self,
        rule_id: str,
        rule_text: str,
        old: Value,
        new: Value,
        premise: Iterable[Fact],
        binding: Mapping[Any, Value],
    ) -> None:
        step = self._steps
        self._steps += 1
        self._rewrites.append(
            Rewrite(
                rule_id=rule_id,
                rule_text=rule_text,
                old=old,
                new=new,
                premise=tuple(premise),
                binding=named_values(binding),
                step=step,
            )
        )
        self._remap_index(old, new)

    def _remap_index(self, old: Value, new: Value) -> None:
        """Re-key the current-fact index through one value rewrite.

        Facts the rewrite merges (``R(⊥1, a)`` and ``R(⊥2, a)`` after
        ``⊥1 ↦ ⊥2``) concatenate their derivation lists — both firings
        now justify the one surviving fact.
        """
        remapped: dict[Fact, list[int]] = {}
        for fact, indexes in self._index.items():
            if old in fact.row:
                fact = Fact(
                    fact.relation, tuple(new if v == old else v for v in fact.row)
                )
            remapped.setdefault(fact, []).extend(indexes)
        self._index = remapped

    # -- introspection -----------------------------------------------------

    @property
    def derivations(self) -> tuple[Derivation, ...]:
        return tuple(self._derivations)

    @property
    def rewrites(self) -> tuple[Rewrite, ...]:
        return tuple(self._rewrites)

    def __len__(self) -> int:
        return len(self._derivations)

    def facts(self) -> Iterator[Fact]:
        """The current (post-rewrite) facts with recorded derivations."""
        return iter(self._index)

    def derivations_for(self, fact: Fact) -> tuple[Derivation, ...]:
        """All recorded derivations justifying *fact* (as it stands now)."""
        return tuple(
            self._derivations[i] for i in self._index.get(fact, ())
        )

    def substitution_after(self, step: int) -> dict[Value, Value]:
        """The composed value substitution of every rewrite past *step*.

        Applying it to a fact recorded at *step* yields the fact as it
        stands in the final solution — the bridge between immutable
        records and the rewritten instance.
        """
        substitution: dict[Value, Value] = {}
        for rewrite in self._rewrites:
            if rewrite.step <= step:
                continue
            for key, value in substitution.items():
                if value == rewrite.old:
                    substitution[key] = rewrite.new
            if rewrite.old not in substitution:
                substitution[rewrite.old] = rewrite.new
        return substitution

    def current_fact(self, derivation: Derivation) -> Fact:
        """*derivation*'s fact pushed through every later rewrite."""
        return _substitute(
            derivation.fact, self.substitution_after(derivation.step)
        )

    # -- why-trees ---------------------------------------------------------

    def explain(
        self,
        fact: Fact,
        *,
        source: Instance | None = None,
        max_depth: int = 16,
    ) -> WhyNode:
        """The why-tree of *fact*: its primary derivation, recursively.

        Leaves are ``"source"`` facts (verified against *source* when
        given; assumed for underived leaves otherwise, since st-tgd
        premises read only the source) or ``"unexplained"``.  Cycles
        through egd-merged facts and *max_depth* both cut recursion off
        with an ``"unexplained"`` leaf.
        """
        return self._explain(fact, source, max_depth, frozenset())

    def _explain(
        self,
        fact: Fact,
        source: Instance | None,
        depth: int,
        path: frozenset[Fact],
    ) -> WhyNode:
        if source is not None and fact_in(source, fact):
            return WhyNode(fact, "source")
        indexes = self._index.get(fact, ())
        if not indexes:
            kind = "unexplained" if source is not None else "source"
            return WhyNode(fact, kind)
        if depth <= 0 or fact in path:
            return WhyNode(fact, "unexplained")
        primary = self._derivations[indexes[0]]
        substitution = self.substitution_after(primary.step)
        children = []
        for premise_fact in primary.premise:
            # Target-phase premises live in the (rewritable) target; the
            # current index is keyed by their rewritten form.  St-tgd
            # premises are source facts, which egds never touch.
            child = (
                _substitute(premise_fact, substitution)
                if primary.phase == "target_dependencies"
                else premise_fact
            )
            children.append(
                self._explain(child, source, depth - 1, path | {fact})
            )
        return WhyNode(
            fact=fact,
            kind="derived",
            rule_id=primary.rule_id,
            rule_text=primary.rule_text,
            phase=primary.phase,
            binding=primary.binding,
            existentials=primary.existentials,
            rewrites=self._applied_rewrites(primary),
            children=tuple(children),
            alternatives=len(indexes) - 1,
        )

    def _applied_rewrites(self, derivation: Derivation) -> tuple[Rewrite, ...]:
        """The rewrite chain that carried the recorded fact to its current form."""
        current = derivation.fact
        applied: list[Rewrite] = []
        for rewrite in self._rewrites:
            if rewrite.step <= derivation.step:
                continue
            if rewrite.old in current.row:
                applied.append(rewrite)
                current = _substitute(current, {rewrite.old: rewrite.new})
        return tuple(applied)

    # -- executor seams ----------------------------------------------------

    def map_values(self, substitution: Mapping[Value, Value]) -> "ProvenanceLog":
        """A new log with *substitution* applied to every recorded value.

        A solution whose nulls are renamed needs its log pushed through
        the **same** renaming, or the records would name nulls the
        renamed solution never saw.
        """
        if not substitution:
            return self.copy()

        def value(v: Value) -> Value:
            return substitution.get(v, v)

        def fact(f: Fact) -> Fact:
            return _substitute(f, substitution)

        def named(pairs: NamedValues) -> NamedValues:
            return tuple((name, value(v)) for name, v in pairs)

        out = ProvenanceLog()
        out._derivations = [
            dataclasses.replace(
                d,
                fact=fact(d.fact),
                premise=tuple(fact(p) for p in d.premise),
                binding=named(d.binding),
                existentials=named(d.existentials),
            )
            for d in self._derivations
        ]
        out._rewrites = [
            dataclasses.replace(
                r,
                old=value(r.old),
                new=value(r.new),
                premise=tuple(fact(p) for p in r.premise),
                binding=named(r.binding),
            )
            for r in self._rewrites
        ]
        for f, indexes in self._index.items():
            out._index.setdefault(fact(f), []).extend(indexes)
        out._steps = self._steps
        return out

    def absorb(self, other: "ProvenanceLog") -> "ProvenanceLog":
        """Append *other*'s records to this log (steps renumbered after ours).

        Sound when the two histories are independent (a cached log
        absorbed into an empty requesting store): *other*'s rewrites must not apply to facts
        recorded here and vice versa.  Returns ``self`` for chaining.
        """
        offset = self._steps
        base = len(self._derivations)
        self._derivations.extend(
            dataclasses.replace(d, step=d.step + offset)
            for d in other._derivations
        )
        self._rewrites.extend(
            dataclasses.replace(r, step=r.step + offset)
            for r in other._rewrites
        )
        for fact, indexes in other._index.items():
            self._index.setdefault(fact, []).extend(base + i for i in indexes)
        self._steps += other._steps
        return self

    def copy(self) -> "ProvenanceLog":
        """An independent log sharing the (immutable) records."""
        out = ProvenanceLog()
        out._derivations = list(self._derivations)
        out._rewrites = list(self._rewrites)
        out._index = {fact: list(indexes) for fact, indexes in self._index.items()}
        out._steps = self._steps
        return out

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        """A JSON-able view (travels across the worker pool)."""
        return {
            "derivations": [d.to_json() for d in self._derivations],
            "rewrites": [r.to_json() for r in self._rewrites],
            "steps": self._steps,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "ProvenanceLog":
        out = cls()
        out._derivations = [Derivation.from_json(d) for d in data["derivations"]]
        out._rewrites = [Rewrite.from_json(r) for r in data["rewrites"]]
        out._steps = int(data.get("steps", 0))
        out._rebuild_index()
        return out

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    @classmethod
    def from_json_text(cls, text: str) -> "ProvenanceLog":
        return cls.from_json(json.loads(text))

    def _rebuild_index(self) -> None:
        """Re-derive the current-fact index: index as recorded, then replay
        rewrites in step order (a fact derived after a rewrite can never
        contain the rewritten-away value, so late remaps are no-ops)."""
        self._index = {}
        for position, derivation in enumerate(self._derivations):
            self._index.setdefault(derivation.fact, []).append(position)
        for rewrite in sorted(self._rewrites, key=lambda r: r.step):
            self._remap_index(rewrite.old, rewrite.new)

    def record_dicts(self) -> Iterator[dict[str, Any]]:
        """Typed per-record dicts for the JSON-lines exporter
        (:func:`repro.obs.export.write_provenance_json_lines`)."""
        for derivation in self._derivations:
            yield {"type": "derivation", **derivation.to_json()}
        for rewrite in self._rewrites:
            yield {"type": "rewrite", **rewrite.to_json()}

    def __repr__(self) -> str:
        return (
            f"ProvenanceLog({len(self._derivations)} derivations, "
            f"{len(self._rewrites)} rewrites)"
        )


def resolve_provenance(setting: "bool | ProvenanceStore | None") -> ProvenanceStore:
    """Fold the ``ExchangeOptions.provenance`` setting into a store.

    ``True`` builds a fresh per-request :class:`ProvenanceLog`;
    ``False``/``None`` the shared :data:`NOOP`; an existing store passes
    through (so callers can supply a long-lived log of their own).
    """
    if isinstance(setting, ProvenanceStore):
        return setting
    return ProvenanceLog() if setting else NOOP
