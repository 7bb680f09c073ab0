"""Incremental forward exchange: propagate source *deltas* to the target.

Re-running the whole exchange after every source edit is the state-based
worst case the delta-lens literature (paper, Section 3) exists to avoid.
This module maintains the compiled lens's view (``lens.get``, whose
Skolem values keep their identity across source edits, unlike the
chase's renumbered nulls) incrementally, the classic semi-naive way:

* an **inserted** source fact can only create target facts through
  premise bindings that *use* it: for each premise atom it matches, seed
  the atom's variables with the fact's values and evaluate the rest of
  the premise against the updated source;
* a **deleted** source fact can only retract target facts whose bindings
  used it — computed against the *old* source — and each candidate is
  retracted only if no alternative derivation survives in the new source
  (support re-check, seeded by the candidate's frontier).

Work is proportional to the delta's neighbourhood, not the instance; the
A11 ablation benchmarks the gap.  Not supported when the mapping carries
target dependencies (egds can merge values non-locally) — that case
raises and callers fall back to full re-exchange.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..lenses.delta import InstanceDelta
from ..logic.evaluation import evaluate
from ..logic.formulas import Atom
from ..logic.terms import Const, Var
from ..relational.instance import Fact, Instance
from ..relational.values import Value
from .engine import ExchangeLens
from .tgd_compiler import CompiledTgd


class IncrementalUnsupported(NotImplementedError):
    """The mapping is outside the incrementally-maintainable fragment."""


def _unify_atom_with_fact(atom: Atom, fact: Fact) -> dict[Var, Value] | None:
    """Bind the atom's variables to the fact's row, or ``None`` on clash."""
    if atom.relation != fact.relation or atom.arity != len(fact.row):
        return None
    binding: dict[Var, Value] = {}
    for term, value in zip(atom.terms, fact.row):
        if isinstance(term, Const):
            if term.value != value:
                return None
        elif isinstance(term, Var):
            if term in binding and binding[term] != value:
                return None
            binding[term] = value
        else:  # pragma: no cover - compiled tgds are first-order
            return None
    return binding


def _derived_facts(
    unit: CompiledTgd, source: Instance, seed: dict[Var, Value]
) -> set[Fact]:
    """Target facts the unit derives from bindings extending *seed*."""
    out: set[Fact] = set()
    for binding in evaluate(unit.tgd.premise, source, seed=seed):
        frontier_values = tuple(binding[v] for v in unit.frontier)
        row: list[Value] = []
        for term in unit.conclusion_atom.terms:
            if isinstance(term, Var):
                if term in binding and term in set(unit.frontier):
                    row.append(binding[term])
                else:
                    row.append(unit.skolem(term, frontier_values))
            else:
                assert isinstance(term, Const)
                row.append(term.value)
        out.add(Fact(unit.target_relation, tuple(row)))
    return out


def _still_derivable(
    units: Iterable[CompiledTgd], fact: Fact, source: Instance
) -> bool:
    """Whether *some* unit still derives *fact* from *source*."""
    for unit in units:
        if not unit.produces(fact):
            continue
        seed = unit.frontier_binding_of(fact)
        for binding in evaluate(unit.tgd.premise, source, seed=seed):
            frontier_values = tuple(binding[v] for v in unit.frontier)
            row = []
            for term in unit.conclusion_atom.terms:
                if isinstance(term, Var):
                    if term in set(unit.frontier):
                        row.append(binding[term])
                    else:
                        row.append(unit.skolem(term, frontier_values))
                else:
                    assert isinstance(term, Const)
                    row.append(term.value)
            if Fact(unit.target_relation, tuple(row)) == fact:
                return True
    return False


@dataclass
class IncrementalExchange:
    """Maintains a compiled exchange's target under source deltas."""

    lens: ExchangeLens

    def __post_init__(self) -> None:
        if getattr(self.lens, "_target_dependencies", ()):
            raise IncrementalUnsupported(
                "incremental maintenance under target dependencies is not "
                "supported; re-exchange instead"
            )

    def propagate_forward(
        self,
        source_delta: InstanceDelta,
        old_source: Instance,
        old_target: Instance,
    ) -> InstanceDelta:
        """The target delta matching *source_delta*.

        ``old_target`` must equal ``lens.get(old_source)`` (the caller's
        materialized view); the returned delta applied to it equals
        ``lens.get(source_delta.apply(old_source))``.
        """
        new_source = source_delta.apply(old_source)
        old_target_facts = set(old_target.facts())

        inserted: set[Fact] = set()
        for fact in source_delta.inserts:
            for unit in self.lens.units:
                for atom in unit.tgd.premise.atoms():
                    seed = _unify_atom_with_fact(atom, fact)
                    if seed is None:
                        continue
                    inserted |= _derived_facts(unit, new_source, seed)
        inserted -= old_target_facts

        candidates: set[Fact] = set()
        for fact in source_delta.deletes:
            for unit in self.lens.units:
                for atom in unit.tgd.premise.atoms():
                    seed = _unify_atom_with_fact(atom, fact)
                    if seed is None:
                        continue
                    candidates |= _derived_facts(unit, old_source, seed)
        deleted = {
            fact
            for fact in candidates & old_target_facts
            if not _still_derivable(self.lens.units, fact, new_source)
        }
        # An insert may rederive a fact queued for deletion.
        deleted -= inserted
        return InstanceDelta(inserted, deleted)

    def refresh(
        self,
        source_delta: InstanceDelta,
        old_source: Instance,
        old_target: Instance,
    ) -> Instance:
        """Apply the propagated delta, returning the new target instance."""
        return self.propagate_forward(
            source_delta, old_source, old_target
        ).apply(old_target)
