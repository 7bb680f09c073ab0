"""Certain answers of conjunctive queries under a schema mapping.

``certain(Q, I, M)`` is the intersection of ``Q(J)`` over **all** solutions
``J`` for ``I`` under ``M``.  The classical theorem of Fagin–Kolaitis–
Miller–Popa makes this computable: evaluate ``Q`` naively over the
canonical universal solution and keep only the all-constant answer
tuples.  This is the semantics the paper's "demonstrate that the
transformation has been done as faithfully as possible" bullet refers to,
and the yardstick the compiler's completeness harness compares lens
output against.

With ``explain=True``, :func:`certain_answers` additionally returns a
*witness* per answer: the query binding and the solution facts that
justify it, each fact carrying its why-tree when the solution has
provenance recorded — the full story from a certain answer back to the
source facts it rests on (see docs/OBSERVABILITY.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..logic.evaluation import answer_witnesses as _answer_witnesses
from ..logic.evaluation import answers
from ..logic.formulas import Conjunction
from ..logic.terms import Var
from ..provenance import (
    NamedValues,
    Solution,
    WhyNode,
    format_fact,
    named_values,
)
from ..provenance.store import ProvenanceLog, ProvenanceStore
from ..relational.instance import Fact, Instance
from ..relational.values import Value, is_constant
from .chase import chase, universal_solution
from .sttgd import SchemaMapping


def naive_answers(
    query: Conjunction, head: Sequence[Var], instance: Instance
) -> set[tuple[Value, ...]]:
    """Naive-table evaluation: treat nulls as values, then drop null tuples."""
    return {
        row
        for row in answers(query, head, instance)
        if all(is_constant(v) for v in row)
    }


@dataclass(frozen=True)
class AnswerWitness:
    """Why one certain answer holds: its binding, facts and lineage.

    ``facts`` are the query atoms grounded under ``binding`` — solution
    facts whose presence makes the answer true.  ``why`` carries one
    why-tree per fact when the solution was produced with provenance
    enabled (empty otherwise), tracing each fact back to source facts.
    """

    answer: tuple[Value, ...]
    binding: NamedValues
    facts: tuple[Fact, ...]
    why: tuple[WhyNode, ...] = ()

    def render(self) -> str:
        """An indented text account of the witness."""
        answer = ", ".join(repr(v) for v in self.answer)
        lines = [f"({answer}) because:"]
        if self.why:
            for tree in self.why:
                lines.extend("  " + line for line in tree.render().splitlines())
        else:
            lines.extend(f"  {format_fact(fact)}" for fact in self.facts)
        return "\n".join(lines)


def _witnesses(
    solution: Instance,
    query: Conjunction,
    head: Sequence[Var],
    explain_fact=None,
) -> dict[tuple[Value, ...], AnswerWitness]:
    """First witness per certain (all-constant) answer, deterministically."""
    witnesses: dict[tuple[Value, ...], AnswerWitness] = {}
    for answer, binding, grounded in _answer_witnesses(query, head, solution):
        if answer in witnesses or not all(is_constant(v) for v in answer):
            continue
        facts = tuple(Fact(relation, row) for relation, row in grounded)
        why = ()
        if explain_fact is not None:
            why = tuple(explain_fact(fact) for fact in facts)
        witnesses[answer] = AnswerWitness(
            answer, named_values(binding), facts, why
        )
    return witnesses


def certain_answers(
    mapping: SchemaMapping,
    source: Instance,
    query: Conjunction,
    head: Sequence[Var],
    solution: Instance | Solution | None = None,
    *,
    explain: bool = False,
) -> set[tuple[Value, ...]] | dict[tuple[Value, ...], AnswerWitness]:
    """Certain answers of a conjunctive query over the target schema.

    Computed as the naive evaluation of *query* on the canonical universal
    solution of *source* — correct for CQs by FKMP (2005).  Pass an
    already-materialized universal *solution* (e.g. from a prior chase,
    or :meth:`ExchangeEngine.exchange <repro.compiler.ExchangeEngine.exchange>`
    /``ExchangeService.exchange`` with a cache) to answer many queries
    without re-chasing; the caller asserts it really is a universal
    solution of *source* under *mapping*.

    With ``explain=True`` the result is a dict mapping each certain
    answer to an :class:`AnswerWitness`.  Lineage (``witness.why``) is
    present when *solution* is a provenance-carrying
    :class:`~repro.provenance.Solution`, or when no solution is passed —
    then the chase runs here with provenance enabled.
    """
    if not explain:
        if solution is None:
            solution = universal_solution(mapping, source)
        elif isinstance(solution, Solution):
            solution = solution.instance
        return naive_answers(query, head, solution)

    provenance: ProvenanceStore | None = None
    if solution is None:
        result = chase(mapping, source, provenance=ProvenanceLog())
        instance, provenance = result.solution, result.provenance
        wrapped = Solution(instance, provenance, source)
    elif isinstance(solution, Solution):
        instance, wrapped = solution.instance, solution
    else:
        instance, wrapped = solution, None
    explain_fact = wrapped.explain if wrapped is not None else None
    return _witnesses(instance, query, head, explain_fact)


def certain_answers_on_solution(
    solution: Instance, query: Conjunction, head: Sequence[Var]
) -> set[tuple[Value, ...]]:
    """Certain answers given an already-materialized universal solution.

    The caller asserts *solution* is universal; this is used to compare
    two exchange engines (chase vs compiled lens plan) for semantic
    agreement without re-chasing.
    """
    return naive_answers(query, head, solution)
