"""Mapping plans and their SQL-style "show plan" rendering.

"An added benefit to this approach is that a mapping would now have a
'show plan' capability similar to that used in relational database
engines.  The designer of a mapping would be able to see not only how the
mapping is specified (in language that is natural to st-tgds) but also
how it will be evaluated" (paper, Section 4).  :meth:`MappingPlan.show`
prints exactly that: each tgd, its operator tree with chosen algorithms,
and the policy answers (or open questions) of its backward direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..relational.algebra import (
    AlgebraExpression,
    Join,
    Project,
    Rename,
    Scan,
    Select,
)
from ..rlens.policies import PolicyQuestion
from ..stats import Statistics
from .hints import Hints
from .tgd_compiler import CompiledTgd


def render_expression(expression: AlgebraExpression, indent: int = 0) -> list[str]:
    """Render an algebra tree as indented plan lines."""
    pad = "  " * indent
    if isinstance(expression, Scan):
        cols = f" as ({', '.join(expression.columns)})" if expression.columns else ""
        return [f"{pad}Scan {expression.relation.name}{cols}"]
    if isinstance(expression, Select):
        return [f"{pad}Select [{expression.predicate!r}]"] + render_expression(
            expression.child, indent + 1
        )
    if isinstance(expression, Project):
        return [f"{pad}Project [{', '.join(expression.columns)}]"] + render_expression(
            expression.child, indent + 1
        )
    if isinstance(expression, Join):
        label = "HashJoin" if expression.algorithm == "hash" else "NestedLoopJoin"
        shared = expression.shared_columns()
        on = f" on ({', '.join(shared)})" if shared else " (product)"
        return (
            [f"{pad}{label}{on}"]
            + render_expression(expression.left, indent + 1)
            + render_expression(expression.right, indent + 1)
        )
    if isinstance(expression, Rename):
        pairs = ", ".join(f"{a}→{b}" for a, b in expression.renaming)
        return [f"{pad}Rename [{pairs}]"] + render_expression(
            expression.child, indent + 1
        )
    lines = [f"{pad}{type(expression).__name__}"]
    for child in expression.children():
        lines.extend(render_expression(child, indent + 1))
    return lines


@dataclass
class MappingPlan:
    """A compiled mapping: its units, hints, and statistics snapshot.

    ``mapping`` (when the compiler supplies it) lets :meth:`explain` run
    the static analyser and append its diagnostics to the show-plan text.
    """

    units: list[CompiledTgd]
    statistics: Statistics
    hints: Hints = field(default_factory=Hints)
    mapping: object | None = None  # SchemaMapping; optional to keep layering light

    def unit(self, tgd_id: str) -> CompiledTgd:
        for candidate in self.units:
            if candidate.tgd_id == tgd_id:
                return candidate
        raise KeyError(f"no compiled tgd {tgd_id!r}")

    # -- user gestures -------------------------------------------------------

    def policy_questions(self) -> list[PolicyQuestion]:
        """Every *open* policy slot of the plan, as user gestures.

        Source columns not determined by the mapping (insertion fill),
        deletion-atom choices for multi-atom premises, and insert routing
        for multiply-produced target relations.  Slots already answered by
        the plan's hints are omitted — they are shown as resolved policies
        in :meth:`show` instead.
        """
        questions: list[PolicyQuestion] = []
        seen_columns: set[tuple[str, str]] = set()
        for unit in self.units:
            frontier = set(unit.tgd.frontier)
            for atom in unit.tgd.premise.atoms():
                relation = unit.source_schema[atom.relation]
                for position, term in enumerate(atom.terms):
                    from ..logic.terms import Var

                    if isinstance(term, Var) and term not in frontier:
                        key = (atom.relation, relation.attributes[position].name)
                        if key in seen_columns or key in self.hints.column_policies:
                            continue
                        seen_columns.add(key)
                        questions.append(
                            PolicyQuestion(
                                slot=f"column:{key[0]}.{key[1]}",
                                question=(
                                    f"what do I do with the extra column "
                                    f"{key[0]}.{key[1]} when a target row is added?"
                                ),
                                options=("null", "constant", "environment", "fd"),
                                default="null",
                            )
                        )
            atoms = unit.tgd.premise.atoms()
            if len(atoms) > 1 and unit.tgd_id not in self.hints.deletion_atom:
                questions.append(
                    PolicyQuestion(
                        slot=f"deletion_atom:{unit.tgd_id}",
                        question=(
                            f"when a {unit.target_relation} row is deleted, which "
                            f"premise input loses its row?"
                        ),
                        options=tuple(a.relation for a in atoms),
                        default=atoms[0].relation,
                    )
                )
        producers: dict[str, list[str]] = {}
        for unit in self.units:
            producers.setdefault(unit.target_relation, []).append(unit.tgd_id)
        for relation, tgd_ids in producers.items():
            if len(tgd_ids) > 1 and relation not in self.hints.insert_routing:
                questions.append(
                    PolicyQuestion(
                        slot=f"insert_routing:{relation}",
                        question=(
                            f"several tgds produce {relation}; which one should "
                            f"justify inserted rows?"
                        ),
                        options=tuple(tgd_ids),
                        default=tgd_ids[0],
                    )
                )
        return questions

    # -- rendering -------------------------------------------------------------

    def show(self) -> str:
        """The "show plan" text."""
        lines = [f"Mapping plan ({len(self.units)} compiled tgds)"]
        for unit in self.units:
            lines.append(f"── {unit.tgd_id}: {unit.tgd!r}")
            lines.append("   forward (get):")
            for line in render_expression(unit.premise_plan, indent=2):
                lines.append(f"   {line}")
            existentials = ", ".join(
                f"{v.name}↦sk_{unit.tgd_id}_{v.name}(frontier)"
                for v in unit.existentials
            )
            target = f"   emit {unit.conclusion_atom!r}"
            if existentials:
                target += f"   [existentials: {existentials}]"
            lines.append(target)
            lines.append("   backward (put):")
            atom_index = self.hints.deletion_atom_for(unit.tgd_id)
            atoms = unit.tgd.premise.atoms()
            lines.append(
                f"     delete → retract from {atoms[atom_index].relation} "
                f"(behavior: {self.hints.deletion_behavior_for(unit.tgd_id)})"
            )
            fills = []
            frontier = set(unit.tgd.frontier)
            from ..logic.terms import Var

            for atom in atoms:
                relation = unit.source_schema[atom.relation]
                for position, term in enumerate(atom.terms):
                    if isinstance(term, Var) and term not in frontier:
                        column = relation.attributes[position].name
                        policy = self.hints.column_policy(atom.relation, column)
                        fills.append(f"{atom.relation}.{column} ← {policy.describe()}")
            if fills:
                lines.append(f"     insert → fill {'; '.join(sorted(set(fills)))}")
            else:
                lines.append("     insert → all source columns determined by the view")
        open_questions = self.policy_questions()
        if open_questions:
            lines.append(f"── open policy questions ({len(open_questions)}):")
            for question in open_questions:
                lines.append(f"   • {question!r}")
        return "\n".join(lines)

    def explain(self, verbose: bool = False) -> str:
        """The show-plan text; ``verbose`` appends cardinality evidence.

        The verbose section pits the planner's estimates (from the
        gathered/assumed :class:`Statistics`) against the *observed*
        per-unit fact counts ``ExchangeEngine.exchange`` records in the
        global metrics registry — the feedback loop "highly informed by
        gathered statistics" needs.  Units never executed show ``—``.
        """
        text = self.show()
        analysis = self._analysis_section()
        if not verbose:
            return "\n".join([text] + analysis) if analysis else text
        from ..obs import get_registry

        registry = get_registry()
        lines = [text, "── cardinalities (estimated vs observed):"]
        for unit in self.units:
            atoms = unit.tgd.premise.atoms()
            estimated = 1
            parts = []
            for atom in atoms:
                cardinality = self.statistics.cardinality(atom.relation)
                parts.append(f"{atom.relation}≈{cardinality}")
                estimated *= max(cardinality, 1)
            gauge = registry.gauges.get(f"observed.unit.{unit.tgd_id}")
            observed = (
                str(gauge.value)
                if gauge is not None and gauge.value is not None
                else "— (no exchange observed yet)"
            )
            lines.append(
                f"   {unit.tgd_id}: inputs {', '.join(parts)}; "
                f"estimated ≤ {estimated} facts, observed = {observed}"
            )
        evaluator = {
            name: counter.value
            for name, counter in sorted(registry.counters.items())
            if name.startswith(("evaluate.", "chase."))
        }
        if evaluator:
            lines.append(
                "── evaluator counters (index probes, semi-naive rounds; "
                "this metrics registry):"
            )
            lines.extend(f"   {name} = {value}" for name, value in evaluator.items())
        lines.extend(self._analysis_section())
        return "\n".join(lines)

    def _analysis_section(self) -> list[str]:
        """Analyser diagnostics for the plan's mapping (empty when unknown)."""
        if self.mapping is None:
            return []
        from ..analysis import analyze_mapping

        report = analyze_mapping(self.mapping, hints=self.hints)
        lines = [f"── analyzer diagnostics: {report.summary()}"]
        lines.extend(f"   {diagnostic.render()}" for diagnostic in report)
        return lines

    def __repr__(self) -> str:
        return f"MappingPlan({len(self.units)} units)"
