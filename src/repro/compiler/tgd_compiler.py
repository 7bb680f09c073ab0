"""Compiling one st-tgd into a bidirectional execution unit.

This is the heart of the paper's Section 4 proposal: "The collection of
st-tgds is translated statically to a relational lens template."  Each
normalized tgd (single-atom conclusion) becomes a :class:`CompiledTgd`:

* the **forward** direction is a relational-algebra plan — scans of the
  premise atoms renamed to the tgd's variable names, natural-joined, with
  selections for constants, repeated variables and side conditions — whose
  rows are premise bindings; each binding emits one target fact, with
  existential positions filled by a *canonical Skolem value* keyed on the
  frontier (so the forward direction is a pure function and agrees with
  the chase up to homomorphic equivalence);
* the **backward** direction justifies inserted target facts by
  manufacturing premise facts (source columns the mapping does not
  determine are filled through :class:`~repro.rlens.policies.ColumnPolicy`
  hints — the intro's "Is the Age field preserved?" questions) and
  propagates deleted facts by retracting the supporting facts of a
  designated premise atom (the join-lens left/right question).

Existential positions are where st-tgds exceed classical views: a view
cannot invent values.  The compiled unit therefore behaves as a
*quotient* lens — its laws hold modulo homomorphic equivalence at
null/Skolem positions — which is precisely the paper's argument for
quotient-style lens properties in data exchange.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..logic.evaluation import evaluate
from ..logic.formulas import Atom, Conjunction, ConstantPredicate, Equality, Inequality
from ..logic.terms import Const, FuncTerm, Var
from ..relational.algebra import (
    AlgebraExpression,
    Comparison,
    ConstantColumn,
    Predicate,
    Project,
    Scan,
    Select,
    TruePredicate,
)
from ..relational.instance import Fact, Instance
from ..relational.schema import Schema
from ..relational.values import NullFactory, SkolemValue, Value, max_null_label
from ..rlens.base import ViewViolationError
from ..rlens.policies import PolicyContext
from .hints import DeletionBehavior, Hints
from ..mapping.sttgd import StTgd


class CompilerLimitation(NotImplementedError):
    """The tgd is outside the compilable fragment (see DESIGN.md)."""


@dataclass(frozen=True)
class AtomLeaf:
    """One premise atom translated to an algebra leaf.

    ``expression`` scans the atom's relation with columns renamed to the
    tgd's variable names (duplicates and constants filtered by selections
    and projected away); ``variables`` are the distinct variables the
    leaf exposes, in column order.
    """

    atom: Atom
    expression: AlgebraExpression
    variables: tuple[Var, ...]
    estimated_rows: float


def compile_atom_leaf(
    atom: Atom, schema: Schema, estimated_cardinality: float
) -> AtomLeaf:
    """Translate a premise atom into a scan/select/project leaf."""
    relation = schema[atom.relation]
    columns: list[str] = []
    conditions: list[Predicate] = []
    seen_vars: dict[Var, str] = {}
    estimate = max(estimated_cardinality, 0.0)
    for position, term in enumerate(atom.terms):
        if isinstance(term, Var):
            if term in seen_vars:
                dup = f"{term.name}__dup{position}"
                columns.append(dup)
                conditions.append(
                    Comparison(seen_vars[term], "=", dup, right_is_column=True)
                )
                estimate *= 0.1
            else:
                seen_vars[term] = term.name
                columns.append(term.name)
        elif isinstance(term, Const):
            col = f"__const{position}"
            columns.append(col)
            conditions.append(Comparison(col, "=", term.value))
            estimate *= 0.1
        else:
            raise CompilerLimitation(
                f"function term {term!r} in premise atom {atom!r} is not compilable"
            )
    expression: AlgebraExpression = Scan(relation, tuple(columns))
    for condition in conditions:
        expression = Select(expression, condition)
    variables = tuple(seen_vars)
    expression = Project(expression, tuple(v.name for v in variables))
    return AtomLeaf(atom, expression, variables, max(estimate, 0.0))


def side_condition_predicate(conjunction: Conjunction) -> Predicate:
    """Translate the premise's non-atom literals to an algebra predicate.

    Equalities/inequalities between variables or with constants, and the
    constant predicate ``C(x)``, are supported; anything with a function
    term is outside the compilable fragment.
    """
    predicate: Predicate = TruePredicate()
    for literal in conjunction.literals:
        if isinstance(literal, Atom):
            continue
        if isinstance(literal, (Equality, Inequality)):
            op = "=" if isinstance(literal, Equality) else "!="
            left, right = literal.left, literal.right
            if isinstance(left, FuncTerm) or isinstance(right, FuncTerm):
                raise CompilerLimitation(
                    f"function term in side condition {literal!r} is not compilable"
                )
            if isinstance(left, Const) and isinstance(right, Const):
                raise CompilerLimitation(
                    f"constant-only side condition {literal!r}; simplify the tgd"
                )
            if isinstance(left, Const):
                left, right = right, left
            assert isinstance(left, Var)
            if isinstance(right, Var):
                clause: Predicate = Comparison(
                    left.name, op, right.name, right_is_column=True
                )
            else:
                clause = Comparison(left.name, op, right.value.value)
            predicate = predicate & clause if not isinstance(predicate, TruePredicate) else clause
        elif isinstance(literal, ConstantPredicate):
            term = literal.term
            if not isinstance(term, Var):
                raise CompilerLimitation(
                    f"C() over non-variable term {term!r} is not compilable"
                )
            clause = ConstantColumn(term.name)
            predicate = predicate & clause if not isinstance(predicate, TruePredicate) else clause
    return predicate


@dataclass
class CompiledTgd:
    """One normalized tgd with its forward plan and backward policies."""

    tgd_id: str
    tgd: StTgd
    premise_plan: AlgebraExpression
    plan_variables: tuple[Var, ...]
    conclusion_atom: Atom
    source_schema: Schema
    target_relation: str
    hints: Hints = field(default_factory=Hints)

    def __post_init__(self) -> None:
        atoms = self.tgd.conclusion.atoms()
        if len(atoms) != 1:
            raise CompilerLimitation(
                f"tgd {self.tgd_id}: multi-atom conclusions sharing existentials "
                f"are outside the compilable fragment; normalize first"
            )
        self._frontier = tuple(self.tgd.frontier)
        self._existentials = tuple(self.tgd.existential_variables)
        self._plan_positions = {
            v: i for i, v in enumerate(self.plan_variables)
        }

    # -- forward -----------------------------------------------------------

    @property
    def frontier(self) -> tuple[Var, ...]:
        return self._frontier

    @property
    def existentials(self) -> tuple[Var, ...]:
        return self._existentials

    def skolem(self, variable: Var, frontier_values: tuple[Value, ...]) -> SkolemValue:
        """The canonical value for an existential position.

        Keyed on the tgd id, the variable and the frontier values, so the
        forward direction is deterministic and two firings with the same
        frontier agree (the core-like minimal choice).
        """
        return SkolemValue(f"sk_{self.tgd_id}_{variable.name}", frontier_values)

    def forward_facts(self, source: Instance) -> set[Fact]:
        """The target facts this tgd derives from *source*."""
        rows = self.premise_plan.evaluate(source)
        frontier_positions = [self._plan_positions[v] for v in self._frontier]
        facts: set[Fact] = set()
        for row in rows:
            frontier_values = tuple(row[p] for p in frontier_positions)
            binding = dict(zip(self._frontier, frontier_values))
            out: list[Value] = []
            for term in self.conclusion_atom.terms:
                if isinstance(term, Var):
                    if term in binding:
                        out.append(binding[term])
                    else:
                        out.append(self.skolem(term, frontier_values))
                elif isinstance(term, Const):
                    out.append(term.value)
                else:  # pragma: no cover - guarded at compile time
                    raise CompilerLimitation(f"function term {term!r} in conclusion")
            facts.add(Fact(self.target_relation, tuple(out)))
        return facts

    # -- backward: pattern matching ------------------------------------------

    def produces(self, fact: Fact) -> bool:
        """Whether this unit's conclusion pattern can match *fact*."""
        if fact.relation != self.target_relation:
            return False
        if len(fact.row) != self.conclusion_atom.arity:
            return False
        binding: dict[Var, Value] = {}
        for term, value in zip(self.conclusion_atom.terms, fact.row):
            if isinstance(term, Const):
                if term.value != value:
                    return False
            elif isinstance(term, Var):
                if term in binding and binding[term] != value:
                    # Repeated *frontier* variables must agree; repeated
                    # existentials regenerate canonically, so they must
                    # agree as well for the fact to be producible.
                    return False
                binding[term] = value
        return True

    def frontier_binding_of(self, fact: Fact) -> dict[Var, Value]:
        """The frontier binding a producible fact pins down."""
        binding: dict[Var, Value] = {}
        for term, value in zip(self.conclusion_atom.terms, fact.row):
            if isinstance(term, Var) and term in set(self._frontier):
                binding[term] = value
        return binding

    # -- backward: insertion --------------------------------------------------

    def justify(
        self,
        fact: Fact,
        current_source: Instance,
        policy_source: Instance | None = None,
    ) -> list[Fact]:
        """Premise facts that make the tgd derive *fact*.

        Frontier variables take the fact's values; every other premise
        variable is filled once via its column-policy hint (keyed by the
        first premise position it occupies).  Values at the fact's
        existential positions are ignored — the forward direction
        regenerates them canonically.

        *policy_source* is the instance policies may consult (FD lookups
        etc.); it defaults to *current_source* but the engine passes the
        **pre-edit** source so FD policies can recover values from rows a
        modification just retracted — the paper's "least lossy" option
        doing alignment work.
        """
        if not self.produces(fact):
            raise ViewViolationError(
                f"tgd {self.tgd_id} cannot justify fact {fact!r}"
            )
        binding: dict[Var, Value] = self.frontier_binding_of(fact)
        factory = NullFactory()
        factory.reserve_through(max_null_label(current_source.values()))
        context = PolicyContext(
            old_source=policy_source if policy_source is not None else current_source,
            environment=self.hints.environment,
            null_factory=factory,
        )

        def known_values() -> dict[str, Value]:
            """What a policy may consult: bound values by *source column*
            name (so FD policies with column-named determinants work) and
            by tgd variable name (first binding wins on collisions)."""
            named: dict[str, Value] = {}
            for atom in self.tgd.premise.atoms():
                relation = self.source_schema[atom.relation]
                for position, term in enumerate(atom.terms):
                    if isinstance(term, Var) and term in binding:
                        named.setdefault(
                            relation.attributes[position].name, binding[term]
                        )
            for variable, value in binding.items():
                named.setdefault(variable.name, value)
            return named

        # Fill non-exported premise variables via policies.
        for atom in self.tgd.premise.atoms():
            relation = self.source_schema[atom.relation]
            for position, term in enumerate(atom.terms):
                if isinstance(term, Var) and term not in binding:
                    attribute = relation.attributes[position]
                    policy = self.hints.column_policy(atom.relation, attribute.name)
                    binding[term] = policy.fill(
                        known_values(), attribute, atom.relation, context
                    )
        facts = []
        for atom in self.tgd.premise.atoms():
            row: list[Value] = []
            for term in atom.terms:
                if isinstance(term, Const):
                    row.append(term.value)
                else:
                    row.append(binding[term])  # type: ignore[index]
            facts.append(Fact(atom.relation, tuple(row)))
        return facts

    # -- backward: deletion ----------------------------------------------------

    def retract(self, fact: Fact, current_source: Instance) -> list[Fact]:
        """Source facts to delete so the tgd stops deriving *fact*.

        Evaluates the premise seeded with the fact's frontier binding; for
        every witnessing binding, the grounded fact of the designated
        deletion atom is retracted.  With ``DeletionBehavior.FORBID`` the
        unit raises instead.
        """
        behavior = self.hints.deletion_behavior_for(self.tgd_id)
        if behavior == DeletionBehavior.FORBID:
            raise ViewViolationError(
                f"tgd {self.tgd_id} forbids deletions (fact {fact!r})"
            )
        atom_index = self.hints.deletion_atom_for(self.tgd_id)
        atoms = self.tgd.premise.atoms()
        if not 0 <= atom_index < len(atoms):
            raise ValueError(
                f"deletion atom index {atom_index} out of range for {self.tgd_id}"
            )
        target_atom = atoms[atom_index]
        seed = self.frontier_binding_of(fact)
        retracted = []
        for binding in evaluate(self.tgd.premise, current_source, seed=seed):
            row = tuple(
                term.value if isinstance(term, Const) else binding[term]
                for term in target_atom.terms
            )
            retracted.append(Fact(target_atom.relation, row))
        return retracted

    def __repr__(self) -> str:
        return f"CompiledTgd({self.tgd_id}: {self.tgd!r})"
