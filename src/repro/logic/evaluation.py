"""Evaluation of conjunctive formulas over instances.

:func:`evaluate` computes all satisfying variable bindings of a
:class:`~repro.logic.formulas.Conjunction` in an instance.  This is the
workhorse for:

* firing tgds in the chase (premise bindings);
* checking dependency satisfaction ``(I, J) ⊨ σ``;
* naive evaluation of queries over instances with nulls (certain answers).

The evaluator treats labelled nulls as ordinary values ("naive table"
evaluation); the certain-answers layer filters null-carrying answers.

Two evaluation strategies are provided:

* :func:`evaluate` — the default engine.  It plans a join order once up
  front (greedy most-bound-first, smaller relation on ties) and matches
  each atom by probing a per-``(relation, columns)`` hash index of the
  instance on the atom's bound positions, falling back to a relation
  scan for atoms with no bound position — and for the *first*
  single-atom probe of a not-yet-built index, where one scan is
  strictly cheaper than building the index for a single lookup.  Index
  builds/hits/misses/skips and rows scanned are published to the
  :mod:`repro.obs` metrics registry (``evaluate.*`` counters).
* :func:`evaluate_scan` — the seed reference engine: dynamic
  most-bound-first atom selection with full relation scans.  Kept as
  the oracle for cross-checking the indexed engine and as the baseline
  in ``benchmarks/bench_chase_scaling.py``.

Both engines raise :class:`ArityMismatchError` when a query atom's arity
disagrees with a relation that *is* present in the instance — a
malformed query/instance pair used to be silently skipped row by row.

:func:`evaluate_delta` is the semi-naive primitive used by the chase:
it enumerates only the bindings that touch at least one tuple of a
given delta.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from ..obs import get_registry
from ..relational.instance import Instance, Row
from ..relational.values import Value, is_constant
from .formulas import (
    Atom,
    Conjunction,
    ConstantPredicate,
    Equality,
    Inequality,
)
from .terms import Const, FuncTerm, Var, evaluate_term

Binding = dict[Var, Value]

Delta = Mapping[str, Iterable[Row]]

_ENV_DEFAULT = os.environ.get("REPRO_EVAL_INDEXES", "1").lower() not in {
    "0",
    "false",
    "no",
    "off",
}
_indexes_enabled: bool = _ENV_DEFAULT


def indexes_enabled() -> bool:
    """Whether :func:`evaluate` probes hash indexes by default."""
    return _indexes_enabled


def set_indexes_enabled(enabled: bool | None) -> bool:
    """Set the default indexing mode (``None`` restores the env default).

    The default comes from ``REPRO_EVAL_INDEXES`` (on unless set to
    ``0``/``false``/``no``/``off``).  Benchmarks flip this to measure the
    scan baseline; per-call overrides use ``evaluate(..., use_indexes=)``.
    """
    global _indexes_enabled
    _indexes_enabled = _ENV_DEFAULT if enabled is None else bool(enabled)
    return _indexes_enabled


class ArityMismatchError(ValueError):
    """A query atom's arity disagrees with the instance's relation.

    Every row of a validated :class:`~repro.relational.instance.Instance`
    matches its relation's declared arity, so a mismatching atom can
    never bind — silently yielding nothing used to hide malformed
    queries and hand-built instances.
    """

    def __init__(self, atom: Atom, expected: int) -> None:
        super().__init__(
            f"atom {atom!r} has arity {atom.arity} but relation "
            f"{atom.relation!r} has arity {expected} in the instance; "
            f"the query does not fit the instance schema"
        )
        self.atom = atom
        self.expected = expected


def _check_arities(atoms: Sequence[Atom], instance: Instance) -> None:
    for atom in atoms:
        if atom.relation in instance.schema:
            expected = instance.schema[atom.relation].arity
            if expected != atom.arity:
                raise ArityMismatchError(atom, expected)


def _match_atom(atom: Atom, row: Row, binding: Binding) -> Binding | None:
    """Extend *binding* so the atom matches *row*, or ``None``.

    Function terms in atoms are matched by evaluating them under the
    binding (all their variables must already be bound).
    """
    extended = dict(binding)
    for term, value in zip(atom.terms, row):
        if isinstance(term, Var):
            bound = extended.get(term)
            if bound is None:
                extended[term] = value
            elif bound != value:
                return None
        elif isinstance(term, Const):
            if term.value != value:
                return None
        else:  # FuncTerm: evaluate and compare
            try:
                if evaluate_term(term, extended) != value:
                    return None
            except KeyError:
                return None
    return extended


def _atom_boundness(atom: Atom, binding: Binding) -> int:
    """How constrained an atom is under *binding* (higher = match first)."""
    score = 0
    for term in atom.terms:
        if isinstance(term, Const):
            score += 2
        elif isinstance(term, Var) and term in binding:
            score += 2
        elif isinstance(term, FuncTerm):
            score += 1
    return score


def _check_side_conditions(conjunction: Conjunction, binding: Binding) -> bool:
    """Check equalities, inequalities and C() under a complete binding."""
    for lit in conjunction.literals:
        if isinstance(lit, Equality):
            if evaluate_term(lit.left, binding) != evaluate_term(lit.right, binding):
                return False
        elif isinstance(lit, Inequality):
            if evaluate_term(lit.left, binding) == evaluate_term(lit.right, binding):
                return False
        elif isinstance(lit, ConstantPredicate):
            if not is_constant(evaluate_term(lit.term, binding)):
                return False
    return True


def greedy_join_order(
    atoms: Sequence[Atom],
    seed_vars: Iterable[Var],
    size_of: "Callable[[str], int]",
) -> list[int]:
    """The greedy most-bound-first join order over *atoms*.

    Scores each pending atom by its bound positions (constants and
    variables bound by the seed or an earlier atom count 2, function
    terms 1) and picks the most constrained, breaking ties toward the
    relation with the smaller ``size_of(relation)``.  This is the order
    the indexed evaluator plans with; :mod:`repro.backends.sql` reuses it
    as the FROM-clause join hint when lowering tgd premises to SELECTs,
    so both engines walk premises the same way.
    """
    bound: set[Var] = set(seed_vars)
    remaining = list(range(len(atoms)))
    order: list[int] = []

    def boundness(i: int) -> int:
        score = 0
        for term in atoms[i].terms:
            if isinstance(term, Const):
                score += 2
            elif isinstance(term, Var):
                if term in bound:
                    score += 2
            else:
                score += 1
        return score

    while remaining:
        best = max(remaining, key=lambda i: (boundness(i), -size_of(atoms[i].relation)))
        remaining.remove(best)
        order.append(best)
        for term in atoms[best].terms:
            if isinstance(term, Var):
                bound.add(term)
    return order


def _plan_joins(
    atoms: Sequence[Atom], seed_vars: Iterable[Var], instance: Instance
) -> tuple[list[int], list[tuple[int, ...]]]:
    """Choose a join order and the index-probe columns for each atom.

    Greedy most-bound-first (same scoring as the seed engine's dynamic
    choice), breaking ties toward smaller relations; chosen **once** per
    evaluation instead of per recursion step.  ``probes[k]`` holds the
    positions of ``atoms[order[k]]`` whose value is known when the atom
    is reached — constant positions plus positions of variables bound by
    the seed or an earlier atom — i.e. the key columns of the hash index
    probed for that atom.  Atoms with no bound position fall back to a
    scan (empty probe tuple).
    """

    store = instance.columnar_store

    def size(relation: str) -> int:
        if relation not in instance.schema:
            return 0
        # A store answers from its row counts — materializing value
        # tuples just to count them would force lazily decoded instances.
        if store is not None:
            return store.counts.get(relation, 0)
        return len(instance.rows(relation))

    order = greedy_join_order(atoms, seed_vars, size)
    bound: set[Var] = set(seed_vars)
    probes: list[tuple[int, ...]] = []
    for i in order:
        atom = atoms[i]
        probes.append(
            tuple(
                position
                for position, term in enumerate(atom.terms)
                if isinstance(term, Const) or (isinstance(term, Var) and term in bound)
            )
        )
        for term in atom.terms:
            if isinstance(term, Var):
                bound.add(term)
    return order, probes


def _publish(counters: dict[str, int]) -> None:
    registry = get_registry()
    registry.counter("evaluate.calls").inc()
    for name, amount in counters.items():
        if amount:
            registry.counter(name).inc(amount)


def _id_join_eligible(instance: Instance, atoms: Sequence[Atom]) -> bool:
    """Whether the id-space join engine can run this evaluation.

    Requires a column store already attached to the instance (never
    built speculatively — serial workloads that would not amortize a
    build keep the row engine) and FuncTerm-free atoms (function terms
    need value-level evaluation per row).  Side-condition literals are
    fine either way: they are checked on the materialized value binding.
    """
    if instance.columnar_store is None:
        return False
    return all(
        isinstance(term, (Var, Const)) for atom in atoms for term in atom.terms
    )


def _evaluate_id_bindings(
    instance: Instance,
    atoms: Sequence[Atom],
    order: Sequence[int],
    probes: Sequence[tuple[int, ...]],
    counters: dict[str, int],
) -> Iterator[dict[Var, int]]:
    """The id-space join core: yield variable → id bindings.

    Probes and scans entirely over the attached column store's integer
    ids — hash-index keys are int tuples, equality checks are int
    comparisons, and unbound variables bind by reading a column array
    cell.  No :class:`Value` is ever built here; callers that need value
    bindings materialize them per *result* binding
    (:func:`_evaluate_ids`), and the chase's id-space fast path consumes
    the raw id bindings directly.
    """
    store = instance.columnar_store
    planned = [atoms[i] for i in order]
    # Per planned atom: constant ids for Const positions (an absent
    # constant can match no row — the conjunction is unsatisfiable), the
    # positions binding a fresh variable, and within-atom duplicate
    # positions needing an id equality check.  Probed columns (constants
    # and already-bound variables) are guaranteed by the index key and
    # are skipped in the inner loop.
    specs = []
    for atom, columns in zip(planned, probes):
        const_ids: dict[int, int] = {}
        firsts: list[tuple[int, Var]] = []
        dup_checks: list[tuple[int, int]] = []
        first_at: dict[Var, int] = {}
        probed = set(columns)
        for position, term in enumerate(atom.terms):
            if isinstance(term, Const):
                ident = store.peek(term.value)
                if ident is None:
                    return
                const_ids[position] = ident
            else:
                seen_at = first_at.get(term)
                if position in probed:
                    continue
                if seen_at is None and term not in first_at:
                    first_at[term] = position
                    firsts.append((position, term))
                elif seen_at is not None:
                    dup_checks.append((position, seen_at))
        specs.append((atom, columns, const_ids, firsts, dup_checks))

    def recurse(depth: int, id_binding: dict[Var, int]) -> Iterator[dict[Var, int]]:
        if depth == len(planned):
            yield id_binding
            return
        atom, columns, const_ids, firsts, dup_checks = specs[depth]
        cols = store.columns[atom.relation]
        if columns:
            terms = atom.terms
            key = tuple(
                const_ids[c] if isinstance(terms[c], Const) else id_binding[terms[c]]
                for c in columns
            )
            counters["evaluate.index_probes"] += 1
            bucket = store.index(atom.relation, columns).get(key)
            if bucket is None:
                counters["evaluate.index_misses"] += 1
                return
            counters["evaluate.index_hits"] += 1
            positions: Iterable[int] = bucket
        else:
            positions = range(store.counts[atom.relation])
        for row_position in positions:
            counters["evaluate.rows_scanned"] += 1
            matched = True
            for position, first_position in dup_checks:
                if cols[position][row_position] != cols[first_position][row_position]:
                    matched = False
                    break
            if not matched:
                continue
            extended = dict(id_binding)
            for position, var in firsts:
                ident = cols[position][row_position]
                bound = extended.get(var)
                if bound is None:
                    extended[var] = ident
                elif bound != ident:
                    matched = False
                    break
            if matched:
                yield from recurse(depth + 1, extended)

    yield from recurse(0, {})


def _evaluate_ids(
    conjunction: Conjunction,
    instance: Instance,
    atoms: Sequence[Atom],
    order: Sequence[int],
    probes: Sequence[tuple[int, ...]],
    counters: dict[str, int],
) -> Iterator[Binding]:
    """Id-space join with value bindings: the :func:`evaluate` engine.

    Wraps :func:`_evaluate_id_bindings`, materializing one value binding
    per result (ids are in bijection with the store's values, so id
    equality is value equality) and applying side-condition literals,
    which need value-level term evaluation.
    """
    values = instance.columnar_store.values
    for id_binding in _evaluate_id_bindings(instance, atoms, order, probes, counters):
        binding = {var: values[ident] for var, ident in id_binding.items()}
        if _check_side_conditions(conjunction, binding):
            yield binding


def premise_ids_eligible(conjunction: Conjunction, instance: Instance) -> bool:
    """Whether :func:`evaluate_premise_ids` would run (no evaluation done).

    The chase's fast path decides eligibility for *all* tgds before
    firing any of them — a mid-run fallback would leave the null factory
    partially consumed — so the gate is exposed separately from the
    evaluation itself.
    """
    atoms = conjunction.atoms()
    return (
        len(atoms) == len(conjunction.literals)
        and _indexes_enabled
        and _id_join_eligible(instance, atoms)
    )


def evaluate_premise_ids(
    conjunction: Conjunction, instance: Instance
) -> tuple[tuple[Var, ...], list[tuple[int, ...]]] | None:
    """All premise bindings as id tuples, or ``None`` when ineligible.

    The chase's id-space fast path (:mod:`repro.mapping.chase`) asks for
    every satisfying binding of a tgd premise as a tuple of store ids —
    no value objects, no per-binding dicts surviving the call.  Returns
    ``(variables, rows)`` with *variables* sorted by name and each row
    the ids bound to them in that order; rows come back unsorted (the
    chase sorts id tuples itself, which on a value-sorted table is
    exactly the canonical ``value_sort_key`` firing order).

    ``None`` (fall back to value-space evaluation) when the instance has
    no attached column store, indexing is disabled, any atom carries a
    function term, or the conjunction has side-condition literals
    (equalities and friends need value-level term evaluation).
    """
    atoms = conjunction.atoms()
    if len(atoms) != len(conjunction.literals):
        return None
    if not _indexes_enabled or not _id_join_eligible(instance, atoms):
        return None
    _check_arities(atoms, instance)
    variables = tuple(
        sorted(
            {t for atom in atoms for t in atom.terms if isinstance(t, Var)},
            key=lambda v: v.name,
        )
    )
    if any(atom.relation not in instance.schema for atom in atoms):
        return variables, []
    order, probes = _plan_joins(atoms, (), instance)
    counters = {
        "evaluate.index_builds": 0,
        "evaluate.index_probes": 0,
        "evaluate.index_hits": 0,
        "evaluate.index_misses": 0,
        "evaluate.index_skips": 0,
        "evaluate.rows_scanned": 0,
        "evaluate.id_joins": 1,
    }
    rows: list[tuple[int, ...]] = []
    try:
        for id_binding in _evaluate_id_bindings(
            instance, atoms, order, probes, counters
        ):
            rows.append(tuple(id_binding[v] for v in variables))
    finally:
        _publish(counters)
    return variables, rows


def evaluate(
    conjunction: Conjunction,
    instance: Instance,
    seed: Mapping[Var, Value] | None = None,
    *,
    use_indexes: bool | None = None,
) -> Iterator[Binding]:
    """Yield every binding of the conjunction's variables satisfying it.

    *seed* pre-binds some variables (used when checking whether a tgd's
    conclusion is already witnessed for a given premise binding).
    Atoms over relations absent from the instance simply fail to match;
    atoms whose arity disagrees with a relation that *is* present raise
    :class:`ArityMismatchError`.  *use_indexes* overrides the module
    default (:func:`set_indexes_enabled`); with indexing off the planned
    join order is kept but every atom is matched by scanning.
    """
    atoms = list(conjunction.atoms())
    _check_arities(atoms, instance)
    initial: Binding = dict(seed) if seed else {}
    if any(atom.relation not in instance.schema for atom in atoms):
        return
    indexed = _indexes_enabled if use_indexes is None else use_indexes
    order, probes = _plan_joins(atoms, initial, instance)
    planned = [atoms[i] for i in order]
    counters = {
        "evaluate.index_builds": 0,
        "evaluate.index_probes": 0,
        "evaluate.index_hits": 0,
        "evaluate.index_misses": 0,
        "evaluate.index_skips": 0,
        "evaluate.rows_scanned": 0,
        "evaluate.id_joins": 0,
    }
    # Instances that already carry a column store (unpacked payloads in
    # pool workers, sources the exchange built a store for) evaluate in id
    # space: index keys become packed int tuples and equality checks
    # compare ids, materializing values only per result binding.  Seeded
    # evaluations (witness checks) and function terms keep the row
    # engine — seeds arrive as values, and FuncTerms need value-level
    # evaluation per row.
    if indexed and not initial and _id_join_eligible(instance, atoms):
        counters["evaluate.id_joins"] = 1
        try:
            yield from _evaluate_ids(
                conjunction, instance, atoms, order, probes, counters
            )
        finally:
            _publish(counters)
        return
    # Single-atom conjunctions issue exactly one index probe, so building
    # a missing index (a full scan *plus* dict construction) is strictly
    # more expensive than the one scan the probe replaces.  Skip the
    # build for the first such request per (relation, columns) on each
    # instance; a second request on the same instance builds as usual, so
    # repeatedly-probed instances (e.g. the standard chase's witness
    # snapshots) still amortize into hash probes.
    skip_single = (
        indexed
        and len(planned) == 1
        and bool(probes[0])
        and not instance.has_index(planned[0].relation, probes[0])
        and instance.defer_single_probe(planned[0].relation, probes[0])
    )

    def recurse(depth: int, binding: Binding) -> Iterator[Binding]:
        if depth == len(planned):
            if _check_side_conditions(conjunction, binding):
                yield dict(binding)
            return
        atom = planned[depth]
        columns = probes[depth]
        rows: Iterable[Row]
        if indexed and columns and not (skip_single and depth == 0):
            if not instance.has_index(atom.relation, columns):
                counters["evaluate.index_builds"] += 1
            index = instance.index(atom.relation, columns)
            key = tuple(
                term.value if isinstance(term, Const) else binding[term]
                for term in (atom.terms[c] for c in columns)
            )
            counters["evaluate.index_probes"] += 1
            bucket = index.get(key)
            if bucket is None:
                counters["evaluate.index_misses"] += 1
                return
            counters["evaluate.index_hits"] += 1
            rows = bucket
        else:
            if skip_single and depth == 0 and columns:
                counters["evaluate.index_skips"] += 1
            rows = instance.rows(atom.relation)
        for row in rows:
            counters["evaluate.rows_scanned"] += 1
            extended = _match_atom(atom, row, binding)
            if extended is not None:
                yield from recurse(depth + 1, extended)

    try:
        yield from recurse(0, initial)
    finally:
        _publish(counters)


def evaluate_scan(
    conjunction: Conjunction,
    instance: Instance,
    seed: Mapping[Var, Value] | None = None,
) -> Iterator[Binding]:
    """The seed reference evaluator: dynamic atom order, full scans.

    Chooses the most-constrained pending atom at every recursion step and
    matches it against every row of its relation.  Semantically identical
    to :func:`evaluate` (the test suite cross-checks the two); kept as
    the oracle and scan baseline.
    """
    atoms = list(conjunction.atoms())
    _check_arities(atoms, instance)

    def recurse(pending: list[Atom], binding: Binding) -> Iterator[Binding]:
        if not pending:
            if _check_side_conditions(conjunction, binding):
                yield dict(binding)
            return
        # Most-constrained atom first keeps the search shallow.
        best_index = max(
            range(len(pending)), key=lambda i: _atom_boundness(pending[i], binding)
        )
        atom = pending[best_index]
        rest = pending[:best_index] + pending[best_index + 1 :]
        if atom.relation not in instance.schema:
            return
        for row in instance.rows(atom.relation):
            extended = _match_atom(atom, row, binding)
            if extended is not None:
                yield from recurse(rest, extended)

    initial: Binding = dict(seed) if seed else {}
    yield from recurse(atoms, initial)


def evaluate_delta(
    conjunction: Conjunction,
    instance: Instance,
    delta: Delta,
    seed: Mapping[Var, Value] | None = None,
) -> Iterator[Binding]:
    """Yield the bindings that use at least one *delta* row.

    The semi-naive primitive: *delta* maps relation names to the rows
    added since the conjunction was last evaluated over *instance*.  For
    each atom occurrence, the atom is matched against the delta rows only
    while the remaining literals are evaluated against the full instance;
    bindings reachable through several delta atoms are deduplicated.  The
    union of :func:`evaluate_delta` over the delta and the bindings found
    before the delta was added is exactly ``evaluate`` over the grown
    instance.
    """
    seen: set[tuple] = set()
    literals = conjunction.literals
    base: Binding = dict(seed) if seed else {}
    for position, literal in enumerate(literals):
        if not isinstance(literal, Atom):
            continue
        rows = delta.get(literal.relation)
        if not rows:
            continue
        rest = Conjunction(literals[:position] + literals[position + 1 :])
        for row in rows:
            if len(row) != literal.arity:
                raise ArityMismatchError(literal, len(row))
            partial = _match_atom(literal, row, base)
            if partial is None:
                continue
            for binding in evaluate(rest, instance, seed=partial):
                key = tuple(sorted((v.name, binding[v]) for v in binding))
                if key not in seen:
                    seen.add(key)
                    yield binding


def satisfiable(
    conjunction: Conjunction,
    instance: Instance,
    seed: Mapping[Var, Value] | None = None,
) -> bool:
    """Whether at least one satisfying binding exists."""
    return next(evaluate(conjunction, instance, seed), None) is not None


def answers(
    conjunction: Conjunction,
    head_variables: Sequence[Var],
    instance: Instance,
) -> set[tuple[Value, ...]]:
    """All answer tuples of the CQ ``head_variables ← conjunction``."""
    return {
        tuple(b[v] for v in head_variables) for b in evaluate(conjunction, instance)
    }


def answer_witnesses(
    conjunction: Conjunction,
    head_variables: Sequence[Var],
    instance: Instance,
) -> Iterator[tuple[tuple[Value, ...], Binding, list[tuple[str, tuple[Value, ...]]]]]:
    """Yield ``(answer, binding, grounded_atoms)`` per satisfying binding.

    The witness view of :func:`answers`: alongside each answer tuple, the
    full query-variable binding that produced it and the query atoms
    grounded under that binding — the instance facts justifying the
    answer.  One triple per *binding*, so an answer reachable several
    ways appears once per witness; callers keep the first (or all).
    """
    atoms = list(conjunction.atoms())
    for binding in evaluate(conjunction, instance):
        answer = tuple(binding[v] for v in head_variables)
        yield answer, binding, ground_atoms(atoms, binding)


def ground_atoms(
    atoms: Sequence[Atom], binding: Mapping[Var, Value]
) -> list[tuple[str, tuple[Value, ...]]]:
    """Ground each atom under *binding* to (relation, row) pairs.

    Unbound variables raise; callers bind existentials (to fresh nulls or
    Skolem values) before grounding.
    """
    return [
        (a.relation, tuple(evaluate_term(t, binding) for t in a.terms)) for a in atoms
    ]
