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
from array import array
from itertools import chain, compress, repeat
from operator import eq
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


# Driving-atom rows per batch on :func:`evaluate`'s id path: a caller that
# stops after its first binding (``satisfiable``) pays for one chunk of the
# join, not the whole of it.
_ID_CHUNK = 1024

_IdBatch = tuple[dict[Var, array], int]


def _id_join_specs(
    store,
    atoms: Sequence[Atom],
    order: Sequence[int],
    probes: Sequence[tuple[int, ...]],
) -> list[tuple] | None:
    """Per planned atom, what the batch join needs; ``None`` if unsatisfiable.

    Each spec is ``(relation, columns, key, firsts, dup_checks)``:
    *columns* are the probed positions and *key* their probe-key parts
    (a constant id, or the bound :class:`Var` whose column supplies the
    key); *firsts* are ``(position, var)`` pairs binding a fresh variable
    and *dup_checks* ``(position, first_position)`` pairs of a variable
    repeated within the atom.  A constant absent from the store matches
    no row, so the conjunction is unsatisfiable.
    """
    specs = []
    for i, columns in zip(order, probes):
        atom = atoms[i]
        key: list = []
        for position in columns:
            term = atom.terms[position]
            if isinstance(term, Const):
                ident = store.peek(term.value)
                if ident is None:
                    return None
                key.append(ident)
            else:
                key.append(term)
        probed = set(columns)
        first_at: dict[Var, int] = {}
        firsts: list[tuple[int, Var]] = []
        dup_checks: list[tuple[int, int]] = []
        for position, term in enumerate(atom.terms):
            if position in probed:
                continue
            if term in first_at:
                dup_checks.append((position, first_at[term]))
            else:
                first_at[term] = position
                firsts.append((position, term))
        specs.append((atom.relation, columns, tuple(key), firsts, dup_checks))
    return specs


def _gather(column: array, positions: Sequence[int]) -> array:
    """``column`` read at *positions* (the column itself for the identity)."""
    if type(positions) is range and positions == range(len(column)):
        return column
    return array(column.typecode, map(column.__getitem__, positions))


def _match_positions(
    store,
    spec: tuple,
    binding: dict[Var, array],
    n: int,
    counters: dict[str, int],
) -> tuple[Sequence[int] | None, Sequence[int]]:
    """Every (binding, row) pair matching one atom's probe, in binding order.

    Returns ``(left, right)``: the binding index and the row position of
    each match.  A probed atom looks all *n* keys up in the store's hash
    index at once; an unprobed one pairs every binding with every row.
    *left* is ``None`` when *binding* has no columns to carry along.
    """
    relation, columns, key, _, _ = spec
    if columns:
        key_columns = [
            binding[part] if isinstance(part, Var) else repeat(part, n)
            for part in key
        ]
        index = store.index(relation, columns)
        buckets = list(map(index.get, zip(*key_columns), repeat((), n)))
        lengths = list(map(len, buckets))
        misses = lengths.count(0)
        counters["evaluate.index_probes"] += n
        counters["evaluate.index_misses"] += misses
        counters["evaluate.index_hits"] += n - misses
        right: Sequence[int] = list(chain.from_iterable(buckets))
    else:
        count = store.counts[relation]
        rows = range(count)
        right = rows if n == 1 else list(chain.from_iterable(repeat(rows, n)))
        lengths = repeat(count, n)
    counters["evaluate.rows_scanned"] += len(right)
    if not binding:
        return None, right
    return list(chain.from_iterable(map(repeat, range(n), lengths))), right


def _extend(
    store,
    spec: tuple,
    binding: dict[Var, array],
    left: Sequence[int] | None,
    right: Sequence[int],
) -> _IdBatch:
    """The bindings extended by matched rows: filter, then gather columns."""
    relation, _, _, firsts, dup_checks = spec
    cols = store.columns[relation]
    for position, first_position in dup_checks:
        keep = list(
            map(
                eq,
                map(cols[position].__getitem__, right),
                map(cols[first_position].__getitem__, right),
            )
        )
        right = list(compress(right, keep))
        if left is not None:
            left = list(compress(left, keep))
    extended = {var: _gather(column, left) for var, column in binding.items()}
    for position, var in firsts:
        extended[var] = _gather(cols[position], right)
    return extended, len(right)


def _id_join(
    store, specs: Sequence[tuple], counters: dict[str, int], chunk: int | None = None
) -> Iterator[_IdBatch]:
    """The id-space join core: batches of variable → id-column bindings.

    One hash join per planned atom over whole columns of ids: the
    partial bindings' key columns probe the store's index together, and
    the matched positions gather every binding column at once.  No
    :class:`Value` is built here.  With *chunk*, the driving atom's
    matches are joined *chunk* rows at a time and each batch is yielded
    before the next starts, so a caller that stops early does bounded
    work; otherwise one batch holds the whole result.  Batches are in
    the order a nested-loop join would produce.
    """
    if not specs:
        yield {}, 1
        return
    first, rest = specs[0], specs[1:]
    _, matched = _match_positions(store, first, {}, 1, counters)
    step = chunk or max(len(matched), 1)
    for start in range(0, len(matched), step):
        binding, n = _extend(store, first, {}, None, matched[start : start + step])
        for spec in rest:
            if not n:
                break
            left, right = _match_positions(store, spec, binding, n, counters)
            binding, n = _extend(store, spec, binding, left, right)
        if n:
            yield binding, n


def _evaluate_ids(
    conjunction: Conjunction,
    instance: Instance,
    atoms: Sequence[Atom],
    order: Sequence[int],
    probes: Sequence[tuple[int, ...]],
    counters: dict[str, int],
) -> Iterator[Binding]:
    """Id-space join with value bindings: the :func:`evaluate` engine.

    Runs :func:`_id_join` over chunks of the driving atom, materializing
    one value binding per result (ids are in bijection with the store's
    values, so id equality is value equality) and applying
    side-condition literals, which need value-level term evaluation.
    """
    store = instance.columnar_store
    specs = _id_join_specs(store, atoms, order, probes)
    if specs is None:
        return
    values = store.values
    for binding, n in _id_join(store, specs, counters, _ID_CHUNK):
        variables = list(binding)
        rows = zip(*(map(values.__getitem__, binding[v]) for v in variables))
        for row in rows if variables else repeat((), n):
            value_binding = dict(zip(variables, row))
            if _check_side_conditions(conjunction, value_binding):
                yield value_binding


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
) -> tuple[tuple[Var, ...], list[Sequence[int]], int] | None:
    """All premise bindings as id columns, or ``None`` when ineligible.

    The chase's id-space fast path (:mod:`repro.mapping.chase`) asks for
    every satisfying binding of a tgd premise in store ids — no value
    objects, no per-binding dicts or tuples.  Returns ``(variables,
    columns, count)``: *variables* sorted by name, ``columns[i]`` the ids
    bound to ``variables[i]`` and *count* the number of bindings.  The
    bindings come back unsorted (the chase sorts them as id tuples,
    which on a value-sorted table is exactly the canonical
    ``value_sort_key`` firing order).

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
    empty = (variables, [[] for _ in variables], 0)
    if any(atom.relation not in instance.schema for atom in atoms):
        return empty
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
    store = instance.columnar_store
    try:
        specs = _id_join_specs(store, atoms, order, probes)
        if specs is None:
            return empty
        for binding, n in _id_join(store, specs, counters):
            return variables, [binding[v] for v in variables], n
        return empty
    finally:
        _publish(counters)


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
