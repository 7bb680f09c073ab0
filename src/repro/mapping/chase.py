"""The chase: materializing universal solutions.

Given a source instance ``I`` and a mapping ``M``, the chase produces the
canonical universal solution ``J*`` — the paper's Example 1 instance
``{Manager(Alice, ⊥1), Manager(Bob, ⊥2)}`` — by firing each st-tgd for
each premise binding, inventing fresh labelled nulls for existential
variables, and then firing target dependencies (egds / target tgds) to a
fixpoint.

Two st-tgd chase variants are provided:

* ``NAIVE`` (a.k.a. oblivious): fire every tgd once per distinct premise
  binding, always inventing fresh nulls.  Produces the *canonical*
  universal solution; deterministic.
* ``STANDARD`` (a.k.a. restricted): fire only when the conclusion is not
  already witnessed.  Produces a (possibly smaller) universal solution.

Egd steps unify values, preferring constants and, of two labelled
nulls, the first-minted; unifying two distinct
constants raises :class:`ChaseFailure` (the mapping has no solution).
Target-tgd steps are restricted-chase and guarded by a step limit, with
:func:`~repro.mapping.dependencies.is_weakly_acyclic` available as a
static termination guarantee.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Iterable, Mapping, Sequence

from ..budget import Budget, BudgetExceeded
from ..faults import fault_point
from ..logic.evaluation import (
    Binding,
    evaluate,
    evaluate_delta,
    evaluate_premise_ids,
    ground_atoms,
    premise_ids_eligible,
    satisfiable,
)
from ..logic.terms import Const, Var
from ..obs import get_registry, get_tracer
from ..options import DEFAULT_MAX_STEPS, ExchangeOptions
from ..provenance.store import NOOP, ProvenanceStore, resolve_provenance
from ..relational.columnar import ColumnStore, sort_id_columns, width_code
from ..relational.homomorphism import core as core_of
from ..relational.instance import Fact, Instance, Row
from ..relational.schema import AttributeType, Schema
from ..relational.values import (
    LabeledNull,
    NullFactory,
    Value,
    is_constant,
    max_null_label,
    value_sort_key,
)
from .dependencies import (
    Egd,
    PositionCycle,
    TargetDependency,
    TargetTgd,
    weak_acyclicity_witness,
)
from .sttgd import SchemaMapping, StTgd


class ChaseVariant(enum.Enum):
    """Which st-tgd firing discipline to use."""

    NAIVE = "naive"
    STANDARD = "standard"


class ChaseFailure(Exception):
    """The chase failed: an egd required two distinct constants to be equal.

    ``statistics`` carries the partial :class:`ChaseStatistics` of the
    failing run, so traces of failed exchanges are not lost.
    """

    statistics: "ChaseStatistics | None" = None


class ChaseNonTermination(Exception):
    """The target-dependency chase exceeded its step limit.

    Like :class:`ChaseFailure`, carries partial ``statistics``; when the
    target tgds fail the weak-acyclicity test, ``witness`` holds the
    offending :class:`~repro.mapping.dependencies.PositionCycle` (the
    same cycle ``repro lint`` reports as RA101).  ``partial`` holds the
    facts chased before the cap tripped, so the service layer
    (:mod:`repro.service`) can degrade to a
    :class:`~repro.service.PartialSolution` instead of crashing.
    """

    statistics: "ChaseStatistics | None" = None
    witness: "PositionCycle | None" = None
    partial: "Instance | None" = None


@dataclass
class ChaseStatistics:
    """Counters describing one chase run.

    The dataclass is the run-local view; :meth:`publish` folds the
    counters into the global :class:`~repro.obs.MetricsRegistry` under
    ``chase.*`` names at the end of every run (successful or not), so
    the observability layer and the per-run view stay one source of
    truth apart from timing.
    """

    tgd_firings: int = 0
    egd_firings: int = 0
    target_tgd_firings: int = 0
    nulls_created: int = 0
    rounds: int = 0
    firings_by_tgd: dict[int, int] = field(default_factory=dict, repr=False)
    """St-tgd firings per index into ``mapping.tgds`` (not published)."""

    def as_dict(self) -> dict[str, int]:
        """The counters as a plain dict (the JSON-able, drift-proof view)."""
        return {
            "tgd_firings": self.tgd_firings,
            "egd_firings": self.egd_firings,
            "target_tgd_firings": self.target_tgd_firings,
            "nulls_created": self.nulls_created,
            "rounds": self.rounds,
        }

    def publish(self, registry=None) -> None:
        """Fold these counters into *registry* (default: the global one)."""
        registry = registry if registry is not None else get_registry()
        for name, value in self.as_dict().items():
            if value:
                registry.counter(f"chase.{name}").inc(value)

    def __repr__(self) -> str:
        fields = self.as_dict()
        inner = ", ".join(
            f"{name.replace('_firings', '').replace('_created', '')}={value}"
            for name, value in fields.items()
        )
        return f"ChaseStatistics({inner})"


@dataclass
class ChaseResult:
    """The outcome of a chase: the solution instance plus statistics.

    ``provenance`` is the store the run recorded into — a
    :class:`~repro.provenance.ProvenanceLog` when provenance was enabled,
    the shared no-op otherwise.
    """

    solution: Instance
    statistics: ChaseStatistics = field(default_factory=ChaseStatistics)
    provenance: ProvenanceStore = NOOP


def _resolve_limits(
    options: ExchangeOptions | None,
    budget: Budget | None,
) -> tuple[int, Budget | None]:
    """Fold an :class:`~repro.options.ExchangeOptions` into the effective
    ``(max_steps, budget)`` pair shared by :func:`chase` and
    :func:`chase_target_dependencies`.  The pre-ExchangeOptions step-cap
    keywords (``max_target_steps=`` / ``max_steps=``) are gone — passing
    them is a ``TypeError`` now."""
    if options is not None:
        return options.max_steps, budget if budget is not None else options.budget()
    return DEFAULT_MAX_STEPS, budget


def id_path_applies(
    mapping: SchemaMapping,
    variant: ChaseVariant,
    budget: Budget | None,
    provenance: ProvenanceStore,
) -> bool:
    """Whether :func:`chase` offers the st-tgd phase to the id-space path.

    The id-space fast path (:func:`_chase_st_tgds_ids`) covers the
    common dispatch — NAIVE, unbudgeted, no lineage, no target-dependency
    phase to feed — and runs only when the source carries a column
    store.  The exchange core (:func:`repro.exec.core.execute`) asks
    the same question to decide whether building the source's store
    first pays; :func:`chase` itself never builds one.
    """
    return (
        variant is ChaseVariant.NAIVE
        and budget is None
        and not provenance.enabled
        and not mapping.target_dependencies
    )


def chase(
    mapping: SchemaMapping,
    source: Instance,
    variant: ChaseVariant = ChaseVariant.NAIVE,
    *,
    options: ExchangeOptions | None = None,
    budget: Budget | None = None,
    provenance: ProvenanceStore | bool | None = None,
) -> ChaseResult:
    """Chase *source* with *mapping*, returning a universal solution.

    Limits come from *options* (an
    :class:`~repro.options.ExchangeOptions`): ``options.max_steps``
    bounds the target-dependency phase
    (:class:`ChaseNonTermination` past it) and
    ``options.deadline`` / ``options.max_facts`` build a per-request
    :class:`~repro.budget.Budget` checked cooperatively at every chase
    step (:class:`~repro.budget.BudgetExceeded` past either).  A
    pre-built *budget* can be passed directly (the service layer shares
    one budget across phases this way).  The pre-ExchangeOptions
    ``max_target_steps`` keyword was removed — passing it is a
    ``TypeError`` (see README "Migrating to ExchangeOptions").

    The st-tgd phase runs once (st-tgds cannot re-fire: their premises
    read only the source).  The target-dependency phase iterates egd and
    target-tgd steps to a fixpoint, bounded by the step cap.

    On failure the partial statistics are attached to the exception
    (``exc.statistics``) and published to the metrics registry before
    re-raising; :class:`~repro.budget.BudgetExceeded` and
    :class:`ChaseNonTermination` additionally carry ``exc.partial`` —
    the facts chased so far — so callers can degrade gracefully.

    Lineage recording follows ``options.provenance`` (or an explicit
    *provenance* store, which wins): every tgd firing and egd rewrite is
    recorded so the result's facts can be explained and replayed.  On a
    budget/step failure the partially recorded store is attached to the
    exception as ``exc.provenance``.
    """
    max_steps, budget = _resolve_limits(options, budget)
    if provenance is None and options is not None:
        provenance = options.provenance
    provenance = resolve_provenance(provenance)
    stats = ChaseStatistics()
    factory = NullFactory()
    source_store = source.columnar_store
    if source_store is not None:
        # Answering from the store keeps lazily decoded instances lazy —
        # scanning source.values() would force the value table.
        factory.reserve_through(source_store.max_labeled_null())
    else:
        factory.reserve_through(max_null_label(source.values()))
    tracer = get_tracer()
    target: Instance | None = None

    try:
        with tracer.span(
            "chase", variant=variant.value, source_facts=source.size()
        ) as span:
            with tracer.span("chase.st_tgds", tgds=len(mapping.tgds)):
                # The fast path declines whatever it cannot run, leaving
                # the value-space engine (and its validation errors) intact.
                if id_path_applies(mapping, variant, budget, provenance):
                    target = _chase_st_tgds_ids(mapping, source, factory, stats)
                if target is None:
                    target_facts = _chase_st_tgds(
                        mapping.tgds, source, variant, factory, stats, budget,
                        provenance,
                    )
                    target = Instance(mapping.target, target_facts)

            if mapping.target_dependencies:
                with tracer.span(
                    "chase.target_dependencies",
                    dependencies=len(mapping.target_dependencies),
                ):
                    target = _chase_target_dependencies(
                        target,
                        mapping.target_dependencies,
                        factory,
                        stats,
                        max_steps,
                        budget,
                        provenance,
                    )
            span.set(target_facts=target.size(), **stats.as_dict())
    except BudgetExceeded as exc:
        exc.statistics = stats
        if exc.partial is None:
            # The st-tgd phase has no schema at hand; it leaves the raw
            # fact list on the exception and we promote it here.
            facts = exc.partial_facts if exc.partial_facts is not None else []
            exc.partial = Instance(mapping.target, facts)
        exc.provenance = provenance if provenance.enabled else None
        stats.publish()
        raise
    except (ChaseFailure, ChaseNonTermination) as exc:
        exc.statistics = stats
        exc.provenance = provenance if provenance.enabled else None
        stats.publish()
        raise
    stats.publish()
    return ChaseResult(target, stats, provenance)


def st_tgd_phase(
    mapping: SchemaMapping, source: Instance
) -> tuple[Instance, dict[int, tuple[int, Var, Binding]]]:
    """The st-tgd phase of ``chase(mapping, source)`` and who minted each null.

    The map sends a fresh null's label to ``(tgd index, existential
    variable, premise binding)`` of its firing.  Runs in id space when
    it can and publishes nothing; both st-tgd paths fire in the
    canonical binding order, so labels match every :func:`chase` of an
    equal source.
    """
    factory = NullFactory()
    factory.reserve_through(source.columnar().max_labeled_null())
    stats = ChaseStatistics()
    minted: dict[int, tuple[int, Var, Binding]] = {}
    solution = _chase_st_tgds_ids(mapping, source, factory, stats, minted)
    if solution is None:
        facts = _chase_st_tgds(
            mapping.tgds, source, ChaseVariant.NAIVE, factory, stats, minted=minted
        )
        solution = Instance(mapping.target, facts)
    return solution, minted


def _canonical_bindings(bindings: Iterable[Binding]) -> list[Binding]:
    """Sort bindings into a deterministic firing order.

    Replaces the old sort-by-``repr``-of-everything hack with a cheap
    canonical key: variables ordered by name, values by
    :func:`~repro.relational.values.value_sort_key` (no string building
    for the common scalar kinds).
    """
    items = list(bindings)
    if len(items) <= 1:
        return items
    variables = sorted({v for b in items for v in b}, key=lambda v: v.name)
    absent = (-1, "", -1)

    def key(binding: Binding) -> tuple:
        return tuple(
            value_sort_key(binding[v]) if v in binding else absent
            for v in variables
        )

    items.sort(key=key)
    return items


def _chase_st_tgds_ids(
    mapping: SchemaMapping,
    source: Instance,
    factory: NullFactory,
    stats: ChaseStatistics,
    minted: dict | None = None,
) -> Instance | None:
    """NAIVE st-tgd chase entirely in id space, or ``None`` when ineligible.

    When the source carries a column store, premise bindings already
    come back as columns of integer ids (:func:`evaluate_premise_ids`);
    this path keeps them that way all the way into the solution.  Each
    conclusion atom's columns are built whole — frontier variables are
    the sorted binding columns, constants are repeats, fresh nulls are
    ``range`` blocks of bare labels — and the result is a deferred
    :class:`~repro.relational.columnar.ColumnStore` wrapped in a lazy
    :class:`Instance`.  No :class:`Fact`, value tuple or binding dict is
    built per firing (see docs/PERFORMANCE.md).

    Semantics match :func:`_chase_st_tgds` exactly:

    * firing order is bindings sorted as id tuples over name-sorted
      variables — on a value-sorted table (canonical stores and their
      slices) that *is* the ``value_sort_key`` order, so fresh nulls get
      identical labels; on other stores the order is still
      deterministic and the result equal up to null renaming;
    * set semantics via per-relation dedupe of rows with no per-firing
      existential, first occurrence kept (rows carrying one are unique
      by construction);
    * duplicate conclusion atoms collapse (they ground identically).

    Eligibility is decided for *every* tgd before any fires, so the
    fallback never leaves the factory or stats half-consumed.  Gated to:
    attached store without Skolem values, FuncTerm-free premises without
    side conditions, Var/Const-only conclusions into untyped (``ANY``)
    columns for variables — typed columns fall back so the validating
    constructor's ``TypeError`` behavior is preserved — and conclusion
    constants that type-check statically.  *minted* records each fresh
    null's firing as :func:`st_tgd_phase` describes.
    """
    store = source.columnar_store
    if store is None or store.skolem_count():
        return None
    target_schema = mapping.target
    const_count = store.constant_count
    new_consts: dict = {}
    compiled = []
    for tgd in mapping.tgds:
        if not premise_ids_eligible(tgd.premise, source):
            return None
        conclusion_atoms = tgd.conclusion.atoms()
        if len(conclusion_atoms) != len(tgd.conclusion.literals):
            return None
        existentials = {v: i for i, v in enumerate(tgd.existential_variables)}
        frontier_set = set(tgd.frontier)
        specs: list[tuple[str, tuple[tuple[int, object], ...], bool]] = []
        seen_atoms: set = set()
        for atom in conclusion_atoms:
            if atom.relation not in target_schema:
                return None
            rel_schema = target_schema[atom.relation]
            if rel_schema.arity != len(atom.terms):
                return None
            atom_key = (atom.relation, tuple(atom.terms))
            if atom_key in seen_atoms:
                continue
            seen_atoms.add(atom_key)
            ops: list[tuple[int, object]] = []
            has_existential = False
            for term, attr in zip(atom.terms, rel_schema.attributes):
                if isinstance(term, Var):
                    position = existentials.get(term)
                    if position is not None:
                        ops.append((2, position))
                        has_existential = True
                        continue
                    if term not in frontier_set:
                        return None
                    if attr.type is not AttributeType.ANY:
                        return None
                    ops.append((0, term))
                elif isinstance(term, Const):
                    raw = term.value
                    if not attr.type.accepts(raw):
                        return None
                    try:
                        ident = store.extended_id(raw, new_consts)
                    except TypeError:
                        return None
                    ops.append((1, ident))
                else:  # FuncTerm conclusions ground per value binding
                    return None
            specs.append((atom.relation, tuple(ops), has_existential))
        compiled.append((tgd.premise, tgd.existential_variables, specs))

    # Every tgd is eligible — from here on the run cannot fall back.
    # Result id space: source constants keep their ids, new conclusion
    # constants follow (so source null ids shift up by len(new_consts)),
    # then the source's labelled nulls, then the invented ones.
    shift = len(new_consts)
    labeled_count = store.labeled_count
    null_base = const_count + shift + labeled_count
    relation_names = target_schema.relation_names
    # Per relation: the column pieces of rows carrying a fresh null (unique
    # by construction), and the existential-free rows deduped in
    # first-occurrence order.
    fresh_pieces: dict[str, list[list]] = {
        name: [[] for _ in range(target_schema[name].arity)]
        for name in relation_names
    }
    plain_rows: dict[str, dict] = {name: {} for name in relation_names}
    counts = dict.fromkeys(relation_names, 0)
    fresh_labels = array("q")
    source_size = store.table_size()
    source_code = width_code(source_size)
    for tgd_index, (premise, existential_vars, specs) in enumerate(compiled):
        evaluated = evaluate_premise_ids(premise, source)
        assert evaluated is not None  # gated above, per tgd
        variables, binding_columns, firings = evaluated
        if not firings:
            continue
        # Firing order: bindings sorted as id tuples over name-sorted
        # variables.
        var_columns = sort_id_columns(binding_columns, source_size, source_code)
        n_exist = len(existential_vars)
        fresh_base = null_base + len(fresh_labels)
        fresh_end = fresh_base + n_exist * firings
        if n_exist:
            label = factory.fresh_block(n_exist * firings)
            fresh_labels.extend(range(label, label + n_exist * firings))
            if minted is not None:  # firing k's j-th null is label + k*n_exist + j
                table = store.values
                for ids in zip(*var_columns):
                    binding = dict(zip(variables, map(table.__getitem__, ids)))
                    for variable in existential_vars:
                        minted[label] = (tgd_index, variable, binding)
                        label += 1
        if shift and labeled_count:
            var_columns = [
                [x if x < const_count else x + shift for x in column]
                for column in var_columns
            ]
        var_pos = {v: i for i, v in enumerate(variables)}
        stats.tgd_firings += firings
        stats.firings_by_tgd[tgd_index] = firings
        stats.nulls_created += n_exist * firings
        for relation, ops, has_existential in specs:
            # Frontier columns are the sorted binding columns, constants
            # repeat, and firing k's j-th fresh null is
            # fresh_base + k*n_exist + j.
            columns = [
                var_columns[var_pos[payload]] if src == 0
                else repeat(payload, firings) if src == 1
                else range(fresh_base + payload, fresh_end, n_exist)
                for src, payload in ops
            ]
            if has_existential:
                for piece, column in zip(fresh_pieces[relation], columns):
                    piece.append(column)
                counts[relation] += firings
            else:
                rows = zip(*columns) if columns else repeat((), firings)
                plain_rows[relation].update(dict.fromkeys(rows))

    table_size = null_base + len(fresh_labels)
    code = width_code(table_size)
    columns_out: dict[str, tuple] = {}
    for name in relation_names:
        plain = plain_rows[name]
        counts[name] += len(plain)
        plain_columns = zip(*plain) if plain else repeat(())
        columns_out[name] = tuple(
            array(code, chain(chain.from_iterable(pieces), extra))
            for pieces, extra in zip(fresh_pieces[name], plain_columns)
        )
    raw_constants = store.raw_constants()
    raw_constants.extend(new_consts)
    labels = array("q", store.null_labels())
    labels.extend(fresh_labels)
    result_store = ColumnStore(
        target_schema, raw_constants, labels, (), counts, columns_out
    )
    return Instance._from_store(target_schema, result_store)


def _chase_st_tgds(
    tgds: Sequence[StTgd],
    source: Instance,
    variant: ChaseVariant,
    factory: NullFactory,
    stats: ChaseStatistics,
    budget: Budget | None = None,
    provenance: ProvenanceStore = NOOP,
    minted: dict | None = None,
) -> list[Fact]:
    facts: list[Fact] = []
    # STANDARD needs to consult the target built so far; build incrementally.
    partial: dict[str, set[tuple[Value, ...]]] = {}
    partial_version = 0
    # One witnessed-probe snapshot per tgd, refreshed only when the partial
    # instance actually changed since the snapshot was built.
    probe_cache: dict[int, tuple[int, Instance]] = {}

    def witnessed(tgd_index: int, tgd: StTgd, frontier_binding: Mapping[Var, Value]) -> bool:
        cached = probe_cache.get(tgd_index)
        if cached is not None and cached[0] == partial_version:
            probe = cached[1]
        else:
            schema_rels = {a.relation for a in tgd.conclusion.atoms()}
            probe_schema = Schema(
                # A throwaway schema with just the needed relations.
                _relation_schemas_for(tgd, schema_rels)
            )
            probe = Instance(
                probe_schema,
                {r: frozenset(partial.get(r, set())) for r in schema_rels},
            )
            probe_cache[tgd_index] = (partial_version, probe)
        return satisfiable(tgd.conclusion, probe, seed=dict(frontier_binding))

    for tgd_index, tgd in enumerate(tgds):
        bindings = _canonical_bindings(evaluate(tgd.premise, source))
        # Per-tgd invariants, hoisted out of the per-binding loop: the
        # frontier/existential properties and atom lists each walk the
        # whole formula, which at thousands of bindings per tgd was a
        # measurable slice of the st-tgd phase.
        frontier = tgd.frontier
        existential_variables = tgd.existential_variables
        conclusion_atoms = tgd.conclusion.atoms()
        for binding in bindings:
            if budget is not None:
                try:
                    budget.check(facts=len(facts), phase="st_tgds")
                except BudgetExceeded as exc:
                    exc.partial_facts = list(facts)
                    raise
            frontier_binding = {v: binding[v] for v in frontier}
            if variant is ChaseVariant.STANDARD and witnessed(
                tgd_index, tgd, frontier_binding
            ):
                continue
            full_binding: dict[Var, Value] = dict(binding)
            existentials: dict[Var, Value] = {}
            for existential in existential_variables:
                fresh = factory.fresh()
                full_binding[existential] = fresh
                existentials[existential] = fresh
                stats.nulls_created += 1
                if minted is not None:
                    minted[fresh.label] = (tgd_index, existential, binding)
            fired: list[Fact] = []
            for relation, row in ground_atoms(conclusion_atoms, full_binding):
                fact = Fact(relation, row)
                facts.append(fact)
                fired.append(fact)
                bucket = partial.setdefault(relation, set())
                if row not in bucket:
                    bucket.add(row)
                    partial_version += 1
            stats.tgd_firings += 1
            stats.firings_by_tgd[tgd_index] = stats.firings_by_tgd.get(tgd_index, 0) + 1
            if provenance.enabled:
                premise_facts = [
                    Fact(relation, row)
                    for relation, row in ground_atoms(tgd.premise.atoms(), binding)
                ]
                provenance.record_firing(
                    f"tgd_{tgd_index}",
                    tgd.to_text(),
                    "st_tgds",
                    premise_facts,
                    binding,
                    existentials,
                    fired,
                )
    return facts


def _relation_schemas_for(tgd: StTgd, relations: set[str]):
    """Anonymous relation schemas matching the conclusion atoms' arities."""
    from ..relational.schema import RelationSchema

    arities: dict[str, int] = {}
    for atom in tgd.conclusion.atoms():
        arities[atom.relation] = atom.arity
    return [
        RelationSchema(r, [f"c{i}" for i in range(arities[r])])
        for r in relations
    ]


def _chase_target_dependencies(
    target: Instance,
    dependencies: Sequence[TargetDependency],
    factory: NullFactory,
    stats: ChaseStatistics,
    max_steps: int,
    budget: Budget | None = None,
    provenance: ProvenanceStore = NOOP,
) -> Instance:
    """Semi-naive fixpoint over egds and target tgds.

    Target tgds fire semi-naively: after the first round, a premise
    binding is only enumerated when it touches at least one tuple added
    in the previous round (:func:`~repro.logic.evaluation.evaluate_delta`).
    Egds fire one substitution at a time to a local fixpoint at the top
    of each round; an egd firing rewrites values across the whole
    instance, so after any firing every fact counts as new again and the
    next tgd pass re-derives from the full instance.

    Every step passes through :func:`~repro.faults.fault_point` (the
    ``"chase.step"`` seam) and, when a *budget* is present, a
    cooperative deadline/fact-cap check; a tripped budget raises
    :class:`~repro.budget.BudgetExceeded` carrying the partial target.
    """
    tracer = get_tracer()
    registry = get_registry()
    # Rule ids number the dependency list as given (dep_0, dep_1, …) so
    # the same mapping always names the same rule across runs/resumes.
    numbered = [(f"dep_{i}", d) for i, d in enumerate(dependencies)]
    egds = [(rid, d) for rid, d in numbered if isinstance(d, Egd)]
    tgds = [(rid, d) for rid, d in numbered if not isinstance(d, Egd)]
    delta: dict[str, set[Row]] | None = None  # None ⇒ every fact is new
    steps = 0

    def charge_step() -> None:
        fault_point("chase.step")
        if budget is not None:
            try:
                budget.check(facts=target.size(), phase="target_dependencies")
            except BudgetExceeded as exc:
                exc.partial = target
                raise
        if steps > max_steps:
            raise _non_termination(dependencies, max_steps, target)

    while True:
        stats.rounds += 1
        changed = False
        delta_size = (
            target.size() if delta is None else sum(len(r) for r in delta.values())
        )
        with tracer.span(
            "chase.round", round=stats.rounds, delta=delta_size
        ) as span:
            fired_this_round = 0
            # -- egd pass: fire substitutions to a local fixpoint ----------
            egd_fired = False
            if egds:
                fired_one = True
                while fired_one:
                    fired_one = False
                    for egd_id, egd in egds:
                        target, fired = _egd_step(
                            target, egd, stats, provenance, egd_id
                        )
                        if fired:
                            fired_one = egd_fired = True
                            fired_this_round += 1
                            steps += 1
                            charge_step()
            if egd_fired:
                changed = True
                delta = None  # map_values may have rewritten any fact
            # -- tgd pass: semi-naive, only delta-touching bindings --------
            enumerated = pruned = 0
            added: dict[str, set[Row]] = {}
            for tgd_id, tgd in tgds:
                if delta is None:
                    bindings = _canonical_bindings(evaluate(tgd.premise, target))
                else:
                    bindings = _canonical_bindings(
                        evaluate_delta(tgd.premise, target, delta)
                    )
                enumerated += len(bindings)
                for binding in bindings:
                    frontier_binding = {v: binding[v] for v in tgd.frontier}
                    if satisfiable(tgd.conclusion, target, seed=frontier_binding):
                        pruned += 1
                        continue
                    full_binding: dict[Var, Value] = dict(binding)
                    existentials: dict[Var, Value] = {}
                    for existential in tgd.existential_variables:
                        fresh = factory.fresh()
                        full_binding[existential] = fresh
                        existentials[existential] = fresh
                        stats.nulls_created += 1
                    new_facts = []
                    for relation, row in ground_atoms(
                        tgd.conclusion.atoms(), full_binding
                    ):
                        if row not in target.rows(relation):
                            added.setdefault(relation, set()).add(row)
                        new_facts.append(Fact(relation, row))
                    target = target.with_facts(new_facts)
                    if provenance.enabled:
                        premise_facts = [
                            Fact(relation, row)
                            for relation, row in ground_atoms(
                                tgd.premise.atoms(), binding
                            )
                        ]
                        provenance.record_firing(
                            tgd_id,
                            repr(tgd),
                            "target_dependencies",
                            premise_facts,
                            binding,
                            existentials,
                            new_facts,
                        )
                    stats.target_tgd_firings += 1
                    fired_this_round += 1
                    steps += 1
                    charge_step()
            if added:
                changed = True
            span.set(
                firings=fired_this_round,
                facts=target.size(),
                enumerated=enumerated,
                pruned=pruned,
            )
            registry.histogram("chase.delta_size").observe(delta_size)
            if enumerated:
                registry.counter("chase.bindings_enumerated").inc(enumerated)
            if pruned:
                registry.counter("chase.bindings_pruned").inc(pruned)
        if not changed:
            return target
        delta = added


def _non_termination(
    dependencies: Sequence[TargetDependency],
    max_steps: int,
    partial: Instance | None = None,
) -> ChaseNonTermination:
    """A :class:`ChaseNonTermination` carrying the diagnosis when one exists."""
    target_tgds = [d for d in dependencies if isinstance(d, TargetTgd)]
    witness = weak_acyclicity_witness(target_tgds)
    message = (
        f"target chase exceeded {max_steps} steps; "
        f"run `repro lint` on the mapping to diagnose non-termination"
    )
    if witness is not None:
        message += f" (special-edge cycle: {witness.describe()})"
    exc = ChaseNonTermination(message)
    exc.witness = witness
    exc.partial = partial
    return exc


def _egd_step(
    target: Instance,
    egd: Egd,
    stats: ChaseStatistics,
    provenance: ProvenanceStore = NOOP,
    rule_id: str = "egd",
) -> tuple[Instance, bool]:
    for binding in evaluate(egd.premise, target):
        left, right = binding[egd.left], binding[egd.right]
        if left == right:
            continue
        if is_constant(left) and is_constant(right):
            raise ChaseFailure(
                f"egd {egd!r} forces distinct constants {left!r} = {right!r}"
            )
        # Map the null onto the other value (keep constants).  Of two
        # labelled nulls keep the first-minted one, so the survivor does
        # not depend on the order the premise's bindings come in.
        if is_constant(left) or (
            isinstance(left, LabeledNull)
            and isinstance(right, LabeledNull)
            and value_sort_key(left) < value_sort_key(right)
        ):
            old, new = right, left
        else:
            old, new = left, right
        stats.egd_firings += 1
        if provenance.enabled:
            premise_facts = [
                Fact(relation, row)
                for relation, row in ground_atoms(egd.premise.atoms(), binding)
            ]
            provenance.record_rewrite(
                rule_id, repr(egd), old, new, premise_facts, binding
            )
        return target.map_values({old: new}), True
    return target, False


# ---------------------------------------------------------------------------
# Convenience entry points
# ---------------------------------------------------------------------------


def chase_target_dependencies(
    target: Instance,
    dependencies: Sequence[TargetDependency],
    *,
    options: ExchangeOptions | None = None,
    budget: Budget | None = None,
    provenance: ProvenanceStore | bool | None = None,
) -> Instance:
    """Chase an existing target instance with egds / target tgds only.

    Used by the compiled exchange engine to honour a mapping's target
    dependencies after the lens's forward direction materializes the
    target, and by :meth:`repro.service.ExchangeService.resume` to
    continue a budget-interrupted chase from its partial instance.
    Limits follow the same rules as :func:`chase`: pass *options* and/or
    a shared *budget* (the pre-ExchangeOptions ``max_steps`` keyword was
    removed; passing it is a ``TypeError``).
    Raises :class:`ChaseFailure` on egd conflicts,
    :class:`ChaseNonTermination` past the step cap and
    :class:`~repro.budget.BudgetExceeded` past the budget; every
    exception carries the partial statistics (``exc.statistics``) and
    the latter two the partial instance (``exc.partial``).
    """
    effective_max_steps, budget = _resolve_limits(options, budget)
    if provenance is None and options is not None:
        provenance = options.provenance
    provenance = resolve_provenance(provenance)
    stats = ChaseStatistics()
    factory = NullFactory()
    factory.reserve_through(max_null_label(target.values()))
    dependencies = tuple(dependencies)
    try:
        with get_tracer().span(
            "chase.target_dependencies", dependencies=len(dependencies)
        ):
            result = _chase_target_dependencies(
                target,
                dependencies,
                factory,
                stats,
                effective_max_steps,
                budget,
                provenance,
            )
    except (ChaseFailure, ChaseNonTermination, BudgetExceeded) as exc:
        exc.statistics = stats
        exc.provenance = provenance if provenance.enabled else None
        stats.publish()
        raise
    stats.publish()
    return result


def universal_solution(
    mapping: SchemaMapping,
    source: Instance,
    *,
    options: ExchangeOptions | None = None,
    budget: Budget | None = None,
) -> Instance:
    """The canonical universal solution (naive chase + target dependencies)."""
    return chase(mapping, source, options=options, budget=budget).solution


def core_universal_solution(mapping: SchemaMapping, source: Instance) -> Instance:
    """The core of the canonical universal solution — the smallest one.

    This is the "preferred solution" the paper's Example 1 calls the most
    general among all possible solutions, minimized.
    """
    return core_of(universal_solution(mapping, source))


def solution_space_sample(
    mapping: SchemaMapping,
    source: Instance,
    substitutions: Iterable[Mapping[Value, Value]],
) -> list[Instance]:
    """Solutions obtained by substituting values for the canonical nulls.

    Every homomorphic image of a universal solution that keeps the tgds
    satisfied is again a solution; this helper builds the images (e.g.
    Example 1's ``J1`` and ``J2``) and filters out non-solutions that a
    careless substitution might create when target dependencies exist.
    """
    canonical = universal_solution(mapping, source)
    out = []
    for substitution in substitutions:
        candidate = canonical.map_values(dict(substitution))
        if mapping.is_solution(source, candidate):
            out.append(candidate)
    return out
