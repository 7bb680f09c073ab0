"""The bidirectional exchange engine: compiled mappings as lenses.

:class:`ExchangeLens` assembles the per-tgd units of a
:class:`~repro.compiler.plan.MappingPlan` into one relational lens from
the whole source schema to the whole target schema:

* ``get`` unions the units' forward facts — a pure, deterministic
  function agreeing with the chase up to homomorphic equivalence
  (certified by :mod:`repro.compiler.completeness`), with canonical
  Skolem values at existential positions;
* ``put`` diffs the new view against ``get(source)``, retracting the
  support of deleted facts (per deletion hints) and justifying inserted
  facts via the routed unit's policies.

Laws: GetPut holds exactly; PutGet holds modulo homomorphic equivalence
(the quotient the existential positions force — see
:mod:`repro.compiler.tgd_compiler`); both are checked in the suite.

:class:`ExchangeEngine` is the user-facing façade of the paper's §4
workflow: mapping in, plan + show-plan + questions out, then the chase's
``exchange``, ``put_back`` through the lens, and symmetric sessions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from ..backends import BackendPlan, plan_backend
from ..budget import Budget
from ..exec.cache import ExchangeCache, mapping_fingerprint
from ..exec.core import execute, through_cache
from ..lenses.symmetric import SpanLens
from ..mapping.chase import chase_target_dependencies, st_tgd_phase
from ..mapping.sttgd import SchemaMapping
from ..obs import get_registry, get_tracer
from ..options import ExchangeOptions
from ..provenance import ProvenanceLog, Solution, resolve_provenance
from ..relational.instance import Fact, Instance
from ..relational.schema import Schema
from ..relational.values import LabeledNull, Value
from ..rlens.base import RelationalLens, ViewViolationError
from ..stats import Statistics
from .hints import Hints
from .plan import MappingPlan
from .planner import Planner, PlannerConfig
from .tgd_compiler import CompiledTgd


def _missing(instance: Instance, other: Instance) -> list[Fact]:
    """The facts of *instance* that *other* lacks, in ``repr`` order."""
    missing = (
        Fact(name, row)
        for name in instance.relation_names()
        for row in instance.rows(name) - other.rows(name)
    )
    return sorted(missing, key=repr)


def _has_labelled_nulls(instance: Instance) -> bool:
    return any(isinstance(value, LabeledNull) for value in instance.values())


class ExchangeLens(RelationalLens):
    """A whole-mapping bidirectional lens built from compiled tgd units.

    When the mapping carries *target dependencies* (egds / target tgds),
    the forward direction chases them after materializing the lens view,
    so keys and foreign keys on the target hold — exactly what the chase
    would produce.
    """

    def __init__(
        self,
        source_schema: Schema,
        target_schema: Schema,
        units: list[CompiledTgd],
        hints: Hints | None = None,
        target_dependencies: tuple = (),
        options: ExchangeOptions | None = None,
    ) -> None:
        self._source_schema = source_schema
        self._target_schema = target_schema
        self._units = list(units)
        self._hints = hints or Hints()
        self._target_dependencies = tuple(target_dependencies)
        self._options = options if options is not None else ExchangeOptions()
        self._producers: dict[str, list[CompiledTgd]] = {}
        for unit in self._units:
            self._producers.setdefault(unit.target_relation, []).append(unit)

    @property
    def source_schema(self) -> Schema:
        return self._source_schema

    @property
    def view_schema(self) -> Schema:
        return self._target_schema

    @property
    def units(self) -> list[CompiledTgd]:
        return list(self._units)

    # -- get -----------------------------------------------------------------

    def get(self, source: Instance) -> Instance:
        self.check_source(source)
        tracer = get_tracer()
        registry = get_registry()
        with tracer.span(
            "lens.get", units=len(self._units), source_facts=source.size()
        ) as span:
            facts: set[Fact] = set()
            for unit in self._units:
                with tracer.span("unit.forward", tgd=unit.tgd_id) as unit_span:
                    produced = unit.forward_facts(source)
                    unit_span.set(facts=len(produced))
                facts |= produced
            target = Instance(self._target_schema, facts)
            if self._target_dependencies:
                # The options thread the step cap and (when budgeted) a
                # fresh per-call deadline/fact budget into the chase; the
                # lens records no lineage.
                target = chase_target_dependencies(
                    target,
                    self._target_dependencies,
                    options=self._options,
                    provenance=False,
                )
            span.set(target_facts=target.size())
            registry.increment("lens.get.calls")
            registry.observe("lens.get.seconds", span.duration)
        return target

    # -- put -----------------------------------------------------------------

    def put(
        self, view: Instance, source: Instance, base: Instance | None = None
    ) -> Instance:
        """*source* updated to *view*, an edit of *base* (default ``get(source)``)."""
        self.check_view(view)
        self.check_source(source)
        tracer = get_tracer()
        registry = get_registry()
        with tracer.span("lens.put", view_facts=view.size()) as span:
            with tracer.span("lens.put.diff"):
                old_view = self.get(source) if base is None else base
                removed = _missing(old_view, view)
                added = _missing(view, old_view)

            result = source
            # Deletions first: every unit still deriving the fact must retract.
            retractions = 0
            with tracer.span("lens.put.deletions", removed=len(removed)):
                for fact in removed:
                    for unit in self._producers.get(fact.relation, []):
                        if unit.produces(fact):
                            retracted = unit.retract(fact, result)
                            if retracted:
                                result = result.without_facts(retracted)
                                retractions += len(retracted)
            # Then insertions, routed to one producing unit each.  Policies
            # consult the *pre-edit* source so FD restoration can recover
            # column values from rows the deletions above just retracted.
            with tracer.span("lens.put.insertions", added=len(added)):
                for fact in added:
                    unit = self._route(fact)
                    result = result.with_facts(
                        unit.justify(fact, result, policy_source=source)
                    )
            span.set(removed=len(removed), added=len(added), retractions=retractions)
            registry.increment("lens.put.calls")
            registry.increment("lens.put.facts_removed", len(removed))
            registry.increment("lens.put.facts_added", len(added))
            registry.observe("lens.put.seconds", span.duration)
        return result

    def _route(self, fact: Fact) -> CompiledTgd:
        candidates = [
            unit
            for unit in self._producers.get(fact.relation, [])
            if unit.produces(fact)
        ]
        if not candidates:
            raise ViewViolationError(
                f"no compiled tgd produces facts of shape {fact!r}; "
                f"the view edit is outside the mapping's image"
            )
        chosen_id = self._hints.route_insert(
            fact.relation, [unit.tgd_id for unit in candidates]
        )
        for unit in candidates:
            if unit.tgd_id == chosen_id:
                return unit
        return candidates[0]

    # -- symmetric wrapper -----------------------------------------------------

    def symmetric(self) -> SpanLens[Instance, Instance, Instance]:
        """The span-based symmetric closure of this exchange lens."""
        from ..rlens.symmetric import symmetrize

        return symmetrize(self)

    def __repr__(self) -> str:
        return f"ExchangeLens({len(self._units)} units)"


@dataclass
class ExchangeEngine:
    """The paper's §4 workflow, end to end.

    >>> engine = ExchangeEngine.compile(mapping, statistics, hints)
    >>> print(engine.show_plan())          # SQL-style plan inspection
    >>> engine.policy_questions()          # remaining user gestures
    >>> target = engine.exchange(source)   # forward: the chase's solution
    >>> source2 = engine.put_back(edited_target, source)  # backward (put)

    ``lens.get`` is the Skolem view that ``put``, the law checks and
    :class:`~repro.compiler.session.SyncSession` work against.
    """

    mapping: SchemaMapping
    plan: MappingPlan
    lens: ExchangeLens
    hints: Hints = field(default_factory=Hints)
    cache: ExchangeCache | None = None
    options: ExchangeOptions = field(default_factory=ExchangeOptions)
    backend_plan: BackendPlan | None = None

    @classmethod
    def compile(
        cls,
        mapping: SchemaMapping,
        statistics: Statistics | None = None,
        hints: Hints | None = None,
        config: PlannerConfig | None = None,
        *,
        options: ExchangeOptions | None = None,
    ) -> "ExchangeEngine":
        """Compile a mapping: tgds → templates → policies → plan → lens.

        *options* (an :class:`~repro.options.ExchangeOptions`) is the one
        place every limit and executor knob lives: ``cache`` turns on the
        solution cache, ``backend`` picks a SQL engine, ``workers`` sizes
        the HTTP server's pool, ``max_steps`` bounds target-dependency
        chases, and ``deadline``/``max_facts`` build per-request budgets.
        All default to off, and the backward direction (:meth:`put_back`)
        is unaffected.
        """
        if options is None:
            options = ExchangeOptions()
        hints = hints or Hints()
        statistics = statistics or Statistics.assumed(mapping.source)
        with get_tracer().span("compile", tgds=len(mapping.tgds)) as span:
            planner = Planner(statistics, config or PlannerConfig())
            units = planner.plan_mapping(mapping, hints)
            plan = MappingPlan(units, statistics, hints, mapping)
            lens = ExchangeLens(
                mapping.source,
                mapping.target,
                units,
                hints,
                mapping.target_dependencies,
                options,
            )
            span.set(units=len(units))
            get_registry().increment("compile.calls")
        cache = options.cache
        if isinstance(cache, int):
            cache = ExchangeCache(capacity=cache)
        # Resolve the SQL backend request (None for "interpreted"); a
        # non-compilable mapping yields a plan with fallback reasons and
        # the chase keeps serving.
        backend_plan = plan_backend(mapping, options, statistics)
        return cls(mapping, plan, lens, hints, cache, options, backend_plan)

    @property
    def backend(self) -> Any:
        """The ready SQL backend, or ``None`` (interpreted, or fallen back)."""
        plan = self.backend_plan
        return plan.backend if plan is not None and plan.ready else None

    @cached_property
    def fingerprint(self) -> str:
        """The mapping's content fingerprint (cache keys, resumption tokens)."""
        return mapping_fingerprint(self.mapping)

    @property
    def executor(self) -> None:
        """Always ``None``: the cache is :attr:`cache`, the pool the server's."""
        return None

    def exchange(
        self, source: Instance, budget: Budget | None = None
    ) -> Instance | Solution:
        """Forward data exchange: materialize the target instance.

        The request runs through the exchange core
        (:func:`repro.exec.core.execute`), through :attr:`cache` when
        one is set.  The chase returns the canonical universal solution
        (labelled nulls, deterministic labels); a SQL backend
        (``options.backend="sqlite"``/``"duckdb"``, compilable mappings)
        returns the core for laconic mappings and a homomorphically
        equivalent solution otherwise.  *budget* (or the options'
        deadline/fact caps) bounds the request; exhaustion raises
        :class:`~repro.budget.BudgetExceeded` carrying the partial
        facts — use :class:`repro.service.ExchangeService` to degrade
        to a :class:`~repro.service.PartialSolution` instead.

        With ``options.provenance`` on, the result is a
        :class:`~repro.provenance.Solution` (an Instance plus its
        lineage) whose :meth:`~repro.provenance.Solution.explain`
        yields per-fact why-trees.
        """
        store = resolve_provenance(self.options.provenance)
        hit, keep = through_cache(
            self.cache, self.fingerprint, source, self.backend, store.enabled
        )
        outcome = hit or keep(
            execute(
                self.mapping,
                source,
                self.options,
                budget if budget is not None else self.options.budget(),
                provenance=ProvenanceLog() if store.enabled else None,
                backend=self.backend,
                degrade=False,
            )
        )
        if outcome.statistics is not None:
            # Each unit emits one fact per firing of its tgd: the observed
            # cardinalities plan.explain(verbose=True) reports.
            registry = get_registry()
            for index, units in enumerate(self._units_by_tgd):
                firings = outcome.statistics.firings_by_tgd.get(index, 0)
                for unit in units:
                    registry.gauge(f"observed.unit.{unit.tgd_id}").set(firings)
        if outcome.provenance is None:
            return outcome.solution
        return Solution(outcome.solution, store.absorb(outcome.provenance), source)

    def exchange_many(self, sources) -> list[Instance | Solution]:
        """Exchange a stream of sources, sharing the cache and backend."""
        return [self.exchange(source) for source in sources]

    def put_back(self, view: Instance, source: Instance) -> Instance:
        """Propagate target edits (of ``exchange`` or ``lens.get``) back.

        ``put`` diffs :meth:`skolemize`'s translation of *view* against
        ``lens.get``.  With target dependencies it diffs against the
        translated solution instead: the egds of the chase and of
        ``lens.get`` may keep different nulls of a merged pair, and
        target tgds number theirs differently.
        """
        base = None
        if self.mapping.target_dependencies and _has_labelled_nulls(view):
            solution = self.exchange(source)
            base = self.skolemize(getattr(solution, "instance", solution), source)
        return self.lens.put(self.skolemize(view, source), source, base)

    def skolemize(self, view: Instance, source: Instance) -> Instance:
        """*view*, an edit of ``exchange(source)``, as an edit of ``lens.get(source)``.

        Each null the chase of *source* minted becomes the Skolem value
        ``lens.get`` writes for the firing that minted it:
        ``sk_<unit>_<var>(frontier values)``.  The map follows firings,
        recomputed from *source* by
        :func:`~repro.mapping.chase.st_tgd_phase` so that a view edited
        in another process translates the same way; a homomorphism
        search could send two tgds' nulls in one relation to one Skolem
        value.  A fact deleted from the solution deletes its Skolem fact
        even when other firings share it.  Other nulls pass through.
        """
        if not _has_labelled_nulls(view):
            return view
        with get_tracer().span("skolemize", view_facts=view.size()):
            solution, minted = st_tgd_phase(self.mapping, source)
            substitution: dict[Value, Value] = {}
            for label, (tgd_index, variable, binding) in minted.items():
                for unit in self._units_by_tgd[tgd_index]:
                    if variable in unit.existentials:
                        args = tuple(map(binding.__getitem__, unit.frontier))
                        substitution[LabeledNull(label)] = unit.skolem(variable, args)
            dropped = Instance(view.schema, _missing(solution, view))
            dropped = dropped.map_values(substitution).facts()
            return view.map_values(substitution).without_facts(dropped)

    @cached_property
    def _units_by_tgd(self) -> list[list[CompiledTgd]]:
        """Each of the mapping's tgds' compiled units: its normalized parts."""
        units = iter(self.lens.units)
        return [[next(units) for _ in tgd.normalize()] for tgd in self.mapping.tgds]

    def show_plan(self) -> str:
        """The plan, rendered the way a database EXPLAIN would be."""
        return self.plan.show()

    def explain(self, verbose: bool = False) -> str:
        """The plan; with ``verbose``, observed-vs-estimated cardinalities."""
        return self.plan.explain(verbose=verbose)

    def policy_questions(self):
        """Open user gestures of the compiled plan."""
        return self.plan.policy_questions()

    def symmetric_session(self) -> SpanLens[Instance, Instance, Instance]:
        """A symmetric lens for master-less synchronization sessions."""
        return self.lens.symmetric()
