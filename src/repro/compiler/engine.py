"""The bidirectional exchange engine: compiled mappings as lenses.

:class:`ExchangeLens` assembles the per-tgd units of a
:class:`~repro.compiler.plan.MappingPlan` into one relational lens from
the whole source schema to the whole target schema:

* ``get`` unions the units' forward facts — a pure, deterministic
  function agreeing with the chase up to homomorphic equivalence
  (certified by :mod:`repro.compiler.completeness`);
* ``put`` diffs the new view against ``get(source)``, retracting the
  support of deleted facts (per deletion hints) and justifying inserted
  facts via the routed unit's policies.

Laws: GetPut holds exactly; PutGet holds modulo homomorphic equivalence
(the quotient the existential positions force — see
:mod:`repro.compiler.tgd_compiler`); both are checked in the suite.

:class:`ExchangeEngine` is the user-facing façade of the paper's §4
workflow: mapping in, plan + show-plan + questions out, then bidirectional
``exchange`` / ``put_back`` / symmetric sessions.
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
from ..mapping.sttgd import SchemaMapping
from ..obs import get_registry, get_tracer
from ..options import ExchangeOptions
from ..provenance import (
    NOOP,
    ProvenanceLog,
    ProvenanceStore,
    Solution,
    resolve_provenance,
)
from ..relational.instance import Fact, Instance
from ..relational.schema import Schema
from ..rlens.base import RelationalLens, ViewViolationError
from ..stats import Statistics
from .hints import Hints
from .plan import MappingPlan
from .planner import Planner, PlannerConfig
from .tgd_compiler import CompiledTgd


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

    def get(
        self, source: Instance, provenance: ProvenanceStore = NOOP
    ) -> Instance:
        self.check_source(source)
        tracer = get_tracer()
        registry = get_registry()
        with tracer.span(
            "lens.get", units=len(self._units), source_facts=source.size()
        ) as span:
            facts: set[Fact] = set()
            for unit in self._units:
                with tracer.span("unit.forward", tgd=unit.tgd_id) as unit_span:
                    produced = unit.forward_facts(source, provenance)
                    unit_span.set(facts=len(produced))
                # Observed per-unit cardinality: the ground truth that
                # plan.explain(verbose=True) pits against the estimates.
                registry.gauge(f"observed.unit.{unit.tgd_id}").set(len(produced))
                facts |= produced
            target = Instance(self._target_schema, facts)
            if self._target_dependencies:
                from ..mapping.chase import chase_target_dependencies

                # The options thread the step cap and (when budgeted) a
                # fresh per-call deadline/fact budget into the chase.
                target = chase_target_dependencies(
                    target,
                    self._target_dependencies,
                    options=self._options,
                    provenance=provenance,
                )
            span.set(target_facts=target.size())
            registry.increment("lens.get.calls")
            registry.observe("lens.get.seconds", span.duration)
        return target

    # -- put -----------------------------------------------------------------

    def put(self, view: Instance, source: Instance) -> Instance:
        self.check_view(view)
        self.check_source(source)
        tracer = get_tracer()
        registry = get_registry()
        with tracer.span("lens.put", view_facts=view.size()) as span:
            with tracer.span("lens.put.diff"):
                old_view = self.get(source)
                removed = sorted(set(old_view.facts()) - set(view.facts()), key=repr)
                added = sorted(set(view.facts()) - set(old_view.facts()), key=repr)

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
    >>> target = engine.exchange(source)   # forward exchange (get)
    >>> source2 = engine.put_back(edited_target, source)  # backward (put)
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
        is unaffected.  The pre-ExchangeOptions ``workers=``/``cache=``
        keywords were removed — passing them is a ``TypeError`` (see
        README "Migrating to ExchangeOptions").
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
    def runs_core(self) -> bool:
        """Whether :meth:`exchange` runs the exchange core, not ``lens.get``.

        True when a ready backend, a cache or ``workers`` is configured.
        """
        return (
            self.backend is not None
            or self.cache is not None
            or self.options.workers is not None
        )

    @property
    def executor(self) -> None:
        """Always ``None``: no executor object exists any more.

        The solution cache is :attr:`cache` and the worker pool belongs
        to the HTTP server; callers probing for the old executor fall
        back to their own pool.
        """
        return None

    def exchange(
        self, source: Instance, budget: Budget | None = None
    ) -> Instance | Solution:
        """Forward data exchange: materialize the target instance.

        With a backend, cache or ``workers`` configured (:attr:`runs_core`)
        the request runs through the exchange core
        (:func:`repro.exec.core.execute`): a SQL backend
        (``options.backend="sqlite"``/``"duckdb"``, compilable mappings)
        returns the core universal solution for laconic mappings and a
        homomorphically equivalent one otherwise; the chase returns its
        canonical solution (labelled nulls), which agrees with the lens
        view (Skolem values) up to homomorphic equivalence; ``cache``
        answers repeated sources.  Otherwise it is exactly ``lens.get``.
        *budget* (or the options' deadline/fact caps) bounds the request;
        exhaustion raises :class:`~repro.budget.BudgetExceeded` — use
        :class:`repro.service.ExchangeService` to degrade to a
        :class:`~repro.service.PartialSolution` instead.

        With ``options.provenance`` on, the result is a
        :class:`~repro.provenance.Solution` (an Instance plus its
        lineage) whose :meth:`~repro.provenance.Solution.explain`
        yields per-fact why-trees.
        """
        store = resolve_provenance(self.options.provenance)
        if not self.runs_core:
            solution = self.lens.get(source, store)
            return Solution(solution, store, source) if store.enabled else solution
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
        if outcome.provenance is None:
            return outcome.solution
        return Solution(outcome.solution, store.absorb(outcome.provenance), source)

    def exchange_many(self, sources) -> list[Instance | Solution]:
        """Exchange a stream of sources, sharing the cache and backend."""
        return [self.exchange(source) for source in sources]

    def put_back(self, view: Instance, source: Instance) -> Instance:
        """Propagate target edits back into the source."""
        return self.lens.put(view, source)

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
