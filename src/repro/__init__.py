"""repro — bidirectional data exchange: schema mappings meet lenses.

A full implementation of the system envisioned by Johnson, Pérez and
Terwilliger, *What Can Programming Languages Say About Data Exchange?*
(EDBT 2014): the st-tgd data-exchange stack (chase, universal solutions,
composition, inversion), the lens stack (asymmetric, quotient, edit,
symmetric, relational), and the Section-4 synthesis — an st-tgd →
relational-lens compiler with policy hints, statistics-informed mapping
plans, a SQL-style "show plan", and symmetric exchange sessions.

Quick start::

    from repro import (
        schema, relation, instance,
        SchemaMapping, ExchangeEngine,
    )

    S = schema(relation("Emp", "name"))
    T = schema(relation("Manager", "emp", "mgr"))
    M = SchemaMapping.parse(S, T, "Emp(x) -> exists y . Manager(x, y)")
    engine = ExchangeEngine.compile(M)
    source = instance(S, {"Emp": [["Alice"], ["Bob"]]})
    target = engine.exchange(source)  # Manager(Alice, ⊥0), Manager(Bob, ⊥1)
    assert engine.put_back(target, source) == source  # GetPut

See README.md for the architecture tour and DESIGN.md for the
paper-to-module inventory.
"""

from .relational import (
    Attribute,
    AttributeType,
    Constant,
    Fact,
    FunctionalDependency,
    Instance,
    InstanceBuilder,
    KeyConstraint,
    LabeledNull,
    RelationSchema,
    Schema,
    SkolemValue,
    constant,
    core,
    empty_instance,
    find_homomorphism,
    homomorphically_equivalent,
    instance,
    is_homomorphic,
    relation,
    schema,
)
from .mapping import (
    SchemaMapping,
    SOMapping,
    StTgd,
    VisualMapping,
    certain_answers,
    chase,
    compose,
    compose_sotgd,
    compose_with_constraints,
    core_universal_solution,
    equivalent,
    evolve_source,
    is_contained_in,
    is_recovery,
    maximum_recovery,
    prune_redundant,
    recovered_sources,
    redundant_tgds,
    subset_property_violations,
    universal_solution,
)
from .optimize import (
    EvolutionDecision,
    RewritePlan,
    choose_evolution_strategy,
    optimize_mapping,
    optimize_pipeline,
)
from .lenses import (
    Lens,
    SymmetricLens,
    check_symmetric_laws,
    check_well_behaved,
    span,
    to_span,
)
from .rlens import (
    ConstantPolicy,
    EnvironmentPolicy,
    FdPolicy,
    JoinLens,
    NullPolicy,
    ProjectLens,
    ProjectionTemplate,
    RelationalLens,
    SelectLens,
    UnionLens,
    symmetrize,
)
from .compiler import (
    ExchangeEngine,
    ExchangeLens,
    Hints,
    MappingPlan,
    check_completeness,
)
from .analysis import (
    AnalysisBundle,
    AnalysisReport,
    Diagnostic,
    Severity,
    TemplateCheck,
    analyze,
    analyze_mapping,
    composition_obstructions,
)
from .obs import (
    MetricsRegistry,
    Tracer,
    render_metrics,
    render_trace,
    tracing,
)
from .provenance import (
    ProvenanceLog,
    ProvenanceStore,
    ReplayReport,
    Solution,
    WhyNode,
    replay,
)
from .budget import Budget, BudgetExceeded
from .options import ExchangeOptions, RetryPolicy
from .service import (
    CircuitBreaker,
    ExchangeRequest,
    ExchangeResponse,
    ExchangeService,
    FaultPlan,
    PartialSolution,
    ResumptionToken,
    ServiceOverloaded,
    StreamingSolution,
    TenantQuota,
    fault_injection,
)
from .stats import Statistics
from .workloads import Scenario, all_scenarios

__version__ = "1.0.0"

__all__ = [
    "AnalysisBundle",
    "AnalysisReport",
    "Attribute",
    "AttributeType",
    "Budget",
    "BudgetExceeded",
    "CircuitBreaker",
    "Constant",
    "ConstantPolicy",
    "Diagnostic",
    "EnvironmentPolicy",
    "EvolutionDecision",
    "ExchangeEngine",
    "ExchangeLens",
    "ExchangeOptions",
    "ExchangeRequest",
    "ExchangeResponse",
    "ExchangeService",
    "Fact",
    "FaultPlan",
    "FdPolicy",
    "FunctionalDependency",
    "Hints",
    "Instance",
    "InstanceBuilder",
    "JoinLens",
    "KeyConstraint",
    "LabeledNull",
    "Lens",
    "MappingPlan",
    "MetricsRegistry",
    "Tracer",
    "NullPolicy",
    "PartialSolution",
    "ProjectLens",
    "ProjectionTemplate",
    "ProvenanceLog",
    "ProvenanceStore",
    "RelationSchema",
    "RelationalLens",
    "ReplayReport",
    "ResumptionToken",
    "RetryPolicy",
    "RewritePlan",
    "SOMapping",
    "Scenario",
    "Schema",
    "SchemaMapping",
    "SelectLens",
    "ServiceOverloaded",
    "Severity",
    "SkolemValue",
    "Solution",
    "StTgd",
    "Statistics",
    "StreamingSolution",
    "SymmetricLens",
    "TenantQuota",
    "TemplateCheck",
    "UnionLens",
    "VisualMapping",
    "WhyNode",
    "all_scenarios",
    "analyze",
    "analyze_mapping",
    "certain_answers",
    "chase",
    "check_completeness",
    "check_symmetric_laws",
    "check_well_behaved",
    "choose_evolution_strategy",
    "compose",
    "compose_sotgd",
    "compose_with_constraints",
    "composition_obstructions",
    "constant",
    "core",
    "core_universal_solution",
    "empty_instance",
    "equivalent",
    "evolve_source",
    "fault_injection",
    "find_homomorphism",
    "homomorphically_equivalent",
    "instance",
    "is_contained_in",
    "is_homomorphic",
    "is_recovery",
    "maximum_recovery",
    "optimize_mapping",
    "optimize_pipeline",
    "prune_redundant",
    "recovered_sources",
    "redundant_tgds",
    "relation",
    "render_metrics",
    "render_trace",
    "replay",
    "schema",
    "span",
    "subset_property_violations",
    "symmetrize",
    "to_span",
    "tracing",
    "universal_solution",
    "__version__",
]
