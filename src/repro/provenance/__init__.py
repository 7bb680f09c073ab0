"""Fact-level provenance for the exchange engine.

Every path that creates or rewrites target facts — the chase, the
exchange core, the solution cache and the budgeted service — threads
a :class:`ProvenanceStore` through its firing sites.  With provenance
enabled the store is a :class:`ProvenanceLog` whose records justify
every solution fact (``repro explain`` / :meth:`Solution.explain`);
disabled, it is the shared :data:`NOOP` singleton costing one
attribute check per firing.

:func:`replay` is the soundness check: re-fire every recorded rule on
its recorded justifying facts and verify the fact comes back.
"""

# Import order matters: model → store → solution are dependency-ordered,
# and replay reaches back into repro.mapping (safe because mapping loads
# sttgd/dependencies before the chase imports this package).
from .model import (
    Derivation,
    NamedValues,
    Rewrite,
    WhyNode,
    fact_from_json,
    fact_in,
    fact_to_json,
    format_fact,
    named_values,
)
from .store import NOOP, ProvenanceLog, ProvenanceStore, resolve_provenance
from .solution import Solution
from .replay import ReplayIssue, ReplayReport, replay

__all__ = [
    "Derivation",
    "NOOP",
    "NamedValues",
    "ProvenanceLog",
    "ProvenanceStore",
    "ReplayIssue",
    "ReplayReport",
    "Rewrite",
    "Solution",
    "WhyNode",
    "fact_from_json",
    "fact_in",
    "fact_to_json",
    "format_fact",
    "named_values",
    "replay",
    "resolve_provenance",
]
