"""Replay verification: re-fire every recorded derivation and check it.

The soundness contract of the provenance subsystem: for every fact of a
universal solution, grounding the recorded rule under the recorded
binding must (a) reproduce exactly the recorded justifying facts, which
must themselves be justified (source facts for st-tgd firings, earlier
derived facts for target-dependency firings), and (b) re-derive the
fact — up to the egd rewrite history the log also records.  The
property holds across every executor seam (in-process chase, cache
hit, budget-interrupted resume); the suite's replay
property tests drive each one through this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..logic.evaluation import ground_atoms
from ..logic.terms import Var
from ..mapping.dependencies import Egd
from ..mapping.sttgd import SchemaMapping
from ..relational.instance import Fact, Instance
from .model import fact_in, format_fact
from .store import ProvenanceLog

__all__ = ["ReplayIssue", "ReplayReport", "replay"]


@dataclass(frozen=True)
class ReplayIssue:
    """One fact (or rewrite) whose recorded justification failed to replay."""

    fact: Fact | None
    rule_id: str | None
    reason: str

    def __repr__(self) -> str:
        subject = format_fact(self.fact) if self.fact is not None else "<rewrite>"
        return f"ReplayIssue({subject} via {self.rule_id}: {self.reason})"


@dataclass
class ReplayReport:
    """What the replay verifier found over one solution + log."""

    checked: int = 0
    verified: int = 0
    rewrites_checked: int = 0
    issues: list[ReplayIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def render(self) -> str:
        lines = [
            f"Replay: {self.verified}/{self.checked} facts verified, "
            f"{self.rewrites_checked} rewrites checked, "
            f"{len(self.issues)} issue{'s' if len(self.issues) != 1 else ''}"
        ]
        for issue in self.issues:
            lines.append(f"  ✗ {issue!r}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"{len(self.issues)} issues"
        return f"ReplayReport({self.verified}/{self.checked} verified, {status})"


def _named_to_binding(named) -> dict[Var, object]:
    return {Var(name): value for name, value in named}


def replay(
    solution: Instance,
    provenance: ProvenanceLog,
    mapping: SchemaMapping,
    source: Instance | None = None,
) -> ReplayReport:
    """Verify every solution fact against its recorded derivation.

    *solution* may be an :class:`~repro.provenance.solution.Solution`
    (its wrapped instance is used).  With *source* given, st-tgd premise
    facts are additionally checked to be real input facts.
    """
    instance = getattr(solution, "instance", solution)
    # St-tgd firings are recorded with the rule's own text, so a log
    # replays against the mapping it came from, whatever process wrote it.
    st_rules = {tgd.to_text(): tgd for tgd in mapping.tgds}
    dependencies: Sequence = tuple(mapping.target_dependencies)
    dependency_rules = {f"dep_{i}": dep for i, dep in enumerate(dependencies)}
    report = ReplayReport()
    for fact in instance.facts():
        report.checked += 1
        derivations = provenance.derivations_for(fact)
        if not derivations:
            report.issues.append(
                ReplayIssue(fact, None, "no recorded derivation")
            )
            continue
        issue = _verify_derivation(
            fact, derivations[0], st_rules, dependency_rules, dependencies,
            provenance, source,
        )
        if issue is None:
            report.verified += 1
        else:
            report.issues.append(issue)
    for rewrite in provenance.rewrites:
        report.rewrites_checked += 1
        issue = _verify_rewrite(rewrite, dependency_rules, dependencies)
        if issue is not None:
            report.issues.append(issue)
    return report


def _resolve_rule(derivation, st_rules, dependency_rules, dependencies):
    if derivation.phase == "st_tgds":
        return st_rules.get(derivation.rule_text)
    rule = dependency_rules.get(derivation.rule_id)
    if rule is not None and repr(rule) == derivation.rule_text:
        return rule
    for dep in dependencies:
        if repr(dep) == derivation.rule_text:
            return dep
    return None


def _verify_derivation(
    fact, derivation, st_rules, dependency_rules, dependencies, provenance, source
):
    rule = _resolve_rule(derivation, st_rules, dependency_rules, dependencies)
    if rule is None:
        return ReplayIssue(
            fact, derivation.rule_id, "recorded rule is not a rule of the mapping"
        )
    binding = _named_to_binding(derivation.binding)
    # (a) The recorded binding grounds the premise to exactly the
    #     recorded justifying facts.
    try:
        grounded_premise = {
            Fact(relation, row)
            for relation, row in ground_atoms(rule.premise.atoms(), binding)
        }
    except (KeyError, ValueError):
        return ReplayIssue(
            fact, derivation.rule_id, "recorded binding does not cover the premise"
        )
    if grounded_premise != set(derivation.premise):
        return ReplayIssue(
            fact,
            derivation.rule_id,
            "re-grounding the premise does not reproduce the recorded "
            "justifying facts",
        )
    # (b) The justifying facts are themselves justified.
    if derivation.phase == "st_tgds":
        if source is not None:
            for premise_fact in derivation.premise:
                if not fact_in(source, premise_fact):
                    return ReplayIssue(
                        fact,
                        derivation.rule_id,
                        f"justifying fact {format_fact(premise_fact)} is not "
                        "a source fact",
                    )
    else:
        substitution = provenance.substitution_after(derivation.step)
        for premise_fact in derivation.premise:
            current = Fact(
                premise_fact.relation,
                tuple(substitution.get(v, v) for v in premise_fact.row),
            )
            if not provenance.derivations_for(current):
                return ReplayIssue(
                    fact,
                    derivation.rule_id,
                    f"justifying fact {format_fact(premise_fact)} has no "
                    "derivation of its own",
                )
    # (c) Re-firing the rule under the full (universal + existential)
    #     binding re-derives the recorded fact …
    full_binding = _named_to_binding(derivation.binding)
    full_binding.update(_named_to_binding(derivation.existentials))
    try:
        derived = {
            Fact(relation, row)
            for relation, row in ground_atoms(rule.conclusion.atoms(), full_binding)
        }
    except (KeyError, ValueError):
        return ReplayIssue(
            fact,
            derivation.rule_id,
            "recorded binding does not cover the conclusion",
        )
    if derivation.fact not in derived:
        return ReplayIssue(
            fact,
            derivation.rule_id,
            "re-firing the rule does not re-derive the recorded fact",
        )
    # (d) … and the rewrite history carries it to the solution fact.
    if provenance.current_fact(derivation) != fact:
        return ReplayIssue(
            fact,
            derivation.rule_id,
            "the rewrite history does not carry the recorded fact to the "
            "solution fact",
        )
    return None


def _verify_rewrite(rewrite, dependency_rules, dependencies):
    rule = dependency_rules.get(rewrite.rule_id)
    if rule is None or repr(rule) != rewrite.rule_text:
        rule = next(
            (dep for dep in dependencies if repr(dep) == rewrite.rule_text), None
        )
    if not isinstance(rule, Egd):
        return ReplayIssue(
            None, rewrite.rule_id, "recorded rewrite rule is not an egd of the mapping"
        )
    binding = _named_to_binding(rewrite.binding)
    try:
        grounded = {
            Fact(relation, row)
            for relation, row in ground_atoms(rule.premise.atoms(), binding)
        }
    except (KeyError, ValueError):
        return ReplayIssue(
            None, rewrite.rule_id, "recorded binding does not cover the egd premise"
        )
    if grounded != set(rewrite.premise):
        return ReplayIssue(
            None,
            rewrite.rule_id,
            "re-grounding the egd premise does not reproduce the recorded facts",
        )
    equated = {binding.get(rule.left), binding.get(rule.right)}
    if equated != {rewrite.old, rewrite.new}:
        return ReplayIssue(
            None,
            rewrite.rule_id,
            "the egd does not equate the recorded old/new values",
        )
    return None
