"""Gathered statistics for mapping-plan optimization (paper, Section 4).

"The relational algebra expression is translated to a query plan by
associating algorithms with operators, and by applying optimization
routines.  This process is highly informed by gathered statistics" — and
the paper transplants the same workflow to mapping plans.  This module
gathers the statistics: per-relation cardinalities, per-column distinct
counts, and the derived selectivity and join-size estimates the planner
consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..relational.instance import Instance
from ..relational.schema import Schema


@dataclass(frozen=True)
class RelationStatistics:
    """Statistics of one relation: row count and per-column distinct counts."""

    relation: str
    cardinality: int
    distinct: Mapping[str, int] = field(default_factory=dict)

    def distinct_of(self, column: str) -> int:
        """Distinct count of a column (defaults to the cardinality)."""
        return self.distinct.get(column, max(self.cardinality, 1))

    def equality_selectivity(self, column: str) -> float:
        """Estimated fraction of rows matching ``column = constant``."""
        if self.cardinality == 0:
            return 0.0
        return 1.0 / max(self.distinct_of(column), 1)

    def __repr__(self) -> str:
        return f"stats({self.relation}: |R|={self.cardinality})"


@dataclass(frozen=True)
class Statistics:
    """Statistics for a whole instance, keyed by relation name."""

    relations: Mapping[str, RelationStatistics] = field(default_factory=dict)

    @classmethod
    def gather(cls, instance: Instance) -> "Statistics":
        """Scan *instance* and collect cardinalities and distinct counts."""
        out: dict[str, RelationStatistics] = {}
        for rel in instance.schema:
            rows = instance.rows(rel.name)
            distinct = {
                attr.name: len({row[i] for row in rows})
                for i, attr in enumerate(rel.attributes)
            }
            out[rel.name] = RelationStatistics(rel.name, len(rows), distinct)
        return cls(out)

    @classmethod
    def of_store(cls, store) -> "Statistics":
        """:meth:`gather`'s statistics read off a column store's id arrays.

        A column's distinct count is the number of distinct ids in it
        (one id per value), so no value row is built.
        """
        out: dict[str, RelationStatistics] = {}
        for rel in store.schema:
            distinct = {
                attr.name: len(set(column))
                for attr, column in zip(rel.attributes, store.columns[rel.name])
            }
            out[rel.name] = RelationStatistics(
                rel.name, store.counts[rel.name], distinct
            )
        return cls(out)

    @classmethod
    def assumed(cls, schema: Schema, default_cardinality: int = 1000) -> "Statistics":
        """Uniform assumptions when no instance is available at plan time."""
        return cls(
            {
                rel.name: RelationStatistics(
                    rel.name,
                    default_cardinality,
                    {a.name: max(default_cardinality // 10, 1) for a in rel.attributes},
                )
                for rel in schema
            }
        )

    def cardinality(self, relation: str) -> int:
        stats = self.relations.get(relation)
        return stats.cardinality if stats else 0

    def for_relation(self, relation: str) -> RelationStatistics:
        return self.relations.get(relation, RelationStatistics(relation, 0))

    def estimate_join_size(
        self,
        left_relation: str,
        right_relation: str,
        left_columns: tuple[str, ...],
        right_columns: tuple[str, ...],
    ) -> float:
        """Classic System-R estimate: |L||R| / max distinct of the join keys."""
        left = self.for_relation(left_relation)
        right = self.for_relation(right_relation)
        size = float(left.cardinality * right.cardinality)
        for lcol, rcol in zip(left_columns, right_columns):
            size /= max(left.distinct_of(lcol), right.distinct_of(rcol), 1)
        return size

    def estimate_bindings(self, premise, schema: Schema | None = None) -> float:
        """System-R-style estimate of a premise conjunction's binding count.

        Joins left to right: the first atom contributes its cardinality;
        each later atom multiplies by its cardinality divided by the
        distinct count of every column joining an already-bound variable.
        Constants in atom positions contribute their equality selectivity.
        *schema* supplies attribute names for the distinct lookups; without
        it, positional ``c{i}`` names fall back to full cardinalities.

        The estimate drives `repro optimize`'s chase-cost model — relative
        ordering is what matters, not absolute accuracy.
        """
        from ..logic.terms import Const, Var

        size = 1.0
        bound: set = set()
        for atom in premise.atoms():
            stats = self.for_relation(atom.relation)
            contribution = float(max(stats.cardinality, 0))
            rel_schema = (
                schema[atom.relation]
                if schema is not None and atom.relation in schema
                else None
            )
            for i, term in enumerate(atom.terms):
                column = (
                    rel_schema.attributes[i].name
                    if rel_schema is not None and i < len(rel_schema.attributes)
                    else f"c{i}"
                )
                if isinstance(term, Const):
                    contribution *= stats.equality_selectivity(column)
                elif isinstance(term, Var) and term in bound:
                    contribution /= max(stats.distinct_of(column), 1)
            for term in atom.terms:
                if isinstance(term, Var):
                    bound.add(term)
            size *= contribution
        return size

    def merge(self, other: "Statistics") -> "Statistics":
        merged = dict(self.relations)
        merged.update(other.relations)
        return Statistics(merged)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}:{stats.cardinality}" for name, stats in self.relations.items()
        )
        return f"Statistics({parts})"
