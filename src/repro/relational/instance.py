"""Database instances: immutable sets of facts over a schema.

An :class:`Instance` maps each relation name to a frozenset of tuples of
:mod:`repro.relational.values` values.  Instances are *set-semantics* (no
duplicates) as in the data-exchange literature, immutable, and hashable, so
they can serve as lens states and be compared structurally.

Use :class:`InstanceBuilder` to accumulate facts, or the :func:`instance`
shorthand for literals in tests and examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Mapping

from ..obs import get_tracer
from .schema import Schema
from .values import (
    Constant,
    LabeledNull,
    SkolemValue,
    Value,
    constant,
    is_constant,
    is_null,
)

Row = tuple[Value, ...]


@dataclass(frozen=True, slots=True)
class Fact:
    """A single fact ``R(v₁, …, vₙ)``: a relation name plus a row."""

    relation: str
    row: Row

    def __repr__(self) -> str:
        vals = ", ".join(repr(v) for v in self.row)
        return f"{self.relation}({vals})"

    @property
    def arity(self) -> int:
        return len(self.row)

    def is_ground(self) -> bool:
        """Whether the fact contains no labelled nulls or Skolem values."""
        return all(is_constant(v) for v in self.row)


def _coerce_row(raw: Iterable[object]) -> Row:
    """Coerce an iterable of raw scalars / values into a row of Values."""
    out: list[Value] = []
    for item in raw:
        if isinstance(item, (Constant, LabeledNull, SkolemValue)):
            out.append(item)
        else:
            out.append(constant(item))
    return tuple(out)


class Instance:
    """An immutable database instance over a :class:`Schema`.

    Rows are validated against the schema at construction: every fact's
    relation must exist, match the declared arity, and carry well-typed
    constants.  Empty relations are materialized so iteration is total over
    the schema.
    """

    __slots__ = (
        "_schema",
        "_rels",
        "_hash",
        "_indexes",
        "_index_skips",
        "_fingerprint",
        "_columnar",
    )

    def __init__(
        self,
        schema: Schema,
        facts: Mapping[str, Iterable[Row]] | Iterable[Fact] = (),
    ) -> None:
        relations: dict[str, set[Row]] = {name: set() for name in schema.relation_names}
        if isinstance(facts, Mapping):
            items: Iterable[tuple[str, Row]] = (
                (name, row) for name, rows in facts.items() for row in rows
            )
        else:
            items = ((f.relation, f.row) for f in facts)
        for name, row in items:
            if name not in schema:
                raise KeyError(f"fact over unknown relation {name!r}")
            rel_schema = schema[name]
            if len(row) != rel_schema.arity:
                raise ValueError(
                    f"arity mismatch for {name!r}: expected {rel_schema.arity}, "
                    f"got row of length {len(row)}"
                )
            row = _coerce_row(row)
            for attr, value in zip(rel_schema.attributes, row):
                if is_constant(value) and not attr.type.accepts(value.value):
                    raise TypeError(
                        f"value {value!r} is not of type {attr.type.value} "
                        f"for {name}.{attr.name}"
                    )
            relations[name].add(row)
        self._schema = schema
        self._rels: dict[str, frozenset[Row]] | None = {
            name: frozenset(rows) for name, rows in relations.items()
        }
        self._hash: int | None = None
        self._indexes: dict[tuple[str, tuple[int, ...]], dict[tuple, list[Row]]] = {}
        self._index_skips: dict[tuple[str, tuple[int, ...]], int] = {}
        self._fingerprint: str | None = None
        self._columnar = None

    @classmethod
    def _unsafe(
        cls, schema: Schema, relations: dict[str, frozenset[Row]]
    ) -> "Instance":
        """Internal fast constructor: rows are trusted to be validated.

        Only for derived instances whose rows come from an already
        validated instance over the *same* relation schemas (with_facts,
        without_facts, map_values, restrict).  External callers must use
        ``__init__``.
        """
        self = object.__new__(cls)
        self._schema = schema
        self._rels = relations
        self._hash = None
        self._indexes = {}
        self._index_skips = {}
        self._fingerprint = None
        self._columnar = None
        return self

    @classmethod
    def _from_store(cls, schema: Schema, store) -> "Instance":
        """Internal columnar constructor: rows live in *store* until read.

        The instance's value-tuple relations are a *view*: the id
        vectors in the attached
        :class:`~repro.relational.columnar.ColumnStore` are the data,
        and ``_relations`` materializes from them on first access.  The
        id-space chase builds its solutions this way, so callers that
        only fingerprint, re-ship, or feed the solution to a
        columnar-aware consumer never pay for the tuple view.
        """
        self = object.__new__(cls)
        self._schema = schema
        self._rels = None
        self._hash = None
        self._indexes = {}
        self._index_skips = {}
        self._fingerprint = None
        self._columnar = store
        return self

    @property
    def _relations(self) -> dict[str, frozenset[Row]]:
        rels = self._rels
        if rels is None:
            rels = self._columnar.materialize_relations()
            self._rels = rels
        return rels

    def _validated_row(self, name: str, row: Row) -> Row:
        if name not in self._schema:
            raise KeyError(f"fact over unknown relation {name!r}")
        rel_schema = self._schema[name]
        if len(row) != rel_schema.arity:
            raise ValueError(
                f"arity mismatch for {name!r}: expected {rel_schema.arity}, "
                f"got row of length {len(row)}"
            )
        row = _coerce_row(row)
        for attr, value in zip(rel_schema.attributes, row):
            if is_constant(value) and not attr.type.accepts(value.value):
                raise TypeError(
                    f"value {value!r} is not of type {attr.type.value} "
                    f"for {name}.{attr.name}"
                )
        return row

    # -- structure ---------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    def rows(self, relation_name: str) -> frozenset[Row]:
        """All rows of the named relation (empty frozenset if none)."""
        try:
            return self._relations[relation_name]
        except KeyError:
            raise KeyError(f"instance has no relation {relation_name!r}") from None

    # -- hash indexes ------------------------------------------------------

    def index(
        self, relation_name: str, columns: tuple[int, ...]
    ) -> Mapping[tuple, list[Row]]:
        """A hash index of the relation's rows keyed on *columns*.

        Maps each distinct tuple of values at the given column positions
        to the list of rows carrying those values.  Built lazily on first
        request and cached for the lifetime of the instance (instances
        are immutable, so a built index never goes stale); derived
        instances (:meth:`with_facts` and friends) inherit or extend
        indexes of unchanged relations instead of rebuilding them.

        Callers must not mutate the returned mapping or its row lists.
        """
        key = (relation_name, columns)
        idx = self._indexes.get(key)
        if idx is None:
            idx = {}
            for row in self.rows(relation_name):
                values = tuple(row[c] for c in columns)
                bucket = idx.get(values)
                if bucket is None:
                    idx[values] = [row]
                else:
                    bucket.append(row)
            self._indexes[key] = idx
        return idx

    def has_index(self, relation_name: str, columns: tuple[int, ...]) -> bool:
        """Whether the (relation, columns) index is already built."""
        return (relation_name, columns) in self._indexes

    def defer_single_probe(
        self, relation_name: str, columns: tuple[int, ...]
    ) -> bool:
        """Whether a one-off probe should scan instead of building an index.

        Returns ``True`` for the *first* single-probe request per
        ``(relation, columns)`` key on this instance — one scan is
        strictly cheaper than building the index (a full scan plus dict
        construction) for a single lookup.  Subsequent requests return
        ``False`` so repeated probes amortize into a build.  Skip counts
        are per-instance and deliberately not inherited by derived
        instances (their first probe is a fresh one-off).
        """
        key = (relation_name, columns)
        if key in self._indexes:
            return False
        seen = self._index_skips.get(key, 0)
        self._index_skips[key] = seen + 1
        return seen == 0

    def _inherit_indexes(
        self, child: "Instance", changed: set[str], added: Mapping[str, Iterable[Row]] = {}
    ) -> None:
        """Carry this instance's indexes over to a derived *child*.

        Indexes on relations outside *changed* are shared verbatim.  For
        relations in *added* (a subset of *changed* whose change is pure
        row addition), indexes are extended incrementally: only buckets
        receiving new rows are copied, so the parent's index stays valid.
        Other changed relations' indexes are dropped (rebuilt lazily).
        """
        for (relation, columns), idx in self._indexes.items():
            if relation not in changed:
                child._indexes[(relation, columns)] = idx
            elif relation in added:
                extended = dict(idx)
                for row in added[relation]:
                    values = tuple(row[c] for c in columns)
                    bucket = extended.get(values)
                    extended[values] = [row] if bucket is None else bucket + [row]
                child._indexes[(relation, columns)] = extended

    def facts(self) -> Iterator[Fact]:
        """Iterate over every fact, in deterministic (sorted) order."""
        for name in sorted(self._relations):
            for row in sorted(self._relations[name], key=repr):
                yield Fact(name, row)

    def relation_names(self) -> tuple[str, ...]:
        return self._schema.relation_names

    def size(self) -> int:
        """Total number of facts."""
        if self._rels is None:
            # Deduplicated columnar view: row counts without materializing
            # the tuple relations.
            return self._columnar.size()
        return sum(len(rows) for rows in self._relations.values())

    def is_empty(self) -> bool:
        return self.size() == 0

    def __contains__(self, fact: Fact) -> bool:
        rows = self._relations.get(fact.relation)
        return rows is not None and fact.row in rows

    def values(self) -> Iterator[Value]:
        """Every value occurring in the instance (with repetition)."""
        for rows in self._relations.values():
            for row in rows:
                yield from row

    def nulls(self) -> set[Value]:
        """The set of null-like values (labelled nulls, Skolem values)."""
        return {v for v in self.values() if is_null(v)}

    def constants(self) -> set[Constant]:
        """The set of constants occurring in the instance."""
        return {v for v in self.values() if is_constant(v)}

    def active_domain(self) -> set[Value]:
        """All distinct values occurring in the instance."""
        return set(self.values())

    def is_ground(self) -> bool:
        """Whether the instance contains no nulls."""
        return not self.nulls()

    # -- columnar view -----------------------------------------------------

    def columnar(self):
        """The canonical columnar view of this instance (built lazily).

        Returns a :class:`~repro.relational.columnar.ColumnStore`: per
        relation one integer id vector per column over a dense value
        table sorted by :func:`~repro.relational.values.value_sort_key`.
        Built on first request and memoized (instances are immutable);
        the store backs :meth:`fingerprint`, flat-buffer payload
        shipping and the id-space evaluation path.  Instances decoded by
        :func:`~repro.relational.columnar.unpack_instance` or
        :func:`~repro.relational.serialization.instance_from_json` arrive
        with a store already attached and skip the build entirely.  A build
        opens a ``columnar.build`` span (``source_facts``,
        ``table_size``).
        """
        store = self._columnar
        if store is None or not store.canonical:
            from .columnar import ColumnStore

            with get_tracer().span("columnar.build", source_facts=self.size()) as span:
                store = ColumnStore.build(self)
                span.set(table_size=store.table_size())
            self._columnar = store
        return store

    @property
    def columnar_store(self):
        """The attached column store, or ``None`` — never triggers a build.

        Hot paths (the id-space evaluator, the payload packers) use this
        to engage columnar machinery only when a store already exists,
        so purely interpreted workloads never pay for a build they would
        not amortize.
        """
        return self._columnar

    # -- algebraic construction -------------------------------------------

    def with_facts(self, facts: Iterable[Fact]) -> "Instance":
        """A new instance with *facts* added (new facts are validated)."""
        additions: dict[str, set[Row]] = {}
        for fact in facts:
            row = self._validated_row(fact.relation, fact.row)
            additions.setdefault(fact.relation, set()).add(row)
        if not additions:
            return self
        relations = dict(self._relations)
        genuinely_new: dict[str, set[Row]] = {}
        for name, rows in additions.items():
            fresh = rows - relations[name]
            if fresh:
                genuinely_new[name] = fresh
                relations[name] = relations[name] | fresh
        if not genuinely_new:
            return self
        child = Instance._unsafe(self._schema, relations)
        self._inherit_indexes(child, set(genuinely_new), genuinely_new)
        return child

    def without_facts(self, facts: Iterable[Fact]) -> "Instance":
        """A new instance with *facts* removed (missing facts are ignored)."""
        removals: dict[str, set[Row]] = {}
        for fact in facts:
            removals.setdefault(fact.relation, set()).add(_coerce_row(fact.row))
        relations = dict(self._relations)
        shrunk_relations: set[str] = set()
        for name, rows in removals.items():
            if name in relations:
                shrunk = relations[name] - rows
                if len(shrunk) != len(relations[name]):
                    relations[name] = shrunk
                    shrunk_relations.add(name)
        if not shrunk_relations:
            return self
        child = Instance._unsafe(self._schema, relations)
        self._inherit_indexes(child, shrunk_relations)
        return child

    def restrict(self, relation_names: Iterable[str]) -> "Instance":
        """The sub-instance over only the named relations (schema shrinks)."""
        names = set(relation_names)
        sub_schema = Schema(r for r in self._schema if r.name in names)
        child = Instance._unsafe(
            sub_schema,
            {name: self._relations[name] for name in sub_schema.relation_names},
        )
        for (relation, columns), idx in self._indexes.items():
            if relation in child._relations:
                child._indexes[(relation, columns)] = idx
        return child

    def cast(self, schema: Schema) -> "Instance":
        """Re-validate this instance's facts against a different schema.

        Useful when two schemas share relation shapes (e.g. after a mapping
        operator manufactured a merged schema).
        """
        return Instance(schema, {n: rows for n, rows in self._relations.items() if n in schema})

    def union(self, other: "Instance") -> "Instance":
        """Fact-wise union of two instances over compatible schemas."""
        merged_schema = self._schema.merge(other._schema)
        return Instance(merged_schema, list(self.facts()) + list(other.facts()))

    def map_values(self, mapping: Mapping[Value, Value]) -> "Instance":
        """Apply a value substitution to every fact (identity off *mapping*)."""
        if not mapping:
            return self
        relations = {
            name: frozenset(
                tuple(mapping.get(v, v) for v in row) for row in rows
            )
            for name, rows in self._relations.items()
        }
        return Instance._unsafe(self._schema, relations)

    # -- comparison --------------------------------------------------------

    def same_facts(self, other: "Instance") -> bool:
        """Fact-set equality, ignoring schema object identity."""
        names = set(self._relations) | set(other._relations)
        return all(
            self._relations.get(n, frozenset()) == other._relations.get(n, frozenset())
            for n in names
        )

    def contains_instance(self, other: "Instance") -> bool:
        """Whether every fact of *other* is a fact of ``self``."""
        return all(
            other._relations.get(n, frozenset()) <= self._relations.get(n, frozenset())
            for n in other._relations
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return self._schema == other._schema and self._relations == other._relations

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (self._schema, frozenset(self._relations.items()))
            )
        return self._hash

    def fingerprint(self) -> str:
        """A stable content hash of the instance (schema + facts).

        The fingerprint is the canonical column store's digest: a hex
        SHA-256 over the schema, the sorted value table (constants as
        type-tagged reprs — ``1`` vs ``1.0`` vs ``True`` vs ``'1'`` all
        differ — null labels as one packed int array, Skolem values as
        reprs) and every relation's raw id-column bytes.  Because the
        canonical store is a content normal form (value table sorted by
        ``value_sort_key``, rows sorted as id tuples), equal instances
        (same schema, same facts) always produce the same digest, and
        the digest is process-stable so it can key caches shared across
        runs.  Hashing the packed column buffers means the per-fact cost
        is a C-speed array copy instead of a ``repr`` walk: each
        *distinct* value stringifies once for the table, and rows hash as
        raw machine integers.  Computed lazily and memoized (instances
        are immutable).
        """
        if self._fingerprint is None:
            self._fingerprint = self.columnar().digest()
        return self._fingerprint

    def __repr__(self) -> str:
        parts = []
        for name in sorted(self._relations):
            rows = self._relations[name]
            if rows:
                shown = ", ".join(
                    f"{name}({', '.join(map(repr, row))})"
                    for row in sorted(rows, key=repr)
                )
                parts.append(shown)
        body = "; ".join(parts) if parts else "∅"
        return f"⟨{body}⟩"


class InstanceBuilder:
    """Mutable accumulator for building an :class:`Instance`.

    >>> b = InstanceBuilder(schema)
    >>> b.add("Emp", "Alice")
    >>> b.add("Emp", "Bob")
    >>> inst = b.build()
    """

    def __init__(self, schema: Schema, base: Instance | None = None) -> None:
        self._schema = schema
        self._facts: list[Fact] = list(base.facts()) if base is not None else []

    def add(self, relation_name: str, *values: object) -> "InstanceBuilder":
        """Add the fact ``relation_name(values…)``; raw scalars are wrapped."""
        self._facts.append(Fact(relation_name, _coerce_row(values)))
        return self

    def add_row(self, relation_name: str, row: Iterable[object]) -> "InstanceBuilder":
        """Add a fact from an iterable row."""
        self._facts.append(Fact(relation_name, _coerce_row(row)))
        return self

    def add_fact(self, fact: Fact) -> "InstanceBuilder":
        self._facts.append(fact)
        return self

    def extend(self, facts: Iterable[Fact]) -> "InstanceBuilder":
        self._facts.extend(facts)
        return self

    def build(self) -> Instance:
        return Instance(self._schema, self._facts)


def instance(
    schema: Schema, facts: Mapping[str, Iterable[Iterable[Hashable]]]
) -> Instance:
    """Literal instance constructor with raw scalars.

    >>> I = instance(s, {"Emp": [["Alice"], ["Bob"]]})
    """
    builder = InstanceBuilder(schema)
    for name, rows in facts.items():
        for row in rows:
            builder.add_row(name, row)
    return builder.build()


def empty_instance(schema: Schema) -> Instance:
    """The instance with no facts over *schema*."""
    return Instance(schema)
