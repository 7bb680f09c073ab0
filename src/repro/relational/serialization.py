"""(De)serialization of schemas and instances: JSON and columnar ids.

Two codecs live here:

* The JSON codec — instances with labelled nulls and Skolem values
  round-trip as tagged objects.  The encoding is stable (sorted facts)
  so serialized instances diff cleanly, which the examples use to show
  exchanged data.  :func:`instance_from_json` decodes straight into the
  canonical column store, and :func:`fact_texts` /
  :func:`instance_json_text` write a store-backed instance's JSON from
  its id columns, one encoded text per distinct value.
* The columnar id codec — :class:`ValueInterner` plus
  :func:`encode_instance` / :func:`instance_from_id_rows`, the bulk
  bridge the :mod:`repro.backends` SQL engines use to ship an instance
  into integer tables (``executemany`` over interned ids) and read the
  result back out without touching Python-level value objects per cell
  more than once per *distinct* value.
"""

from __future__ import annotations

import itertools
import json
from itertools import repeat
from json.encoder import encode_basestring_ascii
from operator import add, itemgetter
from typing import Any, Iterable, Iterator, Sequence

from .instance import Instance, Row
from .schema import Attribute, AttributeType, RelationSchema, Schema
from .values import Constant, LabeledNull, NullFactory, SkolemValue, Value, constant


def value_to_json(value: Value) -> Any:
    """Encode a value as a JSON-compatible object."""
    if isinstance(value, Constant):
        return {"const": value.value}
    if isinstance(value, LabeledNull):
        return {"null": value.label}
    if isinstance(value, SkolemValue):
        return {
            "skolem": value.function,
            "args": [value_to_json(a) for a in value.arguments],
        }
    raise TypeError(f"not a value: {value!r}")


def value_from_json(data: Any) -> Value:
    """Decode a value from its JSON encoding."""
    if not isinstance(data, dict):
        raise ValueError(f"malformed value encoding: {data!r}")
    if "const" in data:
        return Constant(data["const"])
    if "null" in data:
        return LabeledNull(int(data["null"]))
    if "skolem" in data:
        return SkolemValue(
            data["skolem"], tuple(value_from_json(a) for a in data["args"])
        )
    raise ValueError(f"malformed value encoding: {data!r}")


def schema_to_json(schema: Schema) -> Any:
    """Encode a schema as a JSON-compatible object."""
    return {
        "relations": [
            {
                "name": rel.name,
                "attributes": [
                    {"name": a.name, "type": a.type.value} for a in rel.attributes
                ],
            }
            for rel in schema
        ]
    }


def schema_from_json(data: Any) -> Schema:
    """Decode a schema from its JSON encoding."""
    relations = []
    for rel in data["relations"]:
        attrs = [
            Attribute(a["name"], AttributeType(a.get("type", "any")))
            for a in rel["attributes"]
        ]
        relations.append(RelationSchema(rel["name"], attrs))
    return Schema(relations)


def instance_to_json(instance: Instance) -> Any:
    """Encode an instance (schema + sorted facts)."""
    return {
        "schema": schema_to_json(instance.schema),
        "facts": [_fact_to_json(f.relation, f.row) for f in instance.facts()],
    }


def _fact_to_json(relation: str, row: Row) -> Any:
    return {"relation": relation, "row": [value_to_json(v) for v in row]}


_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})
_NULL_KINDS = frozenset({LabeledNull, SkolemValue})
_get_const = itemgetter("const")


def _cell_from_json(cell: Any) -> object:
    """One encoded cell: a constant's raw scalar, else the null-like value."""
    try:
        if "const" in cell:
            return cell["const"]
        value = value_from_json(cell)
        hash(value)
    except (KeyError, TypeError, ValueError):
        raise ValueError(f"malformed value encoding: {cell!r}") from None
    return value


def _raw_column(cells: Sequence[Any], relation: str, attribute: Attribute) -> list:
    """A column of encoded cells as raws; every distinct cell type checked once.

    A column of constants unwraps through one C-speed ``map``; a column
    holding nulls (or anything malformed) decodes cell by cell.
    """
    try:
        raw = list(map(_get_const, cells))
    except (KeyError, TypeError):
        raw = list(map(_cell_from_json, cells))
    for kind in set(map(type, raw)):
        if kind in _NULL_KINDS:
            continue
        sample = next(v for v in raw if type(v) is kind)
        if kind not in _JSON_SCALARS:
            raise ValueError(f"constant must be a JSON scalar, got {sample!r}")
        if not attribute.type.accepts(sample):
            raise ValueError(
                f"value {sample!r} is not of type {attribute.type.value} "
                f"for {relation}.{attribute.name}"
            )
    return raw


def _group_rows(schema: Schema, facts: Any) -> dict[str, list[list]]:
    """The encoded facts' rows per relation, shape-checked."""
    if not isinstance(facts, list):
        raise ValueError(f"instance 'facts' must be a list, got {facts!r}")
    grouped: dict[str, list[list]] = {name: [] for name in schema.relation_names}
    for fact in facts:
        try:
            rows = grouped[fact["relation"]]
            row = fact["row"]
        except (KeyError, TypeError):
            if isinstance(fact, dict) and "relation" in fact and "row" in fact:
                raise ValueError(
                    f"fact over unknown relation {fact['relation']!r}"
                ) from None
            raise ValueError(f"malformed fact: {fact!r}") from None
        rows.append(row)
    for name, rows in grouped.items():
        arity = schema[name].arity
        for row in rows:
            if type(row) is not list:
                raise ValueError(f"row of {name!r} is not a list: {row!r}")
            if len(row) != arity:
                raise ValueError(
                    f"arity mismatch for {name!r}: expected {arity}, "
                    f"got row of length {len(row)}"
                )
    return grouped


def instance_from_json(data: Any) -> Instance:
    """Decode an instance from its JSON encoding, straight into id columns.

    The facts' cells are collected per relation column as raw scalars
    (labelled nulls and Skolem values as value objects) and built into
    the canonical column store by
    :meth:`~repro.relational.columnar.ColumnStore.from_raw_columns`; the
    instance reads its rows from that store, so no :class:`Constant` is
    built and the fingerprint costs one digest.  Set semantics are the
    constructor's: rows equal under ``==`` collapse, first occurrence
    kept (``R(1), R(true)`` keeps ``1``).  Equal constants that print
    differently (``R(1, true)``) share one id and one table entry, so
    when the store may have merged such a pair the value rows are built
    from the cells instead, and every fact reads back as it was
    written.

    Raises ``ValueError`` for every malformed encoding: no ``schema`` or
    ``facts``, an unknown relation, a row that is not a list or has the
    wrong arity, a malformed cell, a constant that is not a JSON scalar,
    or a constant of the wrong type for a typed attribute.
    """
    from .columnar import ColumnStore

    if not isinstance(data, dict):
        raise ValueError(f"instance must be a JSON object, got {data!r}")
    for key in ("schema", "facts"):
        if key not in data:
            raise ValueError(f"instance is missing {key!r}")
    try:
        schema = schema_from_json(data["schema"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed schema: {exc!r}") from None
    raw_columns: dict[str, list] = {}
    counts: dict[str, int] = {}
    for name, rows in _group_rows(schema, data["facts"]).items():
        attributes = schema[name].attributes
        if not rows or not attributes:
            raw_columns[name] = []
            counts[name] = min(len(rows), 1)
            continue
        raws = [
            _raw_column(cells, name, attribute)
            for cells, attribute in zip(zip(*rows), attributes)
        ]
        distinct = dict.fromkeys(zip(*raws))
        if len(distinct) != len(rows):
            raws = list(zip(*distinct))
        raw_columns[name] = raws
        counts[name] = len(distinct)
    store, merged = ColumnStore.from_raw_columns(
        schema, ((name, counts[name], raws) for name, raws in raw_columns.items())
    )
    if not merged:
        return Instance._from_store(schema, store)
    relations = {
        name: frozenset(
            zip(*(map(_value, raw) for raw in raws)) if raws else [()] * counts[name]
        )
        for name, raws in raw_columns.items()
    }
    instance = Instance._unsafe(schema, relations)
    instance._columnar = store
    return instance


def _value(raw: object) -> Value:
    return raw if type(raw) in _NULL_KINDS else constant(raw)


# -- JSON text straight from id columns --------------------------------------


def _fact_order(store) -> Iterator[tuple[str, Sequence[int]]]:
    """``(name, row positions)`` per relation in :meth:`Instance.facts` order.

    Relations come in name order and each relation's store positions
    are sorted by the ``repr`` of their rows: every distinct value's
    ``repr`` is built once, and a row's key joins its cells' — the text
    of the row tuple's ``repr`` minus the shared opening parenthesis.
    """
    reprs = list(map(repr, store.raw_constants()))
    reprs.extend(map("⊥%d".__mod__, store.null_labels()))
    reprs.extend(map(repr, store.skolem_values()))
    for name in sorted(store.columns):
        columns = store.columns[name]
        count = store.counts[name]
        if not columns or count < 2:
            yield name, range(count)
            continue
        close = ",)" if len(columns) == 1 else ")"
        cells = zip(*(map(reprs.__getitem__, column) for column in columns))
        keys = list(map(add, map(", ".join, cells), repeat(close)))
        yield name, sorted(range(count), key=keys.__getitem__)


def _stored_rows(instance: Instance):
    """The instance's column store when its rows are read from it, else ``None``.

    An instance built over a store (a decoded source, a chase solution)
    materializes its rows from the store's value table, so the table
    prints every cell exactly.  Once value rows exist they are the data:
    a canonical store built over them may print a merged cell
    (``True`` for ``1``) differently.
    """
    return instance.columnar_store if instance._rels is None else None


def _scalar_text(raw: object, separators: tuple[str, str]) -> str:
    """``json.dumps(raw, separators=separators)``; ``str`` and ``int`` directly."""
    kind = type(raw)
    if kind is str:
        return encode_basestring_ascii(raw)
    if kind is int:
        return int.__repr__(raw)
    return json.dumps(raw, separators=separators)


def _value_texts(store, separators: tuple[str, str]) -> list[str]:
    """Each value-table entry's JSON text (:func:`value_to_json`, dumped)."""
    key_sep = separators[1]
    raws = store.raw_constants()
    if set(map(type, raws)) <= {str}:
        bodies = map(encode_basestring_ascii, raws)
    else:
        bodies = (_scalar_text(raw, separators) for raw in raws)
    texts = list(map(('{"const"' + key_sep + "%s}").__mod__, bodies))
    texts.extend(map(('{"null"' + key_sep + "%d}").__mod__, store.null_labels()))
    texts.extend(
        json.dumps(value_to_json(value), separators=separators)
        for value in store.skolem_values()
    )
    return texts


def fact_texts(
    instance: Instance, separators: tuple[str, str] = (", ", ": ")
) -> list[str]:
    """Each fact's JSON text, in :meth:`Instance.facts` order.

    Item *i* is ``json.dumps(instance_to_json(instance)["facts"][i],
    separators=separators)``, byte for byte.  A store-backed instance
    is written from its id columns: each distinct value is encoded once
    (``str`` and ``int`` without a ``json.dumps`` call) and a row joins
    its cells' texts, so no value object is built.  Other instances
    encode fact by fact.
    """
    store = _stored_rows(instance)
    if store is None:
        return [
            json.dumps(_fact_to_json(f.relation, f.row), separators=separators)
            for f in instance.facts()
        ]
    item_sep = separators[0]
    texts = _value_texts(store, separators)
    out: list[str] = []
    for name, order in _fact_order(store):
        if not order:
            continue
        # '{"relation": "R", "row": []}' without its closing ']}'
        head = json.dumps({"relation": name, "row": []}, separators=separators)[:-2]
        cells = zip(*(map(texts.__getitem__, c) for c in store.columns[name]))
        bodies = list(map(item_sep.join, cells)) or [""]
        ordered = map(bodies.__getitem__, order)
        out.extend(map(add, map(head.__add__, ordered), repeat("]}")))
    return out


def ordered_facts(instance: Instance) -> Iterator[tuple[str, Row]]:
    """``(relation, row)`` for every fact, in :meth:`Instance.facts` order.

    A store-backed instance orders its rows as :func:`fact_texts` does,
    reading them from the store's value-tuple rows, which its relations'
    frozensets later share.
    """
    store = _stored_rows(instance)
    if store is None:
        for fact in instance.facts():
            yield fact.relation, fact.row
        return
    rows = store.rows
    for name, order in _fact_order(store):
        for position in order:
            yield name, rows[name][position]


def instance_json_text(
    instance: Instance, separators: tuple[str, str] = (", ", ": ")
) -> str:
    """``json.dumps(instance_to_json(instance), separators=separators)``.

    Byte for byte, with the facts written by :func:`fact_texts`.
    """
    item_sep, key_sep = separators
    schema = json.dumps(schema_to_json(instance.schema), separators=separators)
    facts = item_sep.join(fact_texts(instance, separators))
    return (
        f'{{"schema"{key_sep}{schema}{item_sep}"facts"{key_sep}[{facts}]}}'
    )


def dumps_instance(instance: Instance, indent: int | None = 2) -> str:
    """Serialize an instance to a JSON string."""
    return json.dumps(instance_to_json(instance), indent=indent, sort_keys=True)


def loads_instance(text: str) -> Instance:
    """Deserialize an instance from a JSON string."""
    return instance_from_json(json.loads(text))


def dumps_schema(schema: Schema, indent: int | None = 2) -> str:
    """Serialize a schema to a JSON string."""
    return json.dumps(schema_to_json(schema), indent=indent, sort_keys=True)


def loads_schema(text: str) -> Schema:
    """Deserialize a schema from a JSON string."""
    return schema_from_json(json.loads(text))


# -- columnar id codec (the SQL backends' instance ↔ table bridge) ----------

NULL_ID_BASE = 1 << 40
"""Ids below this encode constants, ids at or above it null-like values.

The split lets the SQL lowering compile the constant predicate ``C(x)``
to the integer comparison ``id < NULL_ID_BASE`` and mint fresh labelled
nulls by pure row-id arithmetic without ever colliding with a constant.
2^40 leaves both sides astronomically more headroom than any instance
this system can hold in memory.
"""


class ValueInterner:
    """A per-run bijection between :class:`Value` objects and integer ids.

    Constants get dense ids counting up from 0; null-like values
    (labelled nulls, Skolem values) count up from :data:`NULL_ID_BASE`.
    The SQL backends intern the whole source instance on load, run the
    exchange entirely over integers, and decode the extracted rows
    through the same interner — so value identity (including source
    nulls flowing into the target) survives the round trip exactly.

    Fresh labelled nulls minted *inside* the database (by row-id
    arithmetic in an ``INSERT … SELECT``) are registered afterwards via
    :meth:`allocate_fresh_nulls`, which hands out a contiguous id range
    and backs it with factory-fresh nulls, keeping :meth:`value_of`
    total over everything the engine can return.
    """

    def __init__(self) -> None:
        self._constant_ids: dict[Any, int] = {}
        self._constants: list[Constant] = []
        self._null_ids: dict[Value, int] = {}
        self._null_by_id: dict[int, Value] = {}
        # Engine-minted null blocks as (first_id, start_label, count):
        # ids and labels inside a block line up arithmetically, so a
        # block costs O(1) to register no matter how many nulls the
        # statement minted, and decoding computes the null on demand.
        self._minted: list[tuple[int, int, int]] = []
        self._minted_total = 0
        self._max_label = -1

    def id_of(self, value: Value) -> int:
        """The id of *value*, interning it on first sight."""
        if type(value) is Constant:
            # Key on the raw scalar: hashing it directly skips the
            # generated dataclass ``__hash__`` (a Python-level call per
            # lookup), and scalars that already compare equal as
            # constants (1 vs True) collapse to one id either way.
            raw = value.value
            ident = self._constant_ids.get(raw)
            if ident is None:
                ident = len(self._constants)
                self._constant_ids[raw] = ident
                self._constants.append(value)
            return ident
        ident = self._null_ids.get(value)
        if ident is not None:
            return ident
        if type(value) is LabeledNull:
            label = value.label
            for first, start, count in self._minted:
                if start <= label < start + count:
                    return first + (label - start)
            if label > self._max_label:
                self._max_label = label
        ident = NULL_ID_BASE + len(self._null_by_id) + self._minted_total
        self._null_ids[value] = ident
        self._null_by_id[ident] = value
        return ident

    def value_of(self, ident: int) -> Value:
        """The value behind *ident* (``KeyError`` for unknown ids)."""
        if ident < NULL_ID_BASE:
            try:
                return self._constants[ident]
            except IndexError:
                raise KeyError(f"unknown interned value id {ident}") from None
        value = self._null_by_id.get(ident)
        if value is not None:
            return value
        for first, start, count in self._minted:
            offset = ident - first
            if 0 <= offset < count:
                return LabeledNull(start + offset)
        raise KeyError(f"unknown interned value id {ident}")

    def allocate_fresh_nulls(self, count: int, factory: NullFactory) -> int:
        """Back *count* engine-minted ids with fresh nulls; first id returned.

        The SQL execute phase mints null ids as ``first + k`` for
        ``k < count``; registering the block here makes decoding total.
        The whole block is one range record — nothing is materialized
        until :meth:`value_of` actually decodes an id, so minting a
        million nulls costs the same as minting one.
        """
        first = NULL_ID_BASE + len(self._null_by_id) + self._minted_total
        start = factory.fresh_block(count)
        self._minted.append((first, start, count))
        self._minted_total += count
        return first

    @property
    def null_count(self) -> int:
        """How many null-like values (source + minted) are interned."""
        return len(self._null_by_id) + self._minted_total

    @property
    def max_interned_label(self) -> int:
        """Largest :class:`LabeledNull` label interned so far (−1 if none).

        Tracked during :meth:`id_of`, so callers that intern a whole
        source instance get the label watermark to seed a
        :class:`NullFactory` with — no second scan over the values.
        """
        return self._max_label

    @property
    def next_null_id(self) -> int:
        """The id the next interned or minted null will receive.

        Fused ``INSERT … SELECT`` statements need the fresh-null offset
        *before* the firing count is known; this is that offset, and
        :meth:`allocate_fresh_nulls` called immediately after returns
        exactly it.
        """
        return NULL_ID_BASE + len(self._null_by_id) + self._minted_total

    def has_interned_nulls(self) -> bool:
        """Whether any null-like value was interned (core caveat check)."""
        return bool(self._null_by_id) or self._minted_total > 0


def row_codec(fn, arity: int):
    """A per-row codec applying *fn* to every cell of an *arity*-row.

    Tuple displays beat ``tuple(map(fn, row))`` by ~12% at the short
    arities relations actually have (measured), and within one relation
    the arity is fixed, so the dispatch happens once per relation rather
    than once per row.  Wider rows fall back to the generic form.
    """
    if arity == 1:
        return lambda r: (fn(r[0]),)
    if arity == 2:
        return lambda r: (fn(r[0]), fn(r[1]))
    if arity == 3:
        return lambda r: (fn(r[0]), fn(r[1]), fn(r[2]))
    if arity == 4:
        return lambda r: (fn(r[0]), fn(r[1]), fn(r[2]), fn(r[3]))
    return lambda r: tuple(map(fn, r))


def encode_rows(
    rows: Iterable[Sequence[Value]], interner: ValueInterner
) -> list[tuple[int, ...]]:
    """Encode value rows as id tuples, ready for ``executemany``."""
    it = iter(rows)
    head = next(it, None)
    if head is None:
        return []
    codec = row_codec(interner.id_of, len(head))
    encoded = [codec(head)]
    encoded.extend(map(codec, it))
    return encoded


def encode_instance(
    instance: Instance, interner: ValueInterner
) -> dict[str, list[tuple[int, ...]]]:
    """Encode every relation of *instance* as id rows (bulk load shape)."""
    return {
        name: encode_rows(instance.rows(name), interner)
        for name in instance.relation_names()
    }


def instance_from_id_rows(
    schema: Schema,
    rows_by_relation: dict[str, Iterable[Sequence[int]]],
    interner: ValueInterner,
) -> Instance:
    """Decode id rows straight into an :class:`Instance` (bulk extract).

    When every attribute of *schema* is untyped (``AttributeType.ANY``,
    the exchange-target common case) the instance is assembled through
    the trusted fast constructor — the rows came out of the backend's
    own tables, so arity and value-kind are correct by construction.
    Typed schemas go through the validating constructor instead so type
    errors surface exactly as they would on the interpreted path.
    """
    value_of = interner.value_of
    decoded: dict[str, frozenset] = {}
    for name in schema.relation_names:
        it = iter(rows_by_relation.get(name, ()))
        head = next(it, None)
        if head is None:
            decoded[name] = frozenset()
            continue
        codec = row_codec(value_of, len(head))
        decoded[name] = frozenset(
            itertools.chain((codec(head),), map(codec, it))
        )
    if all(
        attr.type is AttributeType.ANY for rel in schema for attr in rel.attributes
    ):
        return Instance._unsafe(schema, decoded)
    return Instance(schema, decoded)
