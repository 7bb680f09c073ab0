"""Columnar instance storage and the flat-buffer codec.

A :class:`ColumnStore` is the columnar view of an
:class:`~repro.relational.instance.Instance`: every relation holds one
integer id vector (:mod:`array`, machine-width) per column over a dense
per-store value table — constants first (ids ``0 .. constant_count-1``),
then labelled nulls, then Skolem values.  The predicate "is a constant"
is therefore the integer comparison ``id < constant_count``, value
equality is id equality, and a whole relation is a handful of flat
buffers instead of a frozenset of tuples of value objects.

The store backs three hot paths:

* **fingerprinting** — the *canonical* store (value table sorted by
  :func:`~repro.relational.values.value_sort_key`, rows sorted as id
  tuples) is a content-normal form, so
  :meth:`~repro.relational.instance.Instance.fingerprint` hashes its
  packed buffers directly instead of repr-walking every fact;
* **payload shipping** — :func:`pack_instance` /​ :func:`unpack_instance`
  serialize an instance as one flat buffer (packed column arrays with
  width-minimal ids + the value table), which the streaming service
  (:mod:`repro.service.streaming`) sends to pool workers instead of
  pickled object graphs;
* **id-space evaluation** — :func:`repro.logic.evaluation.evaluate`
  joins premises over int columns when a store is attached, and the SQL
  backends bulk-load the id vectors straight into their tables.

Stores are immutable after construction (like instances) and attach to
at most one instance; derived instances (``with_facts`` and friends)
rebuild lazily on demand.

Buffer layout (all integers little-endian)::

    magic  b"RCOL1\\0"
    u32    header length, then the JSON header:
           {"v": 1, "schema": ..., "rels": [[name, arity, rows], ...],
            "consts": C, "labeled": L, "width": "B"|"H"|"I"|"Q",
            "canon": true|false}
    u64    constants blob length, then pickled list of C raw scalars
    u64    labels blob length, then ``array('q')`` of L null labels
    u64    skolem blob length, then pickled list of Skolem values
    raw    column arrays, header order: per relation, per column,
           ``rows`` ids of the header's width

Ids inside a buffer are *local*: indexes into the shipped value table
(constants ``0..C-1``, labelled nulls ``C..C+L-1``, Skolems after).
Packing compacts the table to the values the rows actually use, so a
chase solution never ships its source's unused constants.
"""

from __future__ import annotations

import json
import pickle
import struct
from array import array
from itertools import repeat
from operator import add, attrgetter, floordiv, itemgetter, mod, mul
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .schema import Schema
from .values import (
    ORDERABLE_SCALARS,
    Constant,
    LabeledNull,
    SkolemValue,
    Value,
    constant,
    value_sort_key,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .instance import Instance, Row

MAGIC = b"RCOL1\x00"
FORMAT_VERSION = 1

_HEADER_LEN = struct.Struct("<I")
_BLOB_LEN = struct.Struct("<Q")

# Width codes in preference order: the narrowest unsigned array typecode
# whose range covers the value-table size.
_WIDTH_STEPS = (("B", 1 << 8), ("H", 1 << 16), ("I", 1 << 32), ("Q", None))


def width_code(table_size: int) -> str:
    """The narrowest unsigned ``array`` typecode holding ids < *table_size*."""
    for code, limit in _WIDTH_STEPS:
        if limit is None or table_size <= limit:
            return code
    raise AssertionError("unreachable")  # pragma: no cover


def sort_id_columns(
    columns: Sequence[Sequence[int]], radix: int, code: str
) -> list[array]:
    """Equal-length id columns reordered so their rows sort as id tuples.

    Every id is below *radix*, so row ``(a, b, c)`` packs into the single
    integer ``(a * radix + b) * radix + c`` whose order is the tuple
    order; sorting the packed integers and unpacking them again beats
    sorting tuples by about 2× and runs entirely in C-level ``map``
    calls.  The columns come back as ``array(code)`` objects.
    """
    if len(columns) <= 1:
        return [array(code, sorted(column)) for column in columns]
    keys = columns[0]
    for column in columns[1:]:
        keys = map(add, map(mul, keys, repeat(radix)), column)
    keys = sorted(keys)
    out: list[array] = []
    for _ in range(len(columns) - 1):
        out.append(array(code, map(mod, keys, repeat(radix))))
        keys = list(map(floordiv, keys, repeat(radix)))
    out.append(array(code, keys))
    out.reverse()
    return out


_NULL_KINDS = frozenset({LabeledNull, SkolemValue})


def _raw_sort_key(raw: object) -> tuple:
    """:func:`value_sort_key` of the constant wrapping *raw*, minus its tag."""
    if isinstance(raw, ORDERABLE_SCALARS):
        return (type(raw).__name__, raw)
    return (type(raw).__name__, repr(raw))


def _nan_last(raw: float) -> tuple:
    return (1, id(raw)) if raw != raw else (0, raw)


def _sort_natively(group: list) -> None:
    """Sort one orderable scalar type in place.

    NaN compares false with everything, so a plain sort would leave the
    result depending on the input order.  NaNs go last instead, each its
    own value, ordered by identity: a single NaN sorts the same in every
    process, and several sort the same for the same objects.
    """
    if isinstance(group[0], float) and any(raw != raw for raw in group):
        group.sort(key=_nan_last)
    else:
        group.sort()


def _sorted_constants(constants: list, kinds: set[type]) -> list:
    """Raw constants in :func:`value_sort_key` order.

    That order is by type name, then by value within a type (``repr``
    for non-orderable scalars), so each type-name group sorts natively.
    """
    if len(kinds) == 1 and issubclass(next(iter(kinds)), ORDERABLE_SCALARS):
        _sort_natively(constants)
        return constants
    groups: dict[str, list] = {}
    for raw in constants:
        groups.setdefault(type(raw).__name__, []).append(raw)
    ordered: list = []
    for name in sorted(groups):
        group = groups[name]
        if all(isinstance(raw, ORDERABLE_SCALARS) for raw in group):
            _sort_natively(group)
        else:
            group.sort(key=_raw_sort_key)
        ordered.extend(group)
    return ordered


def _ambiguous(constant_kinds: set[type], domain: set) -> bool:
    """Whether the domain may hold equal constants that print differently.

    Equal ``str``, ``bytes``, ``int`` or ``bool`` values of one type are
    identical, and equal floats differ only at ``0.0``/``-0.0``.  Any two
    numeric types (``1``, ``1.0``, ``True``) or any other scalar type may
    hold equal constants with different reprs.
    """
    numeric = constant_kinds - {str, bytes}
    if len(numeric) > 1:
        return True
    if not numeric or numeric <= {int, bool}:
        return False
    return numeric != {float} or 0.0 in domain


def _representatives(raw_columns: dict[str, list[list]], constants: bool) -> list:
    """Each equality group's member with the smallest rank.

    Equal values that differ in type or print — ``1``, ``1.0`` and
    ``True``; ``0.0`` and ``-0.0``; Skolem values over such constants —
    are one set element and one dict key, so the domain set keeps
    whichever it met first.  This scans the cells (the distinct
    type/repr/value triples, for constants) and keeps the member with
    the smallest :func:`value_sort_key`, ties broken by ``repr``.
    *constants* selects the constant region; otherwise the Skolem values.
    """
    best: dict = {}
    for raws in raw_columns.values():
        for raw in raws:
            if constants:
                distinct = set(zip(map(type, raw), map(repr, raw), raw))
                cells = [v for kind, _, v in distinct if kind not in _NULL_KINDS]
            else:
                cells = [v for v in raw if type(v) is SkolemValue]
            for value in cells:
                key = _raw_sort_key(value) if constants else value_sort_key(value)
                rank = (key, repr(value))
                held = best.get(value)
                if held is None or rank < held[0]:
                    best[value] = (rank, value)
    return [value for _, value in best.values()]


class ColumnarFormatError(ValueError):
    """A flat buffer failed structural validation during unpack."""


class ColumnStore:
    """Columnar id-vector storage for one instance.

    The value table is kept as raw parts — constants as raw scalars,
    labelled nulls as bare labels, then Skolem values — and
    ``columns[name]`` holds each relation's id vectors.  ``values`` (the
    id → :class:`Value` table) and ``rows[name]`` (the relation's value
    tuples in store order) materialize on first read, so row ``i`` of
    relation ``R`` is ``tuple(columns[R][c][i] for c in range(arity))``
    in id space and ``rows[R][i]`` in value space.  The id-space chase
    (:mod:`repro.mapping.chase`), the flat-buffer decoder
    (:func:`unpack_instance`) and the JSON decoder build stores this
    way, and fingerprinting, packing and writing JSON never need value
    objects at all.  A store never changes once built, so the digest,
    the packed buffer and the JSON fact texts
    (:func:`~repro.relational.serialization.fact_texts`, one tuple per
    separator style) are memoized on it.

    ``canonical`` stores additionally guarantee the value table is
    sorted by :func:`value_sort_key`, rows are sorted as id tuples, and
    the table holds exactly the instance's active domain — two equal
    instances build byte-identical canonical stores, which is what
    :meth:`digest` (and so ``Instance.fingerprint``) relies on.
    *canonical* may be set when the caller knows the raw parts satisfy
    that contract (e.g. a buffer whose header says ``canon: true``).
    """

    __slots__ = (
        "schema",
        "_table",
        "_lazy_parts",
        "constant_count",
        "labeled_count",
        "_ids",
        "_rows",
        "counts",
        "columns",
        "canonical",
        "_indexes",
        "_used",
        "_digest",
        "_packed",
        "_fact_texts",
    )

    def __init__(
        self,
        schema: Schema,
        raw_constants: Sequence[object],
        labels: Sequence[int],
        skolems: Sequence[Value],
        counts: dict[str, int],
        columns: dict[str, tuple[array, ...]],
        canonical: bool = False,
    ) -> None:
        self.schema = schema
        self._table: list[Value] | None = None
        self._lazy_parts = (tuple(raw_constants), array("q", labels), tuple(skolems))
        self.constant_count = len(raw_constants)
        self.labeled_count = len(labels)
        self._ids: dict | None = None
        self._rows: dict[str, list["Row"]] | None = None
        self.counts = counts
        self.columns = columns
        self.canonical = canonical
        self._indexes: dict[tuple[str, tuple[int, ...]], dict] = {}
        self._used: list[int] | None = None
        self._digest: str | None = None
        self._packed: bytes | None = None
        self._fact_texts: dict[tuple[str, str], tuple[str, ...]] = {}

    @property
    def values(self) -> list[Value]:
        """The id → :class:`Value` table (materialized on first access)."""
        table = self._table
        if table is None:
            raw_constants, labels, skolems = self._lazy_parts
            table = [constant(raw) for raw in raw_constants]
            table.extend(LabeledNull(label) for label in labels)
            table.extend(skolems)
            self._table = table
        return table

    def _ids_map(self) -> dict:
        """The value → id map (materialized on first probe).

        Keyed straight off the raw parts, so one constant peek doesn't
        force the whole value table.
        """
        ids = self._ids
        if ids is None:
            raw_constants, labels, skolems = self._lazy_parts
            ids = {raw: ident for ident, raw in enumerate(raw_constants)}
            base = len(raw_constants)
            for offset, label in enumerate(labels):
                ids[LabeledNull(label)] = base + offset
            base += len(labels)
            for offset, skolem in enumerate(skolems):
                ids[skolem] = base + offset
            self._ids = ids
        return ids

    @property
    def rows(self) -> dict[str, list["Row"]]:
        """Each relation's value-tuple rows in store order (built on first access)."""
        rows = self._rows
        if rows is None:
            rows = {name: self._materialize_rows(name) for name in self.columns}
            self._rows = rows
        return rows

    def _materialize_rows(self, name: str) -> list["Row"]:
        cols = self.columns[name]
        if not cols:
            return [()] * self.counts[name]
        lookup = self.values.__getitem__
        return list(zip(*(map(lookup, col) for col in cols)))

    def materialize_relations(self) -> dict[str, frozenset]:
        """Every relation's rows as frozensets (the lazy-instance hook)."""
        rows = self.rows
        return {name: frozenset(rows[name]) for name in self.schema.relation_names}

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, instance: "Instance") -> "ColumnStore":
        """The canonical columnar form of *instance*, built column at a time.

        Each relation column is unwrapped once to raw scalars (labelled
        nulls and Skolem values stay as value objects) and handed to
        :meth:`from_raw_columns`, the build step the JSON decoder
        (:func:`~repro.relational.serialization.instance_from_json`)
        shares.
        """
        unwrap = attrgetter("value")

        def raw_column(rows, position: int) -> list:
            column = list(map(itemgetter(position), rows))
            try:
                return list(map(unwrap, column))
            except AttributeError:  # the column holds a null-like value
                return [v.value if type(v) is Constant else v for v in column]

        def relations():
            for name in instance.relation_names():
                rows = instance.rows(name)
                positions = range(instance.schema[name].arity if rows else 0)
                yield name, len(rows), (raw_column(rows, p) for p in positions)

        return cls.from_raw_columns(instance.schema, relations())[0]

    @classmethod
    def from_raw_columns(
        cls,
        schema: Schema,
        relations: Iterable[tuple[str, int, Iterable[Sequence]]],
    ) -> tuple["ColumnStore", bool]:
        """The canonical store over raw columns: ``(store, merged)``.

        *relations* yields ``(name, row count, columns)`` for every
        relation of *schema*, each column a sequence of cells (raw
        scalars for constants, :class:`LabeledNull`/:class:`SkolemValue`
        objects for nulls; no column for an empty or zero-arity
        relation).  Rows must be distinct.  The active domain is
        collected as a set of raws, column by column as they arrive, and
        sorted into :func:`value_sort_key` order — constants per
        type-name group, natively — and every column maps to ids through
        one C-speed ``map`` over the value → id dict.  Rows sort as id
        tuples.  The value table stays as raw parts until someone reads
        :attr:`values`.

        Constants that compare equal but differ in type or print
        (``1``, ``1.0``, ``True``; ``0.0``, ``-0.0``) share one id, and
        the table keeps the one with the smallest :func:`value_sort_key`
        (``True`` before ``1.0`` before ``1``), ties broken by ``repr``.
        The table, and so the digest, then does not depend on set
        iteration order or the hash seed.  Only domains that can hold
        such a group (or Skolem values over one) pay for the cell scan
        that picks it; ``merged`` says whether it ran, i.e. whether the
        table may print some cell differently from the raw it came from.
        """
        raw_columns: dict[str, list[Sequence]] = {}
        counts: dict[str, int] = {}
        domain: set = set()
        kinds: set[type] = set()
        for name, count, cells in relations:
            counts[name] = count
            raws = raw_columns[name] = []
            for raw in cells:
                kinds.update(map(type, raw))
                domain.update(raw)
                raws.append(raw)

        constant_kinds = kinds - _NULL_KINDS
        if kinds & _NULL_KINDS:
            constants = [v for v in domain if type(v) not in _NULL_KINDS]
            labels = sorted(v.label for v in domain if type(v) is LabeledNull)
        else:
            constants, labels = list(domain), []
        merged = _ambiguous(constant_kinds, domain)
        if merged:
            constants = _representatives(raw_columns, constants=True)
        constants = _sorted_constants(constants, constant_kinds)
        skolems = []
        if SkolemValue in kinds:
            merged = True
            skolems = sorted(
                _representatives(raw_columns, constants=False), key=value_sort_key
            )

        constant_count = len(constants)
        null_base = constant_count + len(labels)
        table_size = null_base + len(skolems)
        ids = dict(zip(constants, range(constant_count)))
        ids.update(zip(map(LabeledNull, labels), range(constant_count, null_base)))
        ids.update(zip(skolems, range(null_base, table_size)))
        code = width_code(table_size)
        lookup = ids.__getitem__
        columns: dict[str, tuple[array, ...]] = {}
        for name in list(raw_columns):
            # Free each relation's raw cells once its ids are out.
            raws = raw_columns.pop(name)
            if raws:
                id_columns = [array(code, map(lookup, raw)) for raw in raws]
                columns[name] = tuple(sort_id_columns(id_columns, table_size, code))
            else:  # empty or zero-arity relation
                columns[name] = tuple(array(code) for _ in range(schema[name].arity))
        store = cls(schema, constants, labels, skolems, counts, columns, canonical=True)
        store._ids = ids
        return store, merged

    # -- structure ---------------------------------------------------------

    def size(self) -> int:
        """Total number of rows across relations."""
        return sum(self.counts.values())

    def table_size(self) -> int:
        """Number of value-table entries, without materializing the table."""
        raw_constants, labels, skolems = self._lazy_parts
        return len(raw_constants) + len(labels) + len(skolems)

    def raw_constants(self) -> list:
        """The constant region as raw scalars (no :class:`Value` built).

        The chase's id-space fast path copies this list as the constant
        region of its result store.
        """
        return list(self._lazy_parts[0])

    def null_labels(self) -> list[int]:
        """The labelled-null region as bare labels, in table order."""
        return list(self._lazy_parts[1])

    def skolem_values(self) -> list[Value]:
        """The Skolem region, in table order."""
        return list(self._lazy_parts[2])

    def skolem_count(self) -> int:
        """How many Skolem values the table holds (without materializing it)."""
        return len(self._lazy_parts[2])

    def peek(self, value: Value) -> int | None:
        """The id of *value*, or ``None`` — never interns (read-only probe)."""
        key = value.value if type(value) is Constant else value
        return self._ids_map().get(key)

    def peek_raw(self, raw: object) -> int | None:
        """The id of the constant wrapping *raw*, or ``None``."""
        try:
            return self._ids_map().get(raw)
        except TypeError:  # unhashable scalar can never be in the table
            return None

    def id_rows(self, relation_name: str) -> Iterator[tuple[int, ...]]:
        """The relation's rows as id tuples (store order, C-speed zip)."""
        cols = self.columns[relation_name]
        if not cols:
            return iter(() for _ in range(self.counts[relation_name]))
        return zip(*cols)

    def index(
        self, relation_name: str, columns: tuple[int, ...]
    ) -> Mapping[tuple[int, ...], list[int]]:
        """A hash index over id keys: key columns → row positions.

        Keys are tuples of ids at the given column positions; values are
        the row positions carrying them.  Built lazily, cached for the
        store's lifetime (stores are immutable).
        """
        cache_key = (relation_name, columns)
        idx = self._indexes.get(cache_key)
        if idx is None:
            idx = {}
            cols = self.columns[relation_name]
            keyed = zip(*(cols[c] for c in columns))
            for position, key in enumerate(keyed):
                bucket = idx.get(key)
                if bucket is None:
                    idx[key] = [position]
                else:
                    bucket.append(position)
            self._indexes[cache_key] = idx
        return idx

    def used_ids(self) -> list[int]:
        """Sorted ids actually referenced by this store's rows (memoized)."""
        if self._used is None:
            if self.canonical:
                self._used = list(range(self.table_size()))
            else:
                seen: set[int] = set()
                for cols in self.columns.values():
                    for col in cols:
                        seen.update(col)
                self._used = sorted(seen)
        return self._used

    def max_labeled_null(self) -> int:
        """Largest labelled-null label used by this store's rows (−1 if none).

        The labelled-null region is contiguous and label-sorted in
        canonical tables, so the answer is the label behind the largest
        used id inside that region.
        """
        lo = self.constant_count
        hi = lo + self.labeled_count
        best = -1
        labels: list[int] | None = None
        for ident in reversed(self.used_ids()):
            if ident < lo:
                break
            if ident < hi:
                # Ids in the labelled region map to labels positionally,
                # so no Value needs to exist to answer this.
                if labels is None:
                    labels = self.null_labels()
                label = labels[ident - lo]
                if label > best:
                    best = label
        return best

    def global_id_rows(self, relation_name: str) -> Iterator[tuple[int, ...]]:
        """Rows as :class:`~repro.relational.serialization.ValueInterner` ids.

        Local null ids are shifted up to the interner convention
        (``NULL_ID_BASE + offset``); ground stores stream their columns
        verbatim.  This is the SQL backends' zero-encode load path — see
        :meth:`make_interner`.
        """
        from .serialization import NULL_ID_BASE

        cols = self.columns[relation_name]
        if not cols:
            return iter(() for _ in range(self.counts[relation_name]))
        table_size = self.table_size()
        if self.constant_count == table_size:
            return zip(*cols)
        shift = NULL_ID_BASE - self.constant_count
        trans = list(range(self.constant_count)) + [
            shift + ident for ident in range(self.constant_count, table_size)
        ]
        return zip(*(map(trans.__getitem__, col) for col in cols))

    def make_interner(self):
        """A fresh :class:`ValueInterner` aligned with :meth:`global_id_rows`.

        Constants intern in table order (ids ``0..C-1`` match the local
        ids exactly) and nulls in table order (``NULL_ID_BASE + i``), so
        rows streamed through :meth:`global_id_rows` decode through the
        returned interner without any per-cell re-encoding.
        """
        from .serialization import ValueInterner

        interner = ValueInterner()
        id_of = interner.id_of
        for value in self.values:
            id_of(value)
        return interner

    # -- fingerprint -------------------------------------------------------

    def digest(self) -> str:
        """The canonical SHA-256 content digest (canonical stores only).

        Hashes the schema, the value table (constants as type-tagged
        reprs — ``1``, ``1.0``, ``True`` and ``'1'`` all differ; null
        labels as one packed array; Skolem values as reprs) and every
        relation's raw column bytes.  Equal instances always agree and
        the digest is process-stable, so it can key caches shared across
        runs.  Non-canonical stores must :meth:`ColumnStore.build` from
        their instance first — their table order is arbitrary.
        """
        if not self.canonical:
            raise ValueError("digest requires a canonical store")
        if self._digest is None:
            import hashlib

            # Accumulate length-prefixed sections and hash in one update:
            # tens of thousands of tiny hasher.update calls were a
            # measurable share of fingerprint cost at bench sizes.
            parts: list[bytes] = []

            def feed(text: str) -> None:
                encoded = text.encode("utf-8")
                parts.append(len(encoded).to_bytes(4, "big"))
                parts.append(encoded)

            for rel in sorted(self.schema, key=lambda r: r.name):
                feed("R")
                feed(rel.name)
                for attr in rel.attributes:
                    feed(attr.name)
                    feed(attr.type.value)
            feed("V")
            # Read the raw parts: fingerprinting never materializes the
            # value table.  Each type name is framed once (a third of the
            # digest's time at 10⁵ constants went to re-framing them).
            framed_names: dict[type, bytes] = {}
            for raw in self.raw_constants():
                kind = type(raw)
                name_part = framed_names.get(kind)
                if name_part is None:
                    encoded = kind.__name__.encode("utf-8")
                    name_part = len(encoded).to_bytes(4, "big") + encoded
                    framed_names[kind] = name_part
                parts.append(name_part)
                feed(repr(raw))
            parts.append(array("q", self.null_labels()).tobytes())
            for value in self.skolem_values():
                feed(repr(value))
            for name in sorted(self.columns):
                count = self.counts[name]
                if not count:
                    continue
                feed("C")
                feed(name)
                feed(str(count))
                for col in self.columns[name]:
                    parts.append(col.tobytes())
            self._digest = hashlib.sha256(b"".join(parts)).hexdigest()
        return self._digest

    # -- flat-buffer codec -------------------------------------------------

    def pack(self) -> bytes:
        """Serialize to one flat buffer (see the module docstring layout).

        Packs straight from the raw parts: packing is often the *only*
        thing that happens to a store (a worker shipping its solution
        home), so building the value table just to unwrap it again would
        undo the point.  Canonical stores pack verbatim; other stores
        first compact the table down to the ids their rows use (keeping
        relative order, so label-sortedness survives) and remap columns
        into the compacted — and usually narrower — id space.  The
        header carries this store's ``canonical`` flag: chase solutions
        are emission-ordered (``canon: false``), while a decoded
        canonical buffer round-trips as canonical.  Memoized.
        """
        if self._packed is not None:
            return self._packed
        raw_constants, labels, skolems = self._lazy_parts
        used = self.used_ids()
        const_count = self.constant_count
        null_end = const_count + self.labeled_count
        total = null_end + len(skolems)
        if len(used) != total:
            remap = {ident: local for local, ident in enumerate(used)}
            packed_consts = [raw_constants[i] for i in used if i < const_count]
            packed_labels = [
                labels[i - const_count] for i in used if const_count <= i < null_end
            ]
            packed_skolems = [skolems[i - null_end] for i in used if i >= null_end]
        else:
            remap = None
            packed_consts = list(raw_constants)
            packed_labels = list(labels)
            packed_skolems = list(skolems)
        code = width_code(len(used) if remap is not None else total)
        rels = []
        col_blobs: list[bytes] = []
        for name in self.schema.relation_names:
            cols = self.columns[name]
            rels.append([name, len(cols), self.counts[name]])
            for col in cols:
                if remap is not None:
                    col = array(code, map(remap.__getitem__, col))
                elif col.typecode != code:
                    col = array(code, col)
                col_blobs.append(col.tobytes())
        self._packed = _assemble_buffer(
            self.schema,
            packed_consts,
            packed_labels,
            packed_skolems,
            rels,
            col_blobs,
            code,
            self.canonical,
        )
        return self._packed


def _assemble_buffer(
    schema: Schema,
    raw_constants: Sequence[object],
    labels: Sequence[int],
    skolems: Sequence[Value],
    rels: list,
    col_blobs: list[bytes],
    code: str,
    canonical: bool,
) -> bytes:
    """Assemble a flat buffer from raw table parts (scalars and labels)."""
    from .serialization import schema_to_json

    const_blob = pickle.dumps(
        list(raw_constants), protocol=pickle.HIGHEST_PROTOCOL
    )
    labels_blob = array("q", labels).tobytes()
    skolem_blob = (
        pickle.dumps(list(skolems), protocol=pickle.HIGHEST_PROTOCOL)
        if skolems
        else b""
    )
    const_n = len(raw_constants)
    labeled_n = len(labels)
    header = json.dumps(
        {
            "v": FORMAT_VERSION,
            "schema": schema_to_json(schema),
            "rels": rels,
            "consts": const_n,
            "labeled": labeled_n,
            "width": code,
            "canon": canonical,
        },
        separators=(",", ":"),
    ).encode("utf-8")
    parts = [
        MAGIC,
        _HEADER_LEN.pack(len(header)),
        header,
        _BLOB_LEN.pack(len(const_blob)),
        const_blob,
        _BLOB_LEN.pack(len(labels_blob)),
        labels_blob,
        _BLOB_LEN.pack(len(skolem_blob)),
        skolem_blob,
    ]
    parts.extend(col_blobs)
    return b"".join(parts)


def pack_instance(instance: "Instance") -> bytes:
    """Pack *instance* as a flat buffer (builds/reuses its column store)."""
    store = instance.columnar_store
    if store is None:
        store = instance.columnar()
    return store.pack()


def _read_blob(buffer: bytes, offset: int) -> tuple[bytes, int]:
    (length,) = _BLOB_LEN.unpack_from(buffer, offset)
    offset += _BLOB_LEN.size
    end = offset + length
    if end > len(buffer):
        raise ColumnarFormatError("flat buffer truncated inside a blob")
    return buffer[offset:end], end


def _read_raw_table(
    buffer: bytes,
) -> tuple[dict, list, array, list, int]:
    """Parse header + raw value-table parts, building no :class:`Value`\\ s.

    Returns ``(header, raw_constants, labels, skolems, offset)`` where
    *offset* points at the first column blob.  The decoder
    (:func:`unpack_instance`) works directly on raw scalars and integer
    labels, so wrapping them in value objects here would be wasted work.
    """
    if buffer[: len(MAGIC)] != MAGIC:
        raise ColumnarFormatError("not a columnar instance buffer (bad magic)")
    offset = len(MAGIC)
    (header_len,) = _HEADER_LEN.unpack_from(buffer, offset)
    offset += _HEADER_LEN.size
    try:
        header = json.loads(buffer[offset : offset + header_len])
    except ValueError as exc:
        raise ColumnarFormatError(f"malformed buffer header: {exc}") from None
    if header.get("v") != FORMAT_VERSION:
        raise ColumnarFormatError(
            f"unsupported columnar format version {header.get('v')!r}"
        )
    offset += header_len
    const_blob, offset = _read_blob(buffer, offset)
    labels_blob, offset = _read_blob(buffer, offset)
    skolem_blob, offset = _read_blob(buffer, offset)

    raw_constants = pickle.loads(const_blob) if const_blob else []
    labels = array("q")
    labels.frombytes(labels_blob)
    skolems = pickle.loads(skolem_blob) if skolem_blob else []
    if len(raw_constants) != header["consts"] or len(labels) != header["labeled"]:
        raise ColumnarFormatError("value table does not match header counts")
    for skolem in skolems:
        if type(skolem) is not SkolemValue:
            raise ColumnarFormatError(f"not a Skolem value: {skolem!r}")
    return header, raw_constants, labels, skolems, offset


def _decode_columns(
    buffer: bytes, header: dict, offset: int
) -> Iterator[tuple[str, int, int, list[array]]]:
    """Yield each relation's raw column arrays from the buffer tail."""
    code = header["width"]
    item_size = array(code).itemsize
    for name, arity, nrows in header["rels"]:
        cols = []
        for _ in range(arity):
            end = offset + nrows * item_size
            if end > len(buffer):
                raise ColumnarFormatError("flat buffer truncated inside columns")
            col = array(code)
            col.frombytes(buffer[offset:end])
            cols.append(col)
            offset = end
        yield name, arity, nrows, cols


def unpack_instance(buffer: bytes | bytearray | memoryview) -> "Instance":
    """Decode a flat buffer into a store-backed instance, deferring values.

    The id columns are decoded and structurally validated at once, but
    the value table, the value → id map and the value-tuple rows stay as
    raw parts until someone reads them.  Rows are trusted — they were
    validated when the packing side built its instance.  The id-space
    chase fast path (:func:`repro.mapping.chase.chase`) joins premises
    over the columns and copies the raw parts into its solution store,
    so none of those ever materialize.

    The buffer's ``canon`` header carries over: a buffer packed from a
    canonical store decodes to a store whose table order is the
    ``value_sort_key`` order, which the chase fast path relies on for
    firing-order (and so null-naming) parity with the value-space
    engine.
    """
    from .instance import Instance
    from .serialization import schema_from_json

    buffer = bytes(buffer)
    header, raw_constants, labels, skolems, offset = _read_raw_table(buffer)
    schema = schema_from_json(header["schema"])
    code = header["width"]
    table_size = len(raw_constants) + len(labels) + len(skolems)
    counts: dict[str, int] = {}
    cols_by_rel: dict[str, tuple[array, ...]] = {}
    for name, arity, nrows, cols in _decode_columns(buffer, header, offset):
        if name not in schema:
            raise ColumnarFormatError(f"buffer names unknown relation {name!r}")
        if arity != schema[name].arity:
            raise ColumnarFormatError(
                f"arity mismatch for {name!r}: schema says "
                f"{schema[name].arity}, buffer says {arity}"
            )
        for col in cols:
            if table_size <= (max(col) if col else -1):
                raise ColumnarFormatError("column id outside the value table")
        counts[name] = nrows
        cols_by_rel[name] = tuple(cols)
    for name in schema.relation_names:
        if name not in counts:
            counts[name] = 0
            cols_by_rel[name] = tuple(
                array(code) for _ in range(schema[name].arity)
            )
    store = ColumnStore(
        schema,
        raw_constants,
        labels,
        skolems,
        counts,
        cols_by_rel,
        canonical=bool(header.get("canon", True)),
    )
    return Instance._from_store(schema, store)
