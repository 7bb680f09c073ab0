"""The columnar storage engine and its flat-buffer codec.

Covers :class:`~repro.relational.columnar.ColumnStore` construction,
packing, the deferred unpack, and the structural validation
every buffer goes through on decode.
"""

import pytest
from array import array

from repro.relational import instance, relation, schema
from repro.relational.columnar import (
    ColumnarFormatError,
    ColumnStore,
    pack_instance,
    unpack_instance,
    width_code,
)
from repro.relational.instance import Instance
from repro.relational.values import (
    Constant,
    LabeledNull,
    SkolemValue,
    constant,
)


S = schema(relation("R", "a", "b"), relation("S", "a"))


def corrupt(buffer: bytes, **header_edits) -> bytes:
    """Re-assemble *buffer* with JSON header fields swapped out."""
    import json
    import struct

    magic_len = 6
    (header_len,) = struct.unpack_from("<I", buffer, magic_len)
    start = magic_len + 4
    header = json.loads(buffer[start : start + header_len])
    header.update(header_edits)
    new_header = json.dumps(header, separators=(",", ":")).encode()
    return (
        buffer[:magic_len]
        + struct.pack("<I", len(new_header))
        + new_header
        + buffer[start + header_len :]
    )


def mixed_instance():
    return instance(
        S,
        {
            "R": [["x", "y"], ["x", LabeledNull(3)], [7, True]],
            "S": [[LabeledNull(1)], ["z"]],
        },
    )


class TestBuild:
    def test_regions_are_contiguous(self):
        store = mixed_instance().columnar()
        values = store.values
        consts = values[: store.constant_count]
        nulls = values[
            store.constant_count : store.constant_count + store.labeled_count
        ]
        assert all(type(v) is Constant for v in consts)
        assert all(type(v) is LabeledNull for v in nulls)
        assert store.skolem_count() == 0

    def test_canonical_and_attached(self):
        inst = mixed_instance()
        store = inst.columnar()
        assert store.canonical
        assert inst.columnar_store is store
        assert inst.columnar() is store  # memoized

    def test_equal_instances_build_identical_tables(self):
        a = instance(S, {"R": [["x", "y"], ["p", "q"]]})
        b = instance(S, {"R": [["p", "q"], ["x", "y"]]})
        sa, sb = a.columnar(), b.columnar()
        assert sa.values == sb.values
        assert [list(c) for c in sa.columns["R"]] == [
            list(c) for c in sb.columns["R"]
        ]

    def test_id_rows_round_trip_values(self):
        inst = mixed_instance()
        store = inst.columnar()
        lookup = store.values.__getitem__
        rebuilt = {
            tuple(lookup(i) for i in row) for row in store.id_rows("R")
        }
        assert rebuilt == set(inst.rows("R"))

    def test_is_constant_is_an_id_comparison(self):
        store = mixed_instance().columnar()
        for ident, value in enumerate(store.values):
            assert (ident < store.constant_count) == (type(value) is Constant)

    def test_index_maps_keys_to_row_positions(self):
        inst = instance(S, {"R": [["x", "y"], ["x", "z"], ["w", "y"]]})
        store = inst.columnar()
        idx = store.index("R", (0,))
        x_id = store.peek(constant("x"))
        positions = idx[(x_id,)]
        assert len(positions) == 2
        assert store.index("R", (0,)) is idx  # cached

    def test_peek_never_interns(self):
        store = mixed_instance().columnar()
        before = store.table_size()
        assert store.peek(constant("not-there")) is None
        assert store.peek_raw(object()) is None  # unhashable-safe path
        assert store.table_size() == before

    def test_width_code_steps(self):
        assert width_code(10) == "B"
        assert width_code(1 << 8) == "B"
        assert width_code((1 << 8) + 1) == "H"
        assert width_code((1 << 16) + 1) == "I"
        assert width_code((1 << 32) + 1) == "Q"


class TestPackUnpack:
    def test_round_trip_same_facts(self):
        inst = mixed_instance()
        decoded = unpack_instance(pack_instance(inst))
        assert decoded.same_facts(inst)

    def test_canonical_buffer_decodes_canonical(self):
        buffer = pack_instance(mixed_instance())
        assert unpack_instance(buffer).columnar_store.canonical

    def test_skolem_values_survive(self):
        sk = SkolemValue("f", (constant("x"),))
        inst = Instance(S, {"S": {(sk,)}})
        assert unpack_instance(pack_instance(inst)).same_facts(inst)

    def test_pack_is_memoized(self):
        store = mixed_instance().columnar()
        assert store.pack() is store.pack()


class TestLazyUnpack:
    def test_round_trip_same_facts(self):
        inst = mixed_instance()
        lazy = unpack_instance(pack_instance(inst))
        assert lazy.same_facts(inst)

    def test_decode_defers_the_value_table(self):
        lazy = unpack_instance(pack_instance(mixed_instance()))
        store = lazy.columnar_store
        assert store._table is None  # nothing materialized yet
        assert store.size() == mixed_instance().size()
        assert store.table_size() == len(store.values)  # forces, then agrees

    def test_canon_header_carries_over(self):
        canonical = pack_instance(mixed_instance())
        assert unpack_instance(canonical).columnar_store.canonical
        emitted = corrupt(canonical, canon=False)
        assert not unpack_instance(emitted).columnar_store.canonical

    def test_deferred_repack_round_trips(self):
        # a lazily decoded instance that is packed again without ever
        # materializing values
        inst = mixed_instance()
        lazy = unpack_instance(pack_instance(inst))
        again = unpack_instance(lazy.columnar_store.pack())
        assert again.same_facts(inst)
        assert again.columnar_store.canonical

    def test_max_labeled_null_without_values(self):
        inst = instance(S, {"S": [[LabeledNull(5)], [LabeledNull(2)], ["z"]]})
        store = unpack_instance(pack_instance(inst)).columnar_store
        assert store.max_labeled_null() == 5
        assert store._table is None  # answered from raw parts

    def test_max_labeled_null_empty(self):
        inst = instance(S, {"R": [["a", "b"]]})
        store = unpack_instance(pack_instance(inst)).columnar_store
        assert store.max_labeled_null() == -1

    def test_missing_relations_decode_empty(self):
        # R is empty, so dropping it from the header leaves no columns behind
        buffer = corrupt(
            pack_instance(instance(S, {"S": [["z"]]})), rels=[["S", 1, 1]]
        )
        lazy = unpack_instance(buffer)
        assert lazy.rows("R") == frozenset()
        assert lazy.rows("S") == frozenset({(constant("z"),)})

    def test_raw_parts_answer_without_values(self):
        inst = mixed_instance()
        store = unpack_instance(pack_instance(inst)).columnar_store
        assert sorted(store.null_labels()) == [1, 3]
        assert set(store.raw_constants()) >= {"x", "y", "z", 7, True}
        assert store._table is None


class TestValidation:
    def test_bad_magic(self):
        with pytest.raises(ColumnarFormatError, match="magic"):
            unpack_instance(b"NOPE" + b"\x00" * 32)

    def test_bad_version(self):
        buffer = corrupt(pack_instance(mixed_instance()), v=99)
        with pytest.raises(ColumnarFormatError, match="version"):
            unpack_instance(buffer)

    def test_truncated_columns(self):
        buffer = pack_instance(mixed_instance())
        with pytest.raises(ColumnarFormatError, match="truncated"):
            unpack_instance(buffer[:-3])

    def test_unknown_relation(self):
        buffer = pack_instance(instance(schema(relation("T", "a")), {"T": [["v"]]}))
        with pytest.raises(ColumnarFormatError, match="unknown relation"):
            # decode against a schema that has no T
            unpack_instance(
                corrupt(
                    buffer,
                    schema=_schema_json(schema(relation("U", "a"))),
                )
            )

    def test_arity_mismatch(self):
        buffer = pack_instance(instance(schema(relation("R", "a")), {"R": [["v"]]}))
        with pytest.raises(ColumnarFormatError, match="arity mismatch"):
            unpack_instance(
                corrupt(
                    buffer, schema=_schema_json(schema(relation("R", "a", "b")))
                )
            )

    def test_id_out_of_table_bounds(self):
        buffer = pack_instance(instance(schema(relation("R", "a")), {"R": [["v"]]}))
        # claim an empty value table; the column id 0 now dangles
        bad = corrupt(buffer, consts=0)
        with pytest.raises(ColumnarFormatError):
            unpack_instance(bad)


def _schema_json(s):
    from repro.relational.serialization import schema_to_json

    return schema_to_json(s)
