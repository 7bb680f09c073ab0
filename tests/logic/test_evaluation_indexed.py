"""Indexed evaluation vs the seed scan evaluator: they must agree exactly.

The indexed engine (:func:`repro.logic.evaluation.evaluate`) plans a join
order once and probes hash indexes; the seed engine
(:func:`~repro.logic.evaluation.evaluate_scan`) re-picks the most-bound
atom per recursion step and scans.  Every test here asserts the two
return *identical binding sets* — the property the chase relies on for
byte-identical universal solutions.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.evaluation import (
    _ID_CHUNK,
    evaluate,
    evaluate_delta,
    evaluate_premise_ids,
    evaluate_scan,
    set_indexes_enabled,
)
from repro.logic.formulas import Conjunction, ConstantPredicate, Equality, atom, conj
from repro.logic.parser import parse_conjunction
from repro.logic.terms import FuncTerm, Var, const
from repro.obs import MetricsRegistry, collecting
from repro.relational import Fact, Instance, LabeledNull, constant, instance, relation, schema
from repro.relational.values import SkolemValue


def binding_set(bindings):
    """Bindings as a canonical, comparable set."""
    return {tuple(sorted((v.name, value) for v, value in b.items())) for b in bindings}


def assert_same(conjunction, inst, seed=None):
    indexed = binding_set(evaluate(conjunction, inst, seed, use_indexes=True))
    planned_scan = binding_set(evaluate(conjunction, inst, seed, use_indexes=False))
    reference = binding_set(evaluate_scan(conjunction, inst, seed))
    assert indexed == reference
    assert planned_scan == reference
    return indexed


@pytest.fixture
def joined():
    s = schema(
        relation("Emp", "name", "dept"),
        relation("Dept", "dept", "head"),
        relation("Likes", "a", "b"),
    )
    return instance(
        s,
        {
            "Emp": [["ann", "d1"], ["bob", "d2"], ["cyd", "d1"], ["dee", "d3"]],
            "Dept": [["d1", "hana"], ["d2", "hugo"], ["d3", "hana"]],
            "Likes": [["ann", "bob"], ["bob", "bob"], ["cyd", "ann"]],
        },
    )


class TestCrossCheck:
    def test_two_atom_join(self, joined):
        out = assert_same(parse_conjunction("Emp(n, d), Dept(d, h)"), joined)
        assert len(out) == 4

    def test_three_atom_join(self, joined):
        assert_same(parse_conjunction("Emp(n, d), Dept(d, h), Likes(n, m)"), joined)

    def test_seeded_bindings(self, joined):
        c = parse_conjunction("Emp(n, d), Dept(d, h)")
        seed = {Var("d"): constant("d1")}
        out = assert_same(c, joined, seed)
        assert len(out) == 2

    def test_seed_variable_not_in_conjunction(self, joined):
        c = parse_conjunction("Dept(d, h)")
        seed = {Var("zzz"): constant("ghost")}
        out = assert_same(c, joined, seed)
        # The unrelated seed variable rides along in every binding.
        assert all(("zzz", constant("ghost")) in b for b in out)

    def test_repeated_variable_across_atoms(self, joined):
        # x must be a self-liker and an employee.
        out = assert_same(parse_conjunction("Likes(x, x), Emp(x, d)"), joined)
        assert len(out) == 1

    def test_repeated_variable_within_atom(self, joined):
        out = assert_same(parse_conjunction("Likes(x, x)"), joined)
        assert len(out) == 1

    def test_constants_prune(self, joined):
        c = conj(atom("Emp", "n", const("d1")), atom("Dept", const("d1"), "h"))
        out = assert_same(c, joined)
        assert len(out) == 2

    def test_absent_relation(self, joined):
        assert_same(parse_conjunction("Emp(n, d), Ghost(d)"), joined) == set()

    def test_empty_conjunction_with_seed(self, joined):
        out = assert_same(Conjunction(()), joined, {Var("x"): constant(1)})
        assert len(out) == 1

    def test_funcparam_unbound_at_match_time(self):
        # f(y)'s argument is never bound when the R atom is matched: both
        # engines greedily pick R first (FuncTerm scores above nothing),
        # the term evaluation raises KeyError internally, and the match
        # fails — identically in both engines.
        s = schema(relation("R", "a", "b"), relation("S", "c"))
        sk = SkolemValue("f", (constant(7),))
        inst = Instance(
            s, [Fact("R", (constant(1), sk)), Fact("S", (constant(7),))]
        )
        c = conj(atom("R", "x", FuncTerm("f", (Var("y"),))), atom("S", "y"))
        assert_same(c, inst)

    def test_funcparam_bound_by_seed(self):
        s = schema(relation("R", "a", "b"))
        sk = SkolemValue("f", (constant(7),))
        inst = Instance(s, [Fact("R", (constant(1), sk))])
        c = conj(atom("R", "x", FuncTerm("f", (Var("y"),))))
        out = assert_same(c, inst, seed={Var("y"): constant(7)})
        assert len(out) == 1

    def test_side_conditions(self, joined):
        c = conj(
            atom("Emp", "n", "d"),
            atom("Dept", "d", "h"),
            Equality(Var("h"), const("hana")),
            ConstantPredicate(Var("n")),
        )
        out = assert_same(c, joined)
        assert len(out) == 3

    def test_nulls_in_index_keys(self):
        s = schema(relation("A", "x"), relation("B", "x"))
        inst = Instance(
            s,
            [
                Fact("A", (LabeledNull(0),)),
                Fact("B", (LabeledNull(0),)),
                Fact("B", (LabeledNull(1),)),
            ],
        )
        out = assert_same(parse_conjunction("A(x), B(x)"), inst)
        assert len(out) == 1


class TestDelta:
    def test_delta_union_equals_full(self, joined):
        """evaluate(old) ∪ evaluate_delta(new, delta) == evaluate(new)."""
        c = parse_conjunction("Emp(n, d), Dept(d, h)")
        old = joined.without_facts([Fact("Emp", (constant("cyd"), constant("d1")))])
        grown = old.with_facts([Fact("Emp", (constant("cyd"), constant("d1")))])
        delta = {"Emp": {(constant("cyd"), constant("d1"))}}
        full = binding_set(evaluate(c, grown))
        stale = binding_set(evaluate(c, old))
        fresh = binding_set(evaluate_delta(c, grown, delta))
        assert stale | fresh == full
        # The delta pass enumerates only the new employee's bindings.
        assert all(("n", constant("cyd")) in b for b in fresh)

    def test_delta_dedupes_across_atoms(self):
        s = schema(relation("R", "a", "b"))
        inst = instance(s, {"R": [[1, 2], [2, 3]]})
        c = parse_conjunction("R(x, y), R(y, z)")
        # Both atoms read R, so a binding touching two delta rows is
        # discoverable twice — it must come out once.
        delta = {"R": set(inst.rows("R"))}
        fresh = list(evaluate_delta(c, inst, delta))
        assert len(fresh) == len(binding_set(fresh)) == 1


class TestMetrics:
    def test_index_counters_recorded(self, joined):
        with collecting() as registry:
            list(evaluate(parse_conjunction("Emp(n, d), Dept(d, h)"), joined))
            counters = registry.snapshot()["counters"]
        assert counters["evaluate.calls"] == 1
        assert counters["evaluate.index_builds"] >= 1
        assert counters["evaluate.index_probes"] >= 3
        assert counters["evaluate.index_hits"] >= 1

    def test_scan_mode_records_no_probes(self, joined):
        with collecting() as registry:
            list(
                evaluate(
                    parse_conjunction("Emp(n, d), Dept(d, h)"),
                    joined,
                    use_indexes=False,
                )
            )
            counters = registry.snapshot()["counters"]
        assert "evaluate.index_probes" not in counters
        assert counters["evaluate.rows_scanned"] >= 4

    def test_set_indexes_enabled_toggle(self, joined):
        try:
            set_indexes_enabled(False)
            with collecting() as registry:
                list(evaluate(parse_conjunction("Emp(n, d), Dept(d, h)"), joined))
                assert "evaluate.index_probes" not in registry.snapshot()["counters"]
        finally:
            set_indexes_enabled(None)


# -- property-style cross-check ---------------------------------------------

_VALUES = st.one_of(
    st.integers(min_value=0, max_value=4),
    st.sampled_from(["a", "b", "c"]),
    st.builds(LabeledNull, st.integers(min_value=0, max_value=2)),
)
_ROWS2 = st.lists(st.tuples(_VALUES, _VALUES), max_size=8)
_ROWS1 = st.lists(st.tuples(_VALUES), max_size=6)
_VARS = st.sampled_from(["x", "y", "z", "w"])


@st.composite
def _random_case(draw):
    s = schema(relation("R", "a", "b"), relation("S", "c", "d"), relation("T", "e"))
    facts = []
    for name, rows in (("R", draw(_ROWS2)), ("S", draw(_ROWS2)), ("T", draw(_ROWS1))):
        for row in rows:
            facts.append(
                Fact(
                    name,
                    tuple(v if isinstance(v, LabeledNull) else constant(v) for v in row),
                )
            )
    inst = Instance(s, facts)
    atoms = []
    for rel, arity in draw(
        st.lists(
            st.sampled_from([("R", 2), ("S", 2), ("T", 1)]), min_size=1, max_size=3
        )
    ):
        names = [draw(_VARS) for _ in range(arity)]
        atoms.append(atom(rel, *names))
    return inst, conj(*atoms)


@settings(max_examples=60, deadline=None)
@given(_random_case())
def test_property_indexed_equals_scan(case):
    inst, conjunction = case
    assert_same(conjunction, inst)


# -- the id-space join on store-attached instances ---------------------------


def stored(inst):
    """An equal instance with its canonical column store attached."""
    copy = Instance(inst.schema, list(inst.facts()))
    copy.columnar()
    return copy


def premise_binding_set(conjunction, inst):
    """:func:`evaluate_premise_ids`' id columns as a value binding set."""
    variables, columns, count = evaluate_premise_ids(conjunction, inst)
    values = inst.columnar_store.values
    rows = list(zip(*columns)) if variables else [()] * count
    assert len(rows) == count
    out = {
        tuple(sorted((v.name, values[i]) for v, i in zip(variables, row)))
        for row in rows
    }
    assert len(out) == count  # no binding twice
    return out


def assert_id_join_agrees(conjunction, inst):
    """Both id-space entry points agree with the scan oracle."""
    reference = binding_set(evaluate_scan(conjunction, inst))
    with_store = stored(inst)
    assert binding_set(evaluate(conjunction, with_store)) == reference
    assert premise_binding_set(conjunction, with_store) == reference
    return reference


class TestStoreAttached:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("Emp(n, d), Dept(d, h)", 4),
            ("Emp(n, d), Dept(d, h), Likes(n, m)", 3),
            ("Likes(x, y), Likes(y, z), Likes(z, w)", 3),
            ("Likes(x, x)", 1),
            ("Likes(x, x), Emp(x, d)", 1),
            ('Emp(n, "d1"), Dept("d1", h)', 2),
            ('Emp(n, "nowhere")', 0),
            ('Likes(x, y), Emp(y, "d2")', 2),
            ("Emp(a, b), Likes(c, d)", 12),
        ],
    )
    def test_agrees_with_scan(self, joined, text, expected):
        out = assert_id_join_agrees(parse_conjunction(text), joined)
        assert len(out) == expected

    def test_empty_relation(self, joined):
        s = schema(relation("Emp", "name", "dept"), relation("Dept", "dept", "head"))
        inst = Instance(s, {"Emp": joined.rows("Emp")})
        conjunction = parse_conjunction("Emp(n, d), Dept(d, h)")
        assert assert_id_join_agrees(conjunction, inst) == set()

    def test_nulls_join_by_id(self):
        s = schema(relation("A", "x"), relation("B", "x", "y"))
        inst = Instance(
            s,
            [
                Fact("A", (LabeledNull(0),)),
                Fact("B", (LabeledNull(0), constant("p"))),
                Fact("B", (LabeledNull(1), constant("q"))),
            ],
        )
        assert len(assert_id_join_agrees(parse_conjunction("A(x), B(x, y)"), inst)) == 1

    @pytest.mark.parametrize("entry", ["evaluate", "premise_ids"])
    def test_counters_pinned(self, joined, entry):
        # Dept is scanned (3 rows), then Emp probed once per department:
        # the nested-loop counts, whichever join computes them.
        with_store = stored(joined)
        conjunction = parse_conjunction("Emp(n, d), Dept(d, h), Likes(n, m)")
        with collecting() as registry:
            if entry == "evaluate":
                list(evaluate(conjunction, with_store))
            else:
                evaluate_premise_ids(conjunction, with_store)
            counters = registry.snapshot()["counters"]
        assert counters["evaluate.id_joins"] == 1
        assert counters["evaluate.rows_scanned"] == 10
        assert counters["evaluate.index_probes"] == 7
        assert counters["evaluate.index_hits"] == 6
        assert counters["evaluate.index_misses"] == 1

    def test_two_atom_counters_pinned(self, joined):
        with collecting() as registry:
            list(evaluate(parse_conjunction("Emp(n, d), Dept(d, h)"), stored(joined)))
            counters = registry.snapshot()["counters"]
        assert counters["evaluate.rows_scanned"] == 7
        assert counters["evaluate.index_probes"] == 3
        assert counters["evaluate.index_hits"] == 3
        assert "evaluate.index_misses" not in counters

    def test_early_stop_joins_one_chunk(self):
        s = schema(relation("R", "a"), relation("S", "a", "b"))
        rows = 3 * _ID_CHUNK
        inst = instance(
            s, {"R": [[i] for i in range(rows)], "S": [[i, -i] for i in range(rows)]}
        )
        inst.columnar()
        with collecting() as registry:
            bindings = evaluate(parse_conjunction("R(x), S(x, y)"), inst)
            assert next(bindings)
            bindings.close()
            counters = registry.snapshot()["counters"]
        # R drives; only its first chunk probed S
        assert counters["evaluate.index_probes"] == _ID_CHUNK


_TERMS = st.one_of(
    _VARS,
    _VARS,
    st.sampled_from(["a", 1, "absent", 99]).map(const),
)


@st.composite
def _random_stored_case(draw):
    inst, _ = draw(_random_case())
    atoms = []
    for rel, arity in draw(
        st.lists(
            st.sampled_from([("R", 2), ("S", 2), ("T", 1)]), min_size=1, max_size=3
        )
    ):
        atoms.append(atom(rel, *(draw(_TERMS) for _ in range(arity))))
    return inst, conj(*atoms)


@settings(max_examples=80, deadline=None)
@given(_random_stored_case())
def test_property_id_join_equals_scan(case):
    inst, conjunction = case
    assert_id_join_agrees(conjunction, inst)
