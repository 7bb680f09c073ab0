"""The id-space chase's column emit against the value-space engine.

Each conclusion column is built whole: frontier columns from the sorted
premise bindings, constants as repeats, fresh nulls as ``range`` blocks,
existential-free rows deduped across tgds.  The mapping here exercises
every column kind at once — conclusion constants new to the source
(which shift the source's null ids), source nulls, a duplicated
conclusion atom, a variable repeated in a premise atom, a zero-arity
target relation and existential-free relations fed by several tgds —
and the solution must equal the value-space engine's exactly, invented
null labels included.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.formulas import atom, conj
from repro.logic.parser import parse_conjunction
from repro.mapping import SchemaMapping, universal_solution
from repro.mapping.sttgd import StTgd
from repro.relational import Fact, Instance, LabeledNull, constant, relation, schema

SRC = schema(relation("R", "a", "b"), relation("S", "b", "c"))
TGT = schema(
    relation("T", "x", "y"),
    relation("U", "x"),
    relation("F"),
    relation("V", "x", "y", "z"),
)
TEXT = """
R(x, y) -> exists z . T(x, z), U(x)
R(x, y), S(y, w) -> T(x, "k"), U(w)
S(y, w) -> exists z1, z2 . V(y, z1, z2), V(y, z1, z2), U("k")
R(x, x) -> T(x, x)
R("a", y) -> U(y)
"""


def mapping() -> SchemaMapping:
    parsed = SchemaMapping.parse(SRC, TGT, TEXT)
    # the parser has no zero-arity atoms; build that tgd directly
    flag = StTgd(
        parse_conjunction("R(x, y), S(y, w)"), conj(atom("F"), atom("U", "w"))
    )
    return SchemaMapping(SRC, TGT, [*parsed.tgds, flag])


cells = st.one_of(
    st.sampled_from(["a", "b", "c", 1, 2]).map(constant),
    st.builds(LabeledNull, st.integers(min_value=0, max_value=3)),
)
pairs = st.lists(st.tuples(cells, cells), max_size=8)


@settings(max_examples=120, deadline=None)
@given(pairs, pairs)
def test_column_emit_equals_value_engine(r_rows, s_rows):
    facts = [Fact("R", row) for row in r_rows] + [Fact("S", row) for row in s_rows]
    plain = Instance(SRC, facts)
    stored = Instance(SRC, facts)
    stored.columnar()
    fast = universal_solution(mapping(), stored)
    assert fast.columnar_store is not None  # the id-space path ran
    assert fast == universal_solution(mapping(), plain)
