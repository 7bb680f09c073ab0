"""Property-based tests (hypothesis): sqlite backend vs interpreted chase.

For random mappings and ground sources, the SQL-compiled exchange must
be homomorphically equivalent to the interpreted chase — same certain
answers, different null names.  On laconic-eligible mappings (single-atom
conclusion blocks, no target dependencies — exactly what
``random_mapping`` generates) the backend additionally promises the
**core**: no proper endomorphism, and never more facts than the chase.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import compile_mapping
from repro.backends.sqlite_backend import SqliteBackend
from repro.mapping import universal_solution
from repro.relational import homomorphically_equivalent
from repro.relational.homomorphism import is_core
from repro.workloads.generators import (
    random_instance,
    random_mapping,
    random_schema,
)

seeds = st.integers(min_value=0, max_value=300)


def _workload(seed):
    rng = random.Random(seed)
    source_schema = random_schema(rng, 3, prefix="S")
    target_schema = random_schema(rng, 3, prefix="T")
    mapping = random_mapping(source_schema, target_schema, rng, n_tgds=3)
    source = random_instance(source_schema, rng, rows_per_relation=5)
    return mapping, source


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_sqlite_backend_equivalent_to_interpreted_chase(seed):
    mapping, source = _workload(seed)
    program, report = compile_mapping(mapping)
    # random_mapping emits single-target-atom tgds with no target
    # dependencies, so the laconic rewrite always applies.
    assert report.compilable and report.laconic, report.summary()
    sql = SqliteBackend(mapping, program).exchange(source)
    interpreted = universal_solution(mapping, source)
    assert homomorphically_equivalent(sql, interpreted)


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_sqlite_backend_computes_the_core_on_laconic_mappings(seed):
    mapping, source = _workload(seed)
    program, report = compile_mapping(mapping)
    assert report.laconic
    sql = SqliteBackend(mapping, program).exchange(source)
    interpreted = universal_solution(mapping, source)
    # Core minimality: no proper endomorphism, and the core is never
    # bigger than the naive chase result it is equivalent to.
    assert is_core(sql)
    assert sql.size() <= interpreted.size()
    assert homomorphically_equivalent(sql, interpreted)
