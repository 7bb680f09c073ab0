"""A sqlite answer is the same bytes whatever the hash seed.

The backend loads the ids of the source's canonical column store, whose
value table is sorted, so fresh nulls get the same labels in every
process.  A source built from Python values (no store attached yet)
used to be numbered in its frozensets' iteration order, which follows
``PYTHONHASHSEED``.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

SCRIPT = r"""
from repro.backends import compile_mapping
from repro.backends.sqlite_backend import SqliteBackend
from repro.mapping import SchemaMapping
from repro.relational import Instance, relation, schema
from repro.relational.serialization import instance_json_text
from repro.relational.values import Constant, LabeledNull

SRC = schema(relation("Emp", "n", "d"), relation("Dept", "d", "h"))
TGT = schema(relation("Office", "n", "h", "o"), relation("Unplaced", "n", "o"))
MAPPING = SchemaMapping.parse(
    SRC,
    TGT,
    "Emp(n, d), Dept(d, h) -> exists o . Office(n, h, o)\n"
    "Emp(n, d) -> exists o . Unplaced(n, o)",
)
ROWS = {
    "Emp": [(Constant(f"e{i}"), Constant(f"d{i % 7}")) for i in range(40)]
    + [(LabeledNull(5), Constant("d1"))],
    "Dept": [(Constant(f"d{j}"), Constant(f"h{j}")) for j in range(5)],
}
program, _ = compile_mapping(MAPPING)
answer = SqliteBackend(MAPPING, program).exchange(Instance(SRC, ROWS))
print(instance_json_text(answer))
"""


def answer_text(seed):
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=str(SRC_DIR))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return done.stdout


def test_two_hash_seeds_give_identical_sqlite_answers():
    zero, one = answer_text(0), answer_text(1)
    assert '"Office"' in zero and '"Unplaced"' in zero
    assert zero == one
