"""An egd that merges two labelled nulls keeps the first-minted one.

Set iteration order follows ``PYTHONHASHSEED``, so an egd step that kept
whichever null the premise's first binding named printed a different
solution from one process to the next.  Each seed runs in its own
interpreter here, so each sees its own set order.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

SCRIPT = r"""
from repro.logic.parser import parse_conjunction
from repro.logic.terms import Var
from repro.mapping import SchemaMapping, chase
from repro.mapping.dependencies import Egd
from repro.relational import instance, relation, schema

SRC = schema(relation("A", "x"), relation("K", "x"))
TGT = schema(relation("B", "x", "y"))
KEY = Egd(parse_conjunction("B(x, y), B(x, z)"), Var("y"), Var("z"))
MAPPING = SchemaMapping.parse(
    SRC, TGT, "A(x) -> exists y . B(x, y)\nK(x) -> exists y . B(x, y)", [KEY]
)
SOURCE = instance(SRC, {"A": [["1"]], "K": [["1"]]})
for fact in chase(MAPPING, SOURCE).solution.facts():
    print(fact)
"""


@pytest.mark.parametrize("seed", range(6))
def test_null_merge_keeps_the_first_minted_null(seed):
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=str(SRC_DIR))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert done.stdout.splitlines() == ["B('1', ⊥0)"]
