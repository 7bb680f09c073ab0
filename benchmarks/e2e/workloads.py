"""The four workloads: their inputs, sizes and answer checks.

Every input is a function of ``--seed`` (and the workload's shape)
alone; the program under test only ever receives the generated request
bodies and source instances, never the seed or a workload name.

Answer checking.  ``canonically_equal`` computes cores and enumerates
null orderings; it took 0.5 s at 20 target facts, 14 s at 50 and 218 s
at 100 on a 2-core host, so it cannot check a 100-fact answer inside a
run.  Both mappings here invent exactly one null per target fact and
every generated employee name is unique, so each canonical solution is
its own core and every null occurs once.  For such instances canonical
equality is isomorphism, and isomorphism is equality of the multisets
of facts with their nulls erased — plus every null occurring exactly
once on both sides.  :func:`solution_digest` computes that multiset as
one digest, and the reference side is checked to satisfy the
precondition.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from repro.mapping import SchemaMapping
from repro.options import ExchangeOptions
from repro.relational import Instance
from repro.relational.serialization import schema_from_json, schema_to_json
from repro.relational.values import Constant

MAPPINGS = Path(__file__).resolve().parent / "mappings"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "serve" or "library"
    mapping: str  # file stem under mappings/
    emp_rows: int
    dept_rows: int = 0
    pool: int = 0  # distinct sources requests draw from; 0 = fresh per request
    stream: bool = True
    options: tuple[tuple[str, Any], ...] = ()  # ExchangeOptions fields
    warmup_s: float = 3.0

    @property
    def expected_facts(self) -> int:
        """Target facts per answer: one per employee (depts always exist)."""
        return self.emp_rows

    def exchange_options(self) -> ExchangeOptions:
        return ExchangeOptions(**dict(self.options))

    def server_flags(self) -> list[str]:
        """The ``repro serve`` flags that set :meth:`exchange_options`."""
        return [arg for key, value in self.options for arg in (f"--{key}", str(value))]

    def smoke(self) -> "Workload":
        """The same workload at sizes that run in about a second."""
        return replace(
            self,
            emp_rows=min(self.emp_rows, 40 if self.kind == "serve" else 400),
            dept_rows=min(self.dept_rows, 5),
            pool=min(self.pool, 3),
            warmup_s=0.3,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("serve_small", "serve", "e1", emp_rows=100),
        Workload(
            "serve_repeat",
            "serve",
            "join",
            emp_rows=1000,
            dept_rows=50,
            pool=8,
            stream=False,
            options=(("workers", 2), ("cache", 64)),
        ),
        Workload(
            "exchange_join",
            "library",
            "join",
            emp_rows=100_000,
            dept_rows=5_000,
            options=(("workers", 2),),
        ),
        Workload(
            "exchange_join_sqlite",
            "library",
            "join",
            emp_rows=100_000,
            dept_rows=5_000,
            options=(("backend", "sqlite"),),
        ),
    )
}


def mapping_files(workload: Workload) -> tuple[Path, Path]:
    return MAPPINGS / f"{workload.mapping}.schemas.json", MAPPINGS / f"{workload.mapping}.tgd"


def load_mapping(workload: Workload) -> SchemaMapping:
    schemas_path, tgd_path = mapping_files(workload)
    schemas = json.loads(schemas_path.read_text())
    return SchemaMapping.parse(
        schema_from_json(schemas["source"]),
        schema_from_json(schemas["target"]),
        tgd_path.read_text(),
    )


# -- seeded inputs --------------------------------------------------------------


def _names(rng: random.Random, count: int) -> list[str]:
    """*count* distinct employee names (uniqueness keeps answers cores)."""
    return [f"e{v:010x}" for v in rng.sample(range(1 << 40), count)]


def source_rows(workload: Workload, rng: random.Random) -> dict[str, list[tuple]]:
    """One source for *workload*, as rows per relation."""
    names = _names(rng, workload.emp_rows)
    if workload.mapping == "e1":
        return {"Emp": [(n,) for n in names]}
    heads = [f"h{rng.getrandbits(32):08x}" for _ in range(workload.dept_rows)]
    return {
        "Emp": [(n, f"d{rng.randrange(workload.dept_rows)}") for n in names],
        "Dept": [(f"d{j}", head) for j, head in enumerate(heads)],
    }


def library_rows(workload: Workload, seed: int) -> dict[str, list[tuple]]:
    # Both library workloads share this stream: same inputs, two backends.
    return source_rows(workload, random.Random(f"exchange_join/{seed}"))


class RequestStream:
    """The request bodies of one serve workload, in issue order.

    ``serve_small`` draws a fresh source per request; ``serve_repeat``
    draws uniformly from ``pool`` seeded sources.  ``body(i)`` and
    ``source_of(i)`` depend on the seed and *i* only.
    """

    def __init__(self, workload: Workload, seed: int, mapping: SchemaMapping) -> None:
        self.workload = workload
        self.seed = seed
        self.mapping = mapping
        self._schema_json = schema_to_json(mapping.source)
        self._picks = random.Random(f"{workload.name}/{seed}/picks")
        self._pick_log: list[int] = []
        self._pool_bodies = [
            self._encode(self.pool_rows(k)) for k in range(workload.pool)
        ]

    def pool_rows(self, k: int) -> dict[str, list[tuple]]:
        return source_rows(
            self.workload, random.Random(f"{self.workload.name}/{self.seed}/source{k}")
        )

    def rows(self, index: int) -> dict[str, list[tuple]]:
        if self.workload.pool:
            return self.pool_rows(self.source_of(index))
        return source_rows(
            self.workload, random.Random(f"{self.workload.name}/{self.seed}/{index}")
        )

    def source_of(self, index: int) -> int:
        """Which source request *index* carries (its own index if fresh)."""
        if not self.workload.pool:
            return index
        while len(self._pick_log) <= index:
            self._pick_log.append(self._picks.randrange(self.workload.pool))
        return self._pick_log[index]

    def body(self, index: int) -> bytes:
        if self.workload.pool:
            return self._pool_bodies[self.source_of(index)]
        return self._encode(self.rows(index))

    def instance(self, index: int) -> Instance:
        return Instance(self.mapping.source, self.rows(index))

    def _encode(self, rows: dict[str, list[tuple]]) -> bytes:
        facts = [
            {"relation": name, "row": [{"const": v} for v in row]}
            for name, rel_rows in rows.items()
            for row in rel_rows
        ]
        return json.dumps(
            {
                "source": {"schema": self._schema_json, "facts": facts},
                "stream": self.workload.stream,
            },
            separators=(",", ":"),
        ).encode("utf-8")


# -- answer checks --------------------------------------------------------------

_NULL = "\x00null"


def json_facts(facts: Iterable[dict[str, Any]]) -> Iterator[tuple[str, tuple]]:
    """Wire-format facts as ``(relation, row)``, nulls as ``(marker, label)``."""
    for fact in facts:
        yield fact["relation"], tuple(
            v["const"] if "const" in v else (_NULL, v.get("null")) for v in fact["row"]
        )


def instance_facts(instance: Instance) -> Iterator[tuple[str, tuple]]:
    """An instance's facts in the form :func:`json_facts` yields."""
    for fact in instance.facts():
        yield fact.relation, tuple(
            v.value if isinstance(v, Constant) else (_NULL, getattr(v, "label", repr(v)))
            for v in fact.row
        )


def _erased(facts: Iterable[tuple[str, Sequence]]) -> list[str] | None:
    """Sorted reprs of the facts with nulls erased; ``None`` if a null repeats."""
    seen: set = set()
    erased = []
    for relation, row in facts:
        shape = []
        for value in row:
            if isinstance(value, tuple) and value[:1] == (_NULL,):
                if value in seen:
                    return None
                seen.add(value)
                value = _NULL
            shape.append(value)
        erased.append(repr((relation, tuple(shape))))
    erased.sort()
    return erased


def _digest(erased: list[str]) -> str:
    return hashlib.sha256("\n".join(erased).encode("utf-8")).hexdigest()


def solution_digest(facts: Iterable[tuple[str, Sequence]]) -> str | None:
    """Digest of the null-erased fact multiset, ``None`` if a null repeats.

    Two answers with equal digests are isomorphic (see the module docs).
    """
    erased = _erased(facts)
    return None if erased is None else _digest(erased)


def reference_digest(facts: Iterable[tuple[str, Sequence]]) -> str:
    """:func:`solution_digest` of a reference answer, which must be a core
    whose nulls each occur once — else the isomorphism check would not
    decide canonical equality."""
    erased = _erased(facts)
    if erased is None or len(set(erased)) != len(erased):
        raise ValueError("reference solution does not qualify for the isomorphism check")
    return _digest(erased)
