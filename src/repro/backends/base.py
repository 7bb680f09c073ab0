"""Backend selection and the shared SQL execution driver.

:func:`plan_backend` is the single decision point: given a mapping and
:class:`~repro.options.ExchangeOptions` it either returns a ready
:class:`BackendPlan` (holding a connected-on-demand engine) or a plan
whose ``fallback`` explains — with structured
:class:`~repro.backends.sql.FallbackReason` codes — why the interpreted
chase must run instead.  Requesting an engine that cannot exist in this
process at all (DuckDB without the package) raises
:class:`BackendUnavailableError` rather than silently degrading, because
that is a configuration error, not a property of the mapping.

:class:`SqlExchangeBackend` is the engine-agnostic half of execution:
every run opens a fresh in-memory database and drives four phases —
**load** (bulk ``executemany`` of the id columns of the source's
canonical :class:`~repro.relational.columnar.ColumnStore` into ``src_*``
tables), **compile** (DDL plus the evaluator-derived index hints),
**execute** (per-tgd fused statements — or bindings temp tables where
fusing is unavailable — plus fresh-null offset allocation), **extract**
(the fetched id rows become the columns of the answer's store, with no
value built per cell).  Source, program and answer share one id space:
the one the id-space chase gives its answers.
When every block fused to a single statement the execute phase runs the
SELECT halves directly and never materializes target tables.  Each phase is
timed into ``last_phase_timings`` (what ``repro profile`` prints),
observed as ``backend.<phase>.seconds`` histograms, and wrapped in a
``backend.exchange`` span; budget checks run at every phase boundary
and per-tgd during execute, so deadlines and fact caps behave exactly
as on the interpreted path.
"""

from __future__ import annotations

import gc
import time
from array import array
from dataclasses import dataclass
from itertools import chain, repeat
from typing import TYPE_CHECKING, Any

from ..budget import Budget
from ..mapping.sttgd import SchemaMapping
from ..obs import get_registry, get_tracer
from ..relational.columnar import ColumnStore, width_code
from ..relational.instance import Instance
from ..relational.schema import AttributeType, Schema
from ..relational.values import NullFactory
from ..stats import Statistics
from .sql import (
    CONSTANTS,
    OFFSET,
    CompilationReport,
    FallbackReason,
    SqlProgram,
    compile_mapping,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..options import ExchangeOptions

__all__ = [
    "BACKEND_NAMES",
    "BackendPlan",
    "BackendUnavailableError",
    "SqlExchangeBackend",
    "available_backends",
    "plan_backend",
]

BACKEND_NAMES = ("interpreted", "sqlite", "duckdb")
"""Every value ``ExchangeOptions.backend`` accepts."""


class BackendUnavailableError(RuntimeError):
    """The requested engine cannot run in this process (e.g. no duckdb)."""


class SqlExchangeBackend:
    """Shared phase driver over a compiled :class:`SqlProgram`.

    Engine subclasses implement :meth:`_connect` (a fresh in-memory
    DB-API connection) and :meth:`available`; everything else — loading,
    null minting, budget discipline, observability — is common.  A
    backend is stateless between runs: every :meth:`exchange` call gets
    its own connection, id layout and null factory, so concurrent calls
    from the service executor never share mutable state.
    """

    name = "sql"
    #: Whether the driver reports an accurate ``cursor.rowcount`` for
    #: ``INSERT … SELECT`` — required by the fused single-statement path
    #: (sqlite3 does; duckdb's DB-API shim does not).
    fused_inserts = True

    def __init__(self, mapping: SchemaMapping, program: SqlProgram) -> None:
        self.mapping = mapping
        self.program = program
        self.last_phase_timings: dict[str, float] = {}
        self.last_run: dict[str, Any] = {}

    # -- engine contract ---------------------------------------------------

    def _connect(self) -> Any:
        """A fresh in-memory DB-API connection (engine-specific)."""
        raise NotImplementedError

    @classmethod
    def available(cls) -> bool:
        """Whether this engine can run in the current process."""
        return True

    # -- execution ---------------------------------------------------------

    def exchange(self, source: Instance, budget: Budget | None = None) -> Instance:
        """Run the compiled exchange over *source*; returns the target.

        For laconic programs on ground sources the result is the core
        universal solution; otherwise it is homomorphically equivalent
        to the canonical one.  ``last_run["core"]`` records which.
        """
        program = self.program
        registry = get_registry()
        timings: dict[str, float] = {}
        with get_tracer().span(
            "backend.exchange", backend=self.name, laconic=program.laconic
        ) as span:
            connection = self._connect()
            # The bulk phases allocate hundreds of thousands of short
            # id tuples, none of which can form reference cycles;
            # cyclic-GC passes triggered by that churn re-traverse the
            # caller's whole live heap and were measured at ~a third of
            # the runtime on 100k-row loads.  Suspend collection (not
            # allocation accounting) for the run and restore the
            # caller's setting after.
            gc_was_enabled = gc.isenabled()
            if gc_was_enabled:
                gc.disable()
            try:
                # When every block compiled to a fused single statement,
                # its SELECT half alone already produces the final rows:
                # fetch those directly and never materialize target
                # tables.
                select_only = all(
                    tgd.fused_insert is not None for tgd in program.tgds
                )
                started = time.perf_counter()
                # The tables hold the ids of the source's canonical
                # store, laid out as the id chase lays out its answer:
                # program constants the source lacks take the ids after
                # its constants, its nulls shift up by as many, and
                # fresh nulls follow the whole table.
                store = source.columnar()
                extra: dict = {}
                constant_ids = {
                    c.value: store.extended_id(c.value, extra)
                    for c in program.constants()
                }
                constants = store.constant_count + len(extra)

                def bind(params, offset: int = 0) -> list[int]:
                    return [
                        offset if p is OFFSET
                        else constants if p is CONSTANTS
                        else constant_ids[p.value]
                        for p in params
                    ]

                # Only a source holding nulls has ids to move.
                shift = len(extra) if store.table_size() > store.constant_count else 0
                loaded = 0
                for relation, table, arity in program.source_tables:
                    if arity == 0:
                        continue
                    columns = ", ".join(f"c{i} BIGINT" for i in range(arity))
                    connection.execute(f"CREATE TABLE {table} ({columns})")
                    count = store.counts[relation]
                    if count:
                        id_columns = store.columns[relation]
                        if shift:
                            first_null = store.constant_count
                            id_columns = [
                                [x if x < first_null else x + shift for x in column]
                                for column in id_columns
                            ]
                        marks = ", ".join("?" * arity)
                        connection.executemany(
                            f"INSERT INTO {table} VALUES ({marks})",
                            zip(*id_columns),
                        )
                        loaded += count
                if not select_only:
                    for _, table, arity in program.target_tables:
                        if arity == 0:
                            continue
                        columns = ", ".join(
                            f"c{i} BIGINT" for i in range(arity)
                        )
                        connection.execute(f"CREATE TABLE {table} ({columns})")
                factory = NullFactory()
                factory.reserve_through(max(store.null_labels(), default=-1))
                fresh_labels = array("q")
                next_id = store.table_size() + len(extra)
                timings["load"] = time.perf_counter() - started
                if budget is not None:
                    budget.check(phase="backend.load")

                started = time.perf_counter()
                for n, (table, columns) in enumerate(program.index_hints):
                    cols = ", ".join(f"c{i}" for i in columns)
                    connection.execute(
                        f"CREATE INDEX idx_{n}_{table} ON {table} ({cols})"
                    )
                timings["compile"] = time.perf_counter() - started
                if budget is not None:
                    budget.check(phase="backend.compile")

                started = time.perf_counter()
                facts = 0
                firings = 0
                fetched: dict[str, list[list]] = {}
                for tgd in program.tgds:
                    fused = tgd.fused_insert if self.fused_inserts else None
                    # A statement mints firing k's j-th fresh null as
                    # ``offset + k * existentials + j``; the labels
                    # backing those ids are drawn after it ran.
                    offset = next_id
                    if select_only:
                        # The firing count is the fetched row count, so
                        # this path needs no driver rowcount support.
                        statement = tgd.fused_insert
                        rows = connection.execute(
                            statement.select_sql, bind(statement.params, offset)
                        ).fetchall()
                        fetched.setdefault(statement.table, []).append(rows)
                        count = len(rows)
                        facts += count
                    elif fused is not None:
                        # One statement: bindings inline as a derived
                        # table, no temp-table materialization and no
                        # COUNT(*) pass.
                        count = connection.execute(
                            fused.sql, bind(fused.params, offset)
                        ).rowcount
                        facts += count
                    else:
                        connection.execute(
                            tgd.bindings_sql, bind(tgd.bindings_params)
                        )
                        (count,) = connection.execute(
                            f"SELECT COUNT(*) FROM {tgd.bindings_table}"
                        ).fetchone()
                        for insert in tgd.inserts:
                            connection.execute(
                                insert.sql, bind(insert.params, offset)
                            )
                        facts += count * len(tgd.inserts)
                    firings += count
                    minted = count * tgd.existentials
                    if minted:
                        label = factory.fresh_block(minted)
                        fresh_labels.extend(range(label, label + minted))
                        next_id += minted
                    if budget is not None:
                        budget.check(facts=facts, phase="backend.execute")
                timings["execute"] = time.perf_counter() - started

                started = time.perf_counter()
                rows_by_relation: dict[str, list[tuple[int, ...]]] = {}
                if select_only:
                    for relation, table, arity in program.target_tables:
                        parts = fetched.get(table)
                        if arity == 0 or not parts:
                            continue
                        # Blocks writing one table can each emit the
                        # same ground row; one writer's rows are
                        # distinct (DISTINCT bindings, all projected).
                        rows_by_relation[relation] = (
                            parts[0]
                            if len(parts) == 1
                            else list(dict.fromkeys(chain.from_iterable(parts)))
                        )
                else:
                    # Laconic single-writer tables hold distinct rows by
                    # construction (the bindings are DISTINCT over
                    # exactly the frontier columns the conclusion
                    # projects), so the DISTINCT hash pass is pure
                    # overhead there.  Tables fed by several blocks can
                    # receive equal ground facts and keep the DISTINCT.
                    writers: dict[str, int] = {}
                    for tgd in program.tgds:
                        for insert in tgd.inserts:
                            writers[insert.table] = (
                                writers.get(insert.table, 0) + 1
                            )
                    for relation, table, arity in program.target_tables:
                        if arity == 0:
                            continue
                        dedup = (
                            ""
                            if program.laconic and writers.get(table, 0) <= 1
                            else "DISTINCT "
                        )
                        rows_by_relation[relation] = connection.execute(
                            f"SELECT {dedup}* FROM {table}"
                        ).fetchall()
                result = _answer(
                    self.mapping.target, store, extra, fresh_labels,
                    rows_by_relation,
                )
                timings["extract"] = time.perf_counter() - started
            finally:
                connection.close()
                if gc_was_enabled:
                    gc.enable()
            # Nulls minted during execute are fine — the laconic rewrite
            # accounts for them.  Nulls already present in the *source*
            # void the core guarantee (ten Cate et al. assume ground
            # sources), so only those count against the claim.
            core = (
                program.laconic
                and store.labeled_count == 0
                and not store.skolem_count()
            )
            span.set(
                source_facts=loaded,
                firings=firings,
                target_facts=result.size(),
                core=core,
            )
        for phase, seconds in timings.items():
            registry.observe(f"backend.{phase}.seconds", seconds)
        registry.increment("backend.runs")
        self.last_phase_timings = timings
        self.last_run = {
            "backend": self.name,
            "laconic": program.laconic,
            "core": core,
            "source_facts": loaded,
            "firings": firings,
            "target_facts": result.size(),
        }
        return result


def _answer(
    schema: Schema,
    source: ColumnStore,
    extra: dict,
    fresh_labels: array,
    rows_by_relation: dict[str, list[tuple[int, ...]]],
) -> Instance:
    """The target instance over the fetched id rows, as a column store.

    The rows' ids are the driver's: the source's constants then the
    program's *extra* ones, the source's labelled nulls, its Skolem
    values, then the fresh nulls.  A store keeps its Skolem values
    after every labelled null, so when the source holds any, their ids
    and the fresh nulls' ids swap places.  A target schema with a typed
    attribute builds through the validating constructor, so a value of
    the wrong type raises the interpreted path's ``TypeError``.
    """
    labels = array("q", source.null_labels())
    labels.extend(fresh_labels)
    skolems = source.skolem_values()
    table_size = source.table_size() + len(extra) + len(fresh_labels)
    code = width_code(table_size)
    remap = None
    if skolems:
        label_end = source.constant_count + len(extra) + source.labeled_count
        fresh_end = label_end + len(fresh_labels)
        order = list(range(label_end))
        order.extend(range(fresh_end, table_size))
        order.extend(range(label_end, fresh_end))
        remap = order.__getitem__
    counts: dict[str, int] = {}
    columns: dict[str, tuple[array, ...]] = {}
    for name in schema.relation_names:
        rows = rows_by_relation.get(name, ())
        counts[name] = len(rows)
        id_columns = zip(*rows) if rows else repeat((), schema[name].arity)
        if remap is not None:
            id_columns = (map(remap, column) for column in id_columns)
        columns[name] = tuple(array(code, column) for column in id_columns)
    raw_constants = source.raw_constants()
    raw_constants.extend(extra)
    answer = ColumnStore(
        schema, raw_constants, labels, skolems, counts, columns
    )
    if all(
        attr.type is AttributeType.ANY for rel in schema for attr in rel.attributes
    ):
        return Instance._from_store(schema, answer)
    return Instance(schema, answer.materialize_relations())


@dataclass(frozen=True)
class BackendPlan:
    """The outcome of :func:`plan_backend` for a non-interpreted request.

    ``ready`` means the exchange will run on ``backend``; otherwise
    ``fallback`` lists the structured reasons the interpreted chase runs
    instead (the engine keeps working either way).
    """

    requested: str
    backend: SqlExchangeBackend | None
    report: CompilationReport
    fallback: tuple[FallbackReason, ...] = ()

    @property
    def ready(self) -> bool:
        return self.backend is not None

    def describe(self) -> str:
        if self.ready:
            kind = "core (laconic rewrite)" if self.report.laconic else "canonical"
            return f"{self.requested} backend ready: {kind} SQL exchange"
        reasons = "; ".join(str(r) for r in self.fallback) or "unknown reason"
        return f"{self.requested} backend fell back to interpreted: {reasons}"


def available_backends() -> tuple[str, ...]:
    """The backend names that can actually run in this process."""
    names = ["interpreted", "sqlite"]
    from .duckdb_backend import DuckdbBackend

    if DuckdbBackend.available():
        names.append("duckdb")
    return tuple(names)


def plan_backend(
    mapping: SchemaMapping,
    options: "ExchangeOptions",
    statistics: Statistics | None = None,
) -> BackendPlan | None:
    """Resolve ``options.backend`` against *mapping*.

    Returns ``None`` for the interpreted backend (nothing to plan), a
    ready or fallen-back :class:`BackendPlan` otherwise.  Raises
    :class:`BackendUnavailableError` when the named engine is not
    importable at all — a deployment problem the caller should hear
    about loudly, unlike mapping-shaped fallbacks.
    """
    requested = options.backend
    if requested == "interpreted":
        return None
    if requested == "sqlite":
        from .sqlite_backend import SqliteBackend as engine_cls
    elif requested == "duckdb":
        from .duckdb_backend import DuckdbBackend as engine_cls
    else:  # pragma: no cover - ExchangeOptions validates first
        raise ValueError(f"unknown backend {requested!r}")
    if not engine_cls.available():
        raise BackendUnavailableError(
            f"backend {requested!r} is not available in this environment "
            f"(is the {requested!r} package installed?)"
        )
    program, report = compile_mapping(mapping, statistics)
    fallback = list(report.reasons)
    if options.wants_provenance:
        fallback.append(
            FallbackReason(
                "provenance-requested",
                "provenance recording needs the interpreted chase's "
                "per-firing hooks; the SQL path has none",
            )
        )
    if program is None or fallback:
        get_registry().increment("backend.fallbacks")
        return BackendPlan(requested, None, report, tuple(fallback))
    return BackendPlan(requested, engine_cls(mapping, program), report)
