"""Compiling st-tgd mappings to SQL (laconic rewrite included).

The lowering is value-blind: source tables are plain integer tables
over the ids of the source's canonical column store
(:meth:`~repro.relational.instance.Instance.columnar`), with constants
below the constant-region size and labelled nulls and Skolem values
above it, so the whole exchange runs as
``CREATE TEMP TABLE … AS SELECT`` + ``INSERT … SELECT`` statements.
Constants in the program and the constant-region size reach the SQL as
parameters the driver binds at run time (:data:`CONSTANTS`), so the
constant predicate ``C(x)`` is the comparison ``x < ?``:

* each tgd premise becomes a SELECT over the source tables, FROM-ordered
  by the evaluator's greedy join order
  (:func:`repro.logic.evaluation.greedy_join_order`, spelled as CROSS
  JOIN so SQLite keeps the hint) with join/constant/side conditions in
  the WHERE clause;
* one bindings temp table per tgd numbers the distinct firings with
  ``row_number() OVER ()``, and each conclusion atom becomes an
  ``INSERT … SELECT`` minting fresh labelled nulls by pure row-id
  arithmetic — ``offset + (__bind - 1) * E + k`` for the k-th
  existential — with no side effects inside the database;
* for the laconic fragment (no target dependencies and, after
  :meth:`~repro.mapping.sttgd.StTgd.normalize` fact-block splitting,
  every block a single atom) the bindings SELECT projects only the
  block's *rigid* (frontier) columns and carries NOT-EXISTS side
  conditions that drop any firing whose fact block is subsumed by a
  strictly-more-specific firing of another block pattern, or duplicated
  by an equivalent firing of an earlier block.  Fresh nulls of a
  single-atom block occur in exactly one fact, so these per-fact drops
  compose into a retraction and the extracted instance is exactly the
  **core** universal solution (ten Cate et al.) — provided the source is
  ground; with nulls in the source the result is still a universal
  solution, just not necessarily minimal, and the backend reports so.

Everything outside the fragment — target dependencies, function terms,
unanchored side-condition or conclusion variables, atomless premises —
produces a structured :class:`FallbackReason` instead of SQL, and the
caller (engine/service) runs the interpreted chase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..logic.evaluation import greedy_join_order
from ..logic.formulas import Atom, ConstantPredicate, Equality, Inequality
from ..logic.terms import Const, FuncTerm, Var
from ..mapping.sttgd import SchemaMapping, StTgd
from ..relational.values import Constant
from ..stats import Statistics

__all__ = [
    "CONSTANTS",
    "CompilationReport",
    "FallbackReason",
    "OFFSET",
    "SqlProgram",
    "TgdCompilability",
    "TgdSql",
    "compile_mapping",
]


class _Parameter:
    """A placeholder parameter the driver binds to a number at run time."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.name}>"

    def __reduce__(self) -> str:
        # Unpickles as the module singleton: programs compare it by
        # identity, also in the HTTP server's worker processes.
        return self.name


OFFSET = _Parameter("OFFSET")
"""Bound to the id of the first fresh null a statement mints."""

CONSTANTS = _Parameter("CONSTANTS")
"""Bound to the constant-region size: ids below it are constants."""


@dataclass(frozen=True)
class FallbackReason:
    """Why (part of) a mapping cannot run on a SQL backend.

    ``code`` is stable and machine-matchable; ``detail`` is the human
    sentence; ``tgd`` is the index of the offending tgd in the original
    mapping (``None`` for mapping-level reasons like target
    dependencies).
    """

    code: str
    detail: str
    tgd: int | None = None

    def __str__(self) -> str:
        where = f"tgd_{self.tgd}: " if self.tgd is not None else ""
        return f"{where}{self.detail} [{self.code}]"


@dataclass(frozen=True)
class TgdCompilability:
    """Per-tgd compilability verdict (consumed by the RA51x lint pass)."""

    index: int
    compilable: bool
    reasons: tuple[FallbackReason, ...]
    blocks: int
    single_atom_blocks: bool


@dataclass(frozen=True)
class CompilationReport:
    """The whole mapping's verdict: SQL-compilable?  Laconic (core)?"""

    compilable: bool
    laconic: bool
    reasons: tuple[FallbackReason, ...]
    tgds: tuple[TgdCompilability, ...]

    def summary(self) -> str:
        if not self.compilable:
            return "; ".join(str(r) for r in self.reasons) or "not compilable"
        if self.laconic:
            return "laconic rewrite: SQL computes the core universal solution"
        return (
            "canonical lowering: SQL computes the canonical universal "
            "solution (multi-atom fact blocks block the laconic rewrite)"
        )


@dataclass(frozen=True)
class InsertSql:
    """One conclusion atom: ``INSERT INTO table SELECT exprs FROM b_i``.

    For fused inserts ``select_sql`` carries the statement's SELECT half
    on its own.  When a program is laconic and every target table has a
    single writer, the driver can run that SELECT directly and fetch the
    answer without materializing the target table at all — the query
    *is* the solution.
    """

    table: str
    sql: str
    params: tuple[object, ...]
    select_sql: str | None = None


@dataclass(frozen=True)
class TgdSql:
    """One normalized tgd, fully lowered.

    ``bindings_sql`` creates the per-tgd temp table of distinct firings
    (numbered ``__bind``); ``inserts`` write the conclusion atoms.
    ``existentials`` is E, the fresh nulls minted per firing.

    Single-atom blocks additionally carry ``fused_insert``: one
    ``INSERT … SELECT`` over the bindings query inlined as a derived
    table, skipping the temp-table materialization and its ``COUNT(*)``
    pass entirely.  Using it requires the driver to (a) predict the
    fresh-null id offset *before* executing (the next id after the
    value table and the nulls minted so far) and (b) read the firing
    count back from the statement's rowcount — backends whose drivers
    report no rowcount for ``INSERT … SELECT`` fall back to the
    temp-table form.
    """

    label: str
    bindings_table: str
    bindings_sql: str
    bindings_params: tuple[object, ...]
    existentials: int
    inserts: tuple[InsertSql, ...]
    fused_insert: InsertSql | None = None


@dataclass(frozen=True)
class SqlProgram:
    """A compiled mapping: DDL shapes, per-tgd statements, index hints."""

    source_tables: tuple[tuple[str, str, int], ...]  # (relation, table, arity)
    target_tables: tuple[tuple[str, str, int], ...]
    tgds: tuple[TgdSql, ...]
    laconic: bool
    index_hints: tuple[tuple[str, tuple[int, ...]], ...]  # (table, columns)

    def constants(self) -> list[Constant]:
        """The constant parameters of every statement, first occurrence first."""
        seen: dict = {}
        for tgd in self.tgds:
            for params in (tgd.bindings_params, *(i.params for i in tgd.inserts)):
                seen.update(dict.fromkeys(p for p in params if isinstance(p, Constant)))
        return list(seen)


# -- compilability ----------------------------------------------------------


def _term_reasons(term: object, where: str, index: int) -> list[FallbackReason]:
    if isinstance(term, FuncTerm):
        return [
            FallbackReason(
                "function-terms",
                f"{where} contains the function term {term!r}; second-order "
                f"terms have no first-order SQL lowering",
                index,
            )
        ]
    return []


def tgd_compilability(tgd: StTgd, index: int) -> TgdCompilability:
    """Whether one st-tgd lowers to SQL, with structured reasons if not."""
    reasons: list[FallbackReason] = []
    atoms = tgd.premise.atoms()
    if not atoms:
        reasons.append(
            FallbackReason(
                "empty-premise",
                "premise has no relational atom, so there is no table to "
                "select from",
                index,
            )
        )
    anchored: set[Var] = set()
    for atom in atoms:
        for term in atom.terms:
            reasons.extend(_term_reasons(term, "premise atom", index))
            if isinstance(term, Var):
                anchored.add(term)
    for literal in tgd.premise.literals:
        if isinstance(literal, Atom):
            continue
        if isinstance(literal, (Equality, Inequality)):
            terms: tuple = (literal.left, literal.right)
        elif isinstance(literal, ConstantPredicate):
            terms = (literal.term,)
        else:
            reasons.append(
                FallbackReason(
                    "unsupported-literal",
                    f"premise literal {literal!r} is outside the compilable "
                    f"fragment",
                    index,
                )
            )
            continue
        for term in terms:
            reasons.extend(_term_reasons(term, "premise side condition", index))
            if isinstance(term, Var) and term not in anchored:
                reasons.append(
                    FallbackReason(
                        "unanchored-variable",
                        f"side-condition variable {term!r} is bound by no "
                        f"premise atom, so it has no source column",
                        index,
                    )
                )
    existentials = set(tgd.existential_variables)
    for atom in tgd.conclusion.atoms():
        for term in atom.terms:
            reasons.extend(_term_reasons(term, "conclusion atom", index))
            if (
                isinstance(term, Var)
                and term not in existentials
                and term not in anchored
            ):
                reasons.append(
                    FallbackReason(
                        "unanchored-variable",
                        f"exported conclusion variable {term!r} is bound by "
                        f"no premise atom, so it has no source column",
                        index,
                    )
                )
    blocks = tgd.normalize()
    return TgdCompilability(
        index=index,
        compilable=not reasons,
        reasons=tuple(reasons),
        blocks=len(blocks),
        single_atom_blocks=all(len(b.conclusion.atoms()) == 1 for b in blocks),
    )


def mapping_compilability(mapping: SchemaMapping) -> CompilationReport:
    """The static half of :func:`compile_mapping` (no SQL generated).

    Pure and instance-free, so the RA51x analysis pass can run it on
    untrusted input like every other lint pass.
    """
    reasons: list[FallbackReason] = []
    if mapping.target_dependencies:
        kinds = ", ".join(
            type(d).__name__ for d in mapping.target_dependencies[:3]
        )
        reasons.append(
            FallbackReason(
                "target-dependencies",
                f"mapping carries {len(mapping.target_dependencies)} target "
                f"dependencies ({kinds}…); egds and target tgds are outside "
                f"the supported class, so the interpreted chase runs instead",
            )
        )
    verdicts = tuple(
        tgd_compilability(tgd, i) for i, tgd in enumerate(mapping.tgds)
    )
    for verdict in verdicts:
        reasons.extend(verdict.reasons)
    compilable = not reasons
    laconic = compilable and all(v.single_atom_blocks for v in verdicts)
    return CompilationReport(
        compilable=compilable,
        laconic=laconic,
        reasons=tuple(reasons),
        tgds=verdicts,
    )


# -- lowering ---------------------------------------------------------------


class _PremiseSql:
    """One tgd premise rendered as FROM/WHERE pieces with ``?`` params.

    Conditions and parameters are appended strictly in sync, so joining
    ``conds`` with AND yields placeholders in ``params`` order.
    """

    def __init__(
        self,
        tgd: StTgd,
        prefix: str,
        table_of: Callable[[str], str],
        size_of: Callable[[str], int],
    ) -> None:
        atoms = tgd.premise.atoms()
        self.order = greedy_join_order(atoms, (), size_of)
        self.tables: list[tuple[str, str]] = []  # (alias, table)
        self.conds: list[str] = []
        self.params: list[object] = []
        self.var_ref: dict[Var, str] = {}
        self.probe_hints: list[tuple[str, tuple[int, ...]]] = []
        bound: set[Var] = set()
        for k, atom_index in enumerate(self.order):
            atom = atoms[atom_index]
            alias = f"{prefix}{k}"
            self.tables.append((alias, table_of(atom.relation)))
            probe_columns = tuple(
                p
                for p, term in enumerate(atom.terms)
                if isinstance(term, Const)
                or (isinstance(term, Var) and term in bound)
            )
            if probe_columns:
                self.probe_hints.append((table_of(atom.relation), probe_columns))
            for p, term in enumerate(atom.terms):
                column = f"{alias}.c{p}"
                if isinstance(term, Var):
                    known = self.var_ref.get(term)
                    if known is None:
                        self.var_ref[term] = column
                    else:
                        self.conds.append(f"{column} = {known}")
                    bound.add(term)
                else:
                    self.conds.append(f"{column} = ?")
                    self.params.append(term.value)
        for literal in tgd.premise.literals:
            if isinstance(literal, Atom):
                continue
            if isinstance(literal, Equality):
                self.conds.append(
                    f"{self._expr(literal.left)} = {self._expr(literal.right)}"
                )
            elif isinstance(literal, Inequality):
                self.conds.append(
                    f"{self._expr(literal.left)} <> {self._expr(literal.right)}"
                )
            elif isinstance(literal, ConstantPredicate):
                self.conds.append(f"{self._expr(literal.term)} < ?")
                self.params.append(CONSTANTS)

    def _expr(self, term: object) -> str:
        if isinstance(term, Var):
            return self.var_ref[term]
        assert isinstance(term, Const)
        self.params.append(term.value)
        return "?"

    def from_clause(self) -> str:
        # CROSS JOIN (not comma) keeps the greedy order as a real hint:
        # SQLite never reorders explicit CROSS JOINs.
        return " CROSS JOIN ".join(f"{table} {alias}" for alias, table in self.tables)


def _conclusion_expr(
    term: object,
    var_column: dict[Var, str],
    existential_index: dict[Var, int],
    total_existentials: int,
    params: list[object],
) -> str:
    """The SELECT expression of one conclusion-atom position over ``b_i``."""
    if isinstance(term, Const):
        params.append(term.value)
        return "?"
    assert isinstance(term, Var)
    k = existential_index.get(term)
    if k is None:
        return var_column[term]
    params.append(OFFSET)
    return f"? + (__bind - 1) * {total_existentials} + {k}"


@dataclass(frozen=True)
class _Subsumption:
    """A compile-time pattern-compatibility verdict between two blocks."""

    kind: str  # "strict" | "equivalent"
    link_positions: tuple[int, ...]  # both-rigid positions → runtime equality
    extra_equalities: tuple[tuple[int, int], ...]  # j-side equalities


def classify_subsumption(
    atom_i: Atom,
    existentials_i: set[Var],
    atom_j: Atom,
    existentials_j: set[Var],
) -> _Subsumption | None:
    """Can a firing of block *j* subsume a firing of block *i*?

    Works position-by-position on the two (single-atom) conclusion
    patterns.  Returns ``None`` when no firing of *j* can ever subsume a
    firing of *i* (incompatible patterns), otherwise whether subsumption
    is *strict* (*j* grounds or folds nulls of *i* — drop *i*'s firing
    whenever the runtime conditions match) or the patterns are
    *equivalent* (identical up to null renaming — drop only against an
    earlier block, the tie-break that keeps one representative).
    """
    if atom_i.relation != atom_j.relation or atom_i.arity != atom_j.arity:
        return None
    link_positions: list[int] = []
    strict = False
    groups: dict[Var, list[int]] = {}
    j_var_covers: dict[Var, set[Var]] = {}
    for p, (t, s) in enumerate(zip(atom_i.terms, atom_j.terms)):
        t_rigid = isinstance(t, Const) or t not in existentials_i
        s_rigid = isinstance(s, Const) or s not in existentials_j
        if t_rigid:
            if not s_rigid:
                # j's fresh null can never equal i's exported/constant value.
                return None
            link_positions.append(p)
        else:
            groups.setdefault(t, []).append(p)
            if s_rigid:
                strict = True  # j grounds this null of i
            else:
                j_var_covers.setdefault(s, set()).add(t)
    extra_equalities: list[tuple[int, int]] = []
    for positions in groups.values():
        rigid = [
            p
            for p in positions
            if isinstance(atom_j.terms[p], Const)
            or atom_j.terms[p] not in existentials_j
        ]
        existential = [p for p in positions if p not in rigid]
        if rigid and existential:
            return None  # a fresh j null would have to equal a rigid value
        if existential:
            if len({atom_j.terms[p] for p in existential}) > 1:
                return None  # two distinct fresh nulls can never be equal
        else:
            first = rigid[0]
            extra_equalities.extend((first, q) for q in rigid[1:])
    for covered in j_var_covers.values():
        if len(covered) >= 2:
            strict = True  # one j null folds two distinct i nulls
    return _Subsumption(
        kind="strict" if strict else "equivalent",
        link_positions=tuple(link_positions),
        extra_equalities=tuple(extra_equalities),
    )


@dataclass
class _Block:
    """One normalized tgd with its provenance in the original mapping."""

    tgd: StTgd
    label: str
    existentials: tuple[Var, ...] = field(init=False)

    def __post_init__(self) -> None:
        self.existentials = self.tgd.existential_variables


def compile_mapping(
    mapping: SchemaMapping, statistics: Statistics | None = None
) -> tuple[SqlProgram | None, CompilationReport]:
    """Lower *mapping* to a :class:`SqlProgram` (or report why not).

    *statistics* (when available) feed the greedy join order exactly as
    relation sizes feed the interpreted evaluator's plan.  The returned
    report is always complete; the program is ``None`` iff
    ``report.compilable`` is false.
    """
    report = mapping_compilability(mapping)
    if not report.compilable:
        return None, report

    source_relations = sorted(mapping.source.relation_names)
    target_relations = sorted(mapping.target.relation_names)
    source_table = {name: f"src_{i}" for i, name in enumerate(source_relations)}
    target_table = {name: f"tgt_{i}" for i, name in enumerate(target_relations)}
    stats = statistics or Statistics.assumed(mapping.source)

    def size_of(relation: str) -> int:
        return stats.cardinality(relation)

    blocks: list[_Block] = []
    for original_index, tgd in enumerate(mapping.tgds):
        normalized = tgd.normalize()
        for block_index, block in enumerate(normalized):
            label = (
                f"tgd_{original_index}"
                if len(normalized) == 1
                else f"tgd_{original_index}.{block_index}"
            )
            blocks.append(_Block(block, label))

    laconic = report.laconic
    index_hints: dict[tuple[str, tuple[int, ...]], None] = {}
    compiled: list[TgdSql] = []
    for i, block in enumerate(blocks):
        premise = _PremiseSql(block.tgd, f"a{i}_", source_table.__getitem__, size_of)
        for hint in premise.probe_hints:
            index_hints[hint] = None
        conds = list(premise.conds)
        params = list(premise.params)
        if laconic:
            exported = list(block.tgd.frontier)
        else:
            exported = list(dict.fromkeys(block.tgd.premise.variables()))
        select_columns = [
            f"{premise.var_ref[v]} AS v{n}" for n, v in enumerate(exported)
        ]
        if not select_columns:
            select_columns = ["1 AS v_none"]
        if laconic and block.existentials:
            atom_i = block.tgd.conclusion.atoms()[0]
            exist_i = set(block.existentials)
            for j, other in enumerate(blocks):
                atom_j = other.tgd.conclusion.atoms()[0]
                verdict = classify_subsumption(
                    atom_i, exist_i, atom_j, set(other.existentials)
                )
                if verdict is None:
                    continue
                if verdict.kind == "equivalent" and j >= i:
                    continue
                sub = _PremiseSql(
                    other.tgd, f"n{i}_{j}_", source_table.__getitem__, size_of
                )
                sub_conds = list(sub.conds)
                sub_params = list(sub.params)

                def j_expr(p: int) -> str:
                    term = atom_j.terms[p]
                    if isinstance(term, Const):
                        sub_params.append(term.value)
                        return "?"
                    return sub.var_ref[term]

                def i_expr(p: int) -> str:
                    term = atom_i.terms[p]
                    if isinstance(term, Const):
                        sub_params.append(term.value)
                        return "?"
                    return premise.var_ref[term]

                for p in verdict.link_positions:
                    sub_conds.append(f"{j_expr(p)} = {i_expr(p)}")
                for p, q in verdict.extra_equalities:
                    sub_conds.append(f"{j_expr(p)} = {j_expr(q)}")
                where = f" WHERE {' AND '.join(sub_conds)}" if sub_conds else ""
                conds.append(
                    f"NOT EXISTS (SELECT 1 FROM {sub.from_clause()}{where})"
                )
                params.extend(sub_params)
                # The subquery runs once per outer binding, correlated
                # on the link columns — without indexes over them it
                # degrades the whole bindings query to a quadratic
                # scan.  Hint an index per linked alias (plus the
                # subquery's own join probes).
                alias_table = dict(sub.tables)
                link_columns: dict[str, set[int]] = {}
                for p in verdict.link_positions:
                    term = atom_j.terms[p]
                    if isinstance(term, Const):
                        continue
                    alias, _, column = sub.var_ref[term].partition(".")
                    link_columns.setdefault(alias, set()).add(int(column[1:]))
                for alias, columns in link_columns.items():
                    index_hints[
                        (alias_table[alias], tuple(sorted(columns)))
                    ] = None
                for hint in sub.probe_hints:
                    index_hints[hint] = None
        where = f" WHERE {' AND '.join(conds)}" if conds else ""
        bindings_table = f"b{i}"
        bindings_select = (
            f"SELECT __rows.*, row_number() OVER () AS __bind FROM "
            f"(SELECT DISTINCT {', '.join(select_columns)} "
            f"FROM {premise.from_clause()}{where}) AS __rows"
        )
        bindings_sql = (
            f"CREATE TEMP TABLE {bindings_table} AS {bindings_select}"
        )
        var_column = {v: f"v{n}" for n, v in enumerate(exported)}
        existential_index = {v: k for k, v in enumerate(block.existentials)}
        total = len(block.existentials)
        inserts: list[InsertSql] = []
        expr_lists: list[str] = []
        for atom in block.tgd.conclusion.atoms():
            insert_params: list[object] = []
            exprs = [
                _conclusion_expr(
                    term, var_column, existential_index, total, insert_params
                )
                for term in atom.terms
            ]
            expr_lists.append(", ".join(exprs))
            inserts.append(
                InsertSql(
                    table=target_table[atom.relation],
                    sql=(
                        f"INSERT INTO {target_table[atom.relation]} "
                        f"SELECT {', '.join(exprs)} FROM {bindings_table}"
                    ),
                    params=tuple(insert_params),
                )
            )
        fused_insert = None
        if len(inserts) == 1:
            # Param order follows textual appearance: the SELECT exprs
            # (insert params) precede the derived-table body (premise
            # params).  Blocks that mint nothing never reference
            # ``__bind``, so they skip the window pass too.
            body = bindings_select if total else (
                f"SELECT DISTINCT {', '.join(select_columns)} "
                f"FROM {premise.from_clause()}{where}"
            )
            fused_select = (
                f"SELECT {expr_lists[0]} FROM ({body}) AS {bindings_table}"
            )
            fused_insert = InsertSql(
                table=inserts[0].table,
                sql=f"INSERT INTO {inserts[0].table} {fused_select}",
                params=inserts[0].params + tuple(params),
                select_sql=fused_select,
            )
        compiled.append(
            TgdSql(
                label=block.label,
                bindings_table=bindings_table,
                bindings_sql=bindings_sql,
                bindings_params=tuple(params),
                existentials=total,
                inserts=tuple(inserts),
                fused_insert=fused_insert,
            )
        )

    program = SqlProgram(
        source_tables=tuple(
            (name, source_table[name], mapping.source[name].arity)
            for name in source_relations
        ),
        target_tables=tuple(
            (name, target_table[name], mapping.target[name].arity)
            for name in target_relations
        ),
        tgds=tuple(compiled),
        laconic=laconic,
        index_hints=tuple(sorted(index_hints)),
    )
    return program, report
