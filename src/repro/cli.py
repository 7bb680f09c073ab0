"""Command-line interface: run exchanges and inspect plans from files.

Usage (also via ``python -m repro``)::

    repro plan      --schemas schemas.json --mapping mapping.tgd [--verbose]
    repro exchange  --schemas schemas.json --mapping mapping.tgd \
                    --data source.json [--out target.json] \
                    [--cache N]
    repro chase     --schemas schemas.json --mapping mapping.tgd \
                    --data source.json            # reference engine
    repro put       --schemas schemas.json --mapping mapping.tgd \
                    --data source.json --view edited_target.json
    repro check     --schemas schemas.json --mapping mapping.tgd \
                    --data source.json            # completeness report
    repro questions --schemas schemas.json --mapping mapping.tgd
    repro profile   --schemas schemas.json --mapping mapping.tgd \
                    --data source.json            # span tree + metrics
    repro lint      --schemas schemas.json --mapping mapping.tgd \
                    [--target-deps deps.tgd] [--json] \
                    [--select RA6] [--ignore RA102]     # static analysis
    repro optimize  --schemas schemas.json --mapping mapping.tgd \
                    [--target-deps deps.tgd] [--json] [--apply OUT]
    repro optimize  --pipeline pipeline.json [--json] [--apply OUT]
                    # chase-verified rewrite plan (prune + collapse)
    repro explain   --schemas schemas.json --mapping mapping.tgd \
                    --data source.json [--fact 'Rel(_, "v")'] \
                    [--limit N] [--json]          # why-trees per fact
    repro serve     --schemas schemas.json --mapping mapping.tgd \
                    [--port N] [--host H] [--max-in-flight N] \
                    [--workers N] [--tenants tenants.json]  # asyncio HTTP service
    repro serve-bench --schemas schemas.json --mapping mapping.tgd \
                    [--requests N] [--concurrency N [--workers N] \
                    [--inject-pool-crashes N]] [--deadline S] [--max-facts N] \
                    [--json] [--bench-out FILE] [--check-throughput RPS]

``lint`` exits 0 when the mapping is clean (or has only informational
findings), 1 on warnings, 2 on errors — see docs/ANALYSIS.md.

Every executing subcommand shares one options parent parser whose flag
names match the :class:`~repro.options.ExchangeOptions` fields —
``--cache``, ``--max-steps``, ``--deadline``, ``--max-facts`` — so
limits are spelled the same everywhere.  ``--workers`` sizes the HTTP
server's worker pool, so only ``serve`` and HTTP-mode ``serve-bench``
take it.  With a
budget flag set, ``exchange``/``chase`` degrade gracefully: a partial
result is emitted with a warning on stderr and exit code 3 instead of a
hang or crash (see docs/ROBUSTNESS.md).

Every subcommand also accepts ``--trace`` (print the span tree and
metric summary to stderr) and ``--trace-json FILE`` (write the trace as
JSON lines) — see docs/OBSERVABILITY.md.  ``exchange``/``chase`` accept
``--provenance`` (record fact lineage) and ``--provenance-json FILE``
(write the lineage log as JSON lines); ``explain`` turns the lineage
into per-fact why-trees.

File formats:

* ``schemas.json`` — ``{"source": <schema>, "target": <schema>}`` in the
  :mod:`repro.relational.serialization` encoding;
* ``mapping.tgd`` — one st-tgd per line in the
  :mod:`repro.logic.parser` syntax (``#`` comments allowed);
* instance files — the serialization module's instance encoding.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import re
import signal
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from .analysis import (
    AnalysisBundle,
    AnalysisReport,
    Diagnostic,
    Severity,
    analyze,
    normalize_code_filters,
    pipeline_diagnostics,
)
from .analysis.registry import code_matches
from .budget import BudgetExceeded
from .compiler import ExchangeEngine, check_completeness
from .logic.parser import ParseError, parse_rules_spanned
from .mapping import SchemaMapping, chase
from .mapping.chase import ChaseNonTermination
from .mapping.dependencies import target_dependency_from_rule
from .mapping.sttgd import StTgd
from .obs import (
    Histogram,
    MetricsRegistry,
    Tracer,
    collecting,
    get_registry,
    get_tracer,
    render_metrics,
    render_trace,
    set_registry,
    set_tracer,
    write_json_lines,
)
from .obs.export import write_provenance_json_lines
from .optimize import optimize_mapping, optimize_pipeline
from .backends import BackendUnavailableError
from .options import DEFAULT_MAX_STEPS, ExchangeOptions
from .provenance import Solution, format_fact
from .relational import (
    Instance,
    LabeledNull,
    Schema,
    constant,
    dumps_instance,
    instance_from_json,
    schema_from_json,
)
from .relational.serialization import instance_to_json
from .service import ExchangeService, FaultPlan, PartialSolution, fault_injection
from .service.streaming import DEFAULT_CHUNK_FACTS
from .service.tenancy import quotas_from_json
from .stats import Statistics
from .workloads.generators import random_instance

DEGRADED_EXIT = 3
"""Exit code when a budgeted run emits a partial (degraded) result."""


class CliError(SystemExit):
    """Raised (as an exit) on malformed inputs; message goes to stderr."""

    def __init__(self, message: str) -> None:
        print(f"error: {message}", file=sys.stderr)
        super().__init__(2)


def _load_json(path: str) -> object:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise CliError(f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed JSON in {path}: {exc}")


def load_schemas(path: str) -> tuple[Schema, Schema]:
    data = _load_json(path)
    if not isinstance(data, dict) or "source" not in data or "target" not in data:
        raise CliError(f'{path} must contain {{"source": ..., "target": ...}}')
    return schema_from_json(data["source"]), schema_from_json(data["target"])


def load_mapping(path: str, source: Schema, target: Schema) -> SchemaMapping:
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        raise CliError(f"file not found: {path}")
    try:
        return SchemaMapping.parse(source, target, text)
    except ValueError as exc:
        raise CliError(f"bad mapping in {path}: {exc}")


def load_instance(path: str, schema: Schema, role: str) -> Instance:
    data = _load_json(path)
    try:
        inst = instance_from_json(data)
    except (KeyError, ValueError) as exc:
        raise CliError(f"bad instance in {path}: {exc}")
    if inst.schema != schema:
        raise CliError(
            f"{path} does not conform to the {role} schema "
            f"(got {inst.schema!r})"
        )
    return inst


def _emit(instance: Instance, out: str | None) -> None:
    text = dumps_instance(instance)
    if out:
        Path(out).write_text(text + "\n")
        print(f"wrote {instance.size()} facts to {out}")
    else:
        print(text)


def _options_from_args(args: argparse.Namespace) -> ExchangeOptions:
    """One :class:`ExchangeOptions` from the shared option flags.

    Flag names match the dataclass fields (``--max-facts`` →
    ``max_facts`` etc.), so this is a straight ``getattr`` fold.
    """
    try:
        return ExchangeOptions(
            workers=getattr(args, "workers", None),
            cache=getattr(args, "cache", None),
            max_steps=getattr(args, "max_steps", None) or DEFAULT_MAX_STEPS,
            deadline=getattr(args, "deadline", None),
            max_facts=getattr(args, "max_facts", None),
            provenance=bool(
                getattr(args, "provenance", False)
                or getattr(args, "provenance_json", None)
            ),
            backend=getattr(args, "backend", None) or "interpreted",
        )
    except ValueError as exc:
        raise CliError(str(exc))


def _build_engine(args: argparse.Namespace) -> tuple[ExchangeEngine, Instance | None]:
    """The compiled engine and the ``--data`` source (loaded once), or ``None``."""
    source_schema, target_schema = load_schemas(args.schemas)
    mapping = load_mapping(args.mapping, source_schema, target_schema)
    source = None
    if getattr(args, "data", None):
        source = load_instance(args.data, source_schema, "source")
    try:
        engine = ExchangeEngine.compile(
            mapping,
            Statistics.gather(source) if source is not None else None,
            options=_options_from_args(args),
        )
    except BackendUnavailableError as exc:
        raise CliError(str(exc))
    return engine, source


def _export_provenance(log, path: str | None) -> None:
    """Write a lineage log as JSON lines when ``--provenance-json`` asked."""
    if not path:
        return
    if log is None:
        print(
            f"warning: no provenance recorded; {path} not written",
            file=sys.stderr,
        )
        return
    try:
        count = write_provenance_json_lines(log, path)
    except OSError as exc:
        raise CliError(f"cannot write provenance to {path}: {exc}")
    print(f"wrote {count} provenance records to {path}", file=sys.stderr)


def _unwrap(result: Instance | Solution) -> Instance:
    """The plain instance behind a (possibly provenance-carrying) result."""
    return result.instance if isinstance(result, Solution) else result


def _emit_partial(
    exc: BudgetExceeded | ChaseNonTermination,
    options: ExchangeOptions,
    target: Schema,
    args: argparse.Namespace,
) -> int:
    """Emit a budgeted run's partial facts, warn on stderr, exit 3 (else re-raise)."""
    if not options.budgeted:
        raise exc
    violated = getattr(exc, "violated", "max_steps")
    partial = exc.partial if exc.partial is not None else Instance(target, [])
    print(
        f"warning: budget '{violated}' exhausted; emitting {partial.size()} "
        f"partial facts (not a solution) — see docs/ROBUSTNESS.md",
        file=sys.stderr,
    )
    _export_provenance(
        getattr(exc, "provenance", None), getattr(args, "provenance_json", None)
    )
    _emit(partial, args.out)
    return DEGRADED_EXIT


def cmd_plan(args: argparse.Namespace) -> int:
    engine, _ = _build_engine(args)
    print(engine.explain(verbose=args.verbose))
    if args.verbose:
        from .backends.sql import mapping_compilability

        print()
        if engine.backend_plan is not None:
            print(f"backend: {engine.backend_plan.describe()}")
        else:
            print(f"backend: {mapping_compilability(engine.mapping).summary()}")
    return 0


def cmd_questions(args: argparse.Namespace) -> int:
    engine, _ = _build_engine(args)
    questions = engine.policy_questions()
    if not questions:
        print("no open policy questions — the mapping is fully determined")
    for question in questions:
        print(f"• {question!r}")
    return 0


def cmd_exchange(args: argparse.Namespace) -> int:
    engine, source = _build_engine(args)
    try:
        result = engine.exchange(source)
    except (BudgetExceeded, ChaseNonTermination) as exc:
        return _emit_partial(exc, engine.options, engine.mapping.target, args)
    if isinstance(result, Solution):
        _export_provenance(result.provenance, getattr(args, "provenance_json", None))
    _emit(_unwrap(result), args.out)
    return 0


def cmd_chase(args: argparse.Namespace) -> int:
    source_schema, target_schema = load_schemas(args.schemas)
    mapping = load_mapping(args.mapping, source_schema, target_schema)
    source = load_instance(args.data, source_schema, "source")
    options = _options_from_args(args)
    try:
        chased = chase(mapping, source, options=options)
    except (BudgetExceeded, ChaseNonTermination) as exc:
        return _emit_partial(exc, options, target_schema, args)
    if chased.provenance.enabled:
        _export_provenance(chased.provenance, getattr(args, "provenance_json", None))
    _emit(chased.solution, args.out)
    return 0


def cmd_put(args: argparse.Namespace) -> int:
    engine, source = _build_engine(args)
    view = load_instance(args.view, engine.mapping.target, "target")
    _emit(engine.put_back(view, source), args.out)
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Run compile → exchange → put under tracing; print what happened.

    The put pushes back the unedited solution (a GetPut round-trip), so
    the profile covers the chase and both lens directions (``put``
    diffs against ``lens.get``) without needing an edit file.
    """
    engine, source = _build_engine(args)
    for _ in range(max(args.repeat, 1)):
        engine.put_back(_unwrap(engine.exchange(source)), source)
    print(render_trace(get_tracer()))
    print()
    print(render_metrics(get_registry()))
    backend = engine.backend
    if backend is not None:
        print()
        print(f"backend phases ({backend.name}):")
        for phase in ("load", "compile", "execute", "extract"):
            seconds = backend.last_phase_timings.get(phase)
            if seconds is not None:
                print(f"  {phase:<8} {seconds * 1e3:8.3f} ms")
    if args.verbose:
        print()
        print(engine.explain(verbose=True))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    engine, source = _build_engine(args)
    report = check_completeness(engine, [source])
    print(report)
    for failure in report.failures:
        print("  ✗", failure)
    return 0 if report.complete else 1


def _parse_diagnostic(exc: ParseError | ValueError, source: str) -> Diagnostic:
    """RA000 — the text never reached the analyser (syntax/shape error)."""
    span = getattr(exc, "span", None)
    return Diagnostic(
        "RA000",
        Severity.ERROR,
        str(exc),
        span,
        "parse",
        {"source": source},
    )


def cmd_lint(args: argparse.Namespace) -> int:
    """Statically analyse a mapping without running any exchange.

    Unlike the other subcommands, lint keeps going on bad input: parse
    failures and schema violations become RA000/RA006 diagnostics instead
    of hard CLI errors, so one run reports everything it can find.
    """
    source_schema, target_schema = load_schemas(args.schemas)
    diagnostics: list[Diagnostic] = []

    try:
        mapping_text = Path(args.mapping).read_text()
    except FileNotFoundError:
        raise CliError(f"file not found: {args.mapping}")
    tgds: list[StTgd] = []
    tgd_spans = []
    try:
        spanned = parse_rules_spanned(mapping_text, source=args.mapping)
    except ParseError as exc:
        diagnostics.append(_parse_diagnostic(exc, args.mapping))
        spanned = []
    for item in spanned:
        try:
            tgds.append(StTgd.from_parsed(item.rule))
            tgd_spans.append(item.span)
        except ValueError as exc:
            diagnostics.append(_parse_diagnostic(exc, args.mapping))

    dependencies = []
    dependency_spans = []
    if args.target_deps:
        try:
            deps_text = Path(args.target_deps).read_text()
        except FileNotFoundError:
            raise CliError(f"file not found: {args.target_deps}")
        try:
            spanned_deps = parse_rules_spanned(deps_text, source=args.target_deps)
        except ParseError as exc:
            diagnostics.append(_parse_diagnostic(exc, args.target_deps))
            spanned_deps = []
        for item in spanned_deps:
            try:
                dependencies.append(target_dependency_from_rule(item.rule))
                dependency_spans.append(item.span)
            except ValueError as exc:
                diagnostics.append(_parse_diagnostic(exc, args.target_deps))

    try:
        select = normalize_code_filters(args.select) if args.select else None
        ignore = normalize_code_filters(args.ignore) if args.ignore else None
    except ValueError as exc:
        raise CliError(str(exc))
    if select or ignore:
        # RA000 parse diagnostics bypass the analyser, so filter them here.
        diagnostics = [
            d
            for d in diagnostics
            if code_matches(d.code, select or (), ignore or ())
        ]

    bundle = AnalysisBundle(
        source_schema,
        target_schema,
        tgds,
        tgd_spans,
        dependencies,
        dependency_spans,
    )
    report = analyze(bundle, select=select, ignore=ignore).merged_with(
        AnalysisReport(diagnostics)
    )
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
    return report.exit_code()


def _load_dependencies(path: str) -> list:
    """Target dependencies (egds / target tgds), one rule per line."""
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        raise CliError(f"file not found: {path}")
    dependencies = []
    try:
        for item in parse_rules_spanned(text, source=path):
            dependencies.append(target_dependency_from_rule(item.rule))
    except (ParseError, ValueError) as exc:
        raise CliError(f"bad target dependencies in {path}: {exc}")
    return dependencies


def _load_stage(
    schemas_path: str, mapping_path: str, deps_path: str | None
) -> SchemaMapping:
    """One pipeline stage: schemas + tgds + optional target dependencies."""
    source_schema, target_schema = load_schemas(schemas_path)
    mapping = load_mapping(mapping_path, source_schema, target_schema)
    if deps_path:
        try:
            mapping = SchemaMapping(
                source_schema,
                target_schema,
                mapping.tgds,
                _load_dependencies(deps_path),
            )
        except ValueError as exc:
            raise CliError(f"bad target dependencies in {deps_path}: {exc}")
    return mapping


def _load_pipeline_spec(path: str) -> tuple[list[SchemaMapping], str | None]:
    """A pipeline spec file: ``{"stages": [{"schemas": ..., "mapping": ...,
    "target_deps": ...}, ...], "data": ...}``; paths resolve relative to
    the spec file so specs can live next to their inputs."""
    data = _load_json(path)
    if not isinstance(data, dict) or not isinstance(data.get("stages"), list):
        raise CliError(f'{path} must contain {{"stages": [...]}}')
    if not data["stages"]:
        raise CliError(f"{path} lists no stages")
    here = Path(path).parent

    def resolve(value: object, what: str) -> str:
        if not isinstance(value, str):
            raise CliError(f"{path}: stage {what} must be a path string")
        return str(here / value)

    stages = []
    for index, entry in enumerate(data["stages"]):
        if not isinstance(entry, dict) or "schemas" not in entry or "mapping" not in entry:
            raise CliError(
                f"{path}: stage {index} needs \"schemas\" and \"mapping\" keys"
            )
        deps = entry.get("target_deps")
        stages.append(
            _load_stage(
                resolve(entry["schemas"], f"{index} schemas"),
                resolve(entry["mapping"], f"{index} mapping"),
                resolve(deps, f"{index} target_deps") if deps else None,
            )
        )
    data_path = data.get("data")
    return stages, (resolve(data_path, "data") if data_path else None)


def _apply_plan(plan, out: str) -> None:
    """Write the optimized stages' tgd text; one file per stage."""
    paths = (
        [out]
        if len(plan.optimized) == 1
        else [f"{out}.stage{i}" for i in range(len(plan.optimized))]
    )
    for stage, stage_path in zip(plan.optimized, paths):
        text = "\n".join(t.to_text() for t in stage.tgds)
        try:
            Path(stage_path).write_text(text + "\n")
        except OSError as exc:
            raise CliError(f"cannot write mapping to {stage_path}: {exc}")
        print(
            f"wrote {len(stage.tgds)} tgd(s) to {stage_path}", file=sys.stderr
        )


def cmd_optimize(args: argparse.Namespace) -> int:
    """Build (and optionally apply) a chase-verified rewrite plan.

    Single-mapping mode (``--schemas``/``--mapping``) prunes redundant
    tgds; pipeline mode (``--pipeline spec.json``) additionally collapses
    composable stages into one mapping chased once.  Every rewrite is
    chase-verified on generated instances before being suggested (disable
    with ``--no-verify``); refuted rewrites are abandoned, so ``--apply``
    never writes an unverified mapping.
    """
    data_path = args.data
    if args.pipeline:
        if args.schemas or args.mapping or args.target_deps:
            raise CliError(
                "--pipeline replaces --schemas/--mapping/--target-deps "
                "(stage inputs live in the spec file)"
            )
        stages, spec_data = _load_pipeline_spec(args.pipeline)
        data_path = data_path or spec_data
    else:
        if not args.schemas or not args.mapping:
            raise CliError(
                "optimize needs --schemas and --mapping, or --pipeline"
            )
        stages = [_load_stage(args.schemas, args.mapping, args.target_deps)]

    statistics = None
    if data_path:
        statistics = Statistics.gather(
            load_instance(data_path, stages[0].source, "source")
        )

    seeds = tuple(range(max(args.verify_seeds, 1)))
    max_steps = args.max_steps or DEFAULT_MAX_STEPS
    try:
        if args.pipeline:
            plan = optimize_pipeline(
                stages,
                statistics,
                verify=not args.no_verify,
                verify_seeds=seeds,
                verify_rows=args.verify_rows,
                max_steps=max_steps,
            )
            plan = replace(
                plan, diagnostics=tuple(pipeline_diagnostics(stages))
            )
        else:
            plan = optimize_mapping(
                stages[0],
                statistics,
                verify=not args.no_verify,
                verify_seeds=seeds,
                verify_rows=args.verify_rows,
                max_steps=max_steps,
            )
    except ValueError as exc:
        raise CliError(str(exc))

    if args.json:
        print(plan.to_json())
    else:
        print(plan.render())
    if args.apply:
        _apply_plan(plan, args.apply)
    return 0


_FACT_PATTERN = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*\((.*)\)\s*$", re.S)


def _split_pattern_args(text: str) -> list[str]:
    """Split a pattern's argument list on commas, respecting quotes."""
    parts: list[str] = []
    current: list[str] = []
    quote: str | None = None
    for ch in text:
        if quote:
            current.append(ch)
            if ch == quote:
                quote = None
        elif ch in "\"'":
            quote = ch
            current.append(ch)
        elif ch == ",":
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if quote:
        raise CliError(f"unterminated quote in --fact argument: {text!r}")
    if current or parts:
        parts.append("".join(current))
    return parts


def _parse_pattern_term(token: str):
    """One ``--fact`` argument: ``_`` wildcard (None), ``⊥N`` null,
    quoted string, int/float, or a bare word read as a string constant."""
    token = token.strip()
    if not token:
        raise CliError("empty argument in --fact pattern")
    if token == "_":
        return None
    if token.startswith("⊥"):
        try:
            return LabeledNull(int(token[1:]))
        except ValueError:
            raise CliError(f"bad labelled null in --fact: {token!r}")
    if len(token) >= 2 and token[0] == token[-1] and token[0] in "\"'":
        return constant(token[1:-1])
    try:
        return constant(int(token))
    except ValueError:
        pass
    try:
        return constant(float(token))
    except ValueError:
        pass
    return constant(token)


def _parse_fact_pattern(text: str) -> tuple[str, list]:
    """Parse ``Rel(a, _, "b")`` into a relation name and term patterns."""
    match = _FACT_PATTERN.match(text)
    if match is None:
        raise CliError(
            f"--fact must look like Rel(arg, ...) with _ wildcards; got {text!r}"
        )
    relation, body = match.group(1), match.group(2).strip()
    terms = [] if not body else [_parse_pattern_term(t) for t in _split_pattern_args(body)]
    return relation, terms


def _fact_matches(fact, relation: str, terms: list) -> bool:
    if fact.relation != relation or len(fact.row) != len(terms):
        return False
    return all(term is None or term == value for term, value in zip(terms, fact.row))


def cmd_explain(args: argparse.Namespace) -> int:
    """Run the exchange with lineage on and print why-trees for facts.

    ``--fact`` filters the solution by a pattern (``_`` is a wildcard;
    quoted strings, ints and ``⊥N`` nulls match exactly); without it the
    first ``--limit`` facts (sorted) are explained.  ``--json`` emits the
    trees as one JSON array instead of the indented text rendering.
    """
    args.provenance = True  # explain is pointless without lineage
    engine, source = _build_engine(args)
    result = engine.exchange(source)
    assert isinstance(result, Solution)
    _export_provenance(result.provenance, getattr(args, "provenance_json", None))

    facts = sorted(result.instance.facts(), key=repr)
    if args.fact:
        relation, terms = _parse_fact_pattern(args.fact)
        facts = [f for f in facts if _fact_matches(f, relation, terms)]
        if not facts:
            print(f"no solution facts match {args.fact!r}", file=sys.stderr)
            return 1
    shown = facts[: args.limit] if args.limit > 0 else facts
    trees = [result.explain(fact) for fact in shown]
    if args.json:
        print(json.dumps([tree.to_dict() for tree in trees], indent=2, sort_keys=True))
    else:
        for index, tree in enumerate(trees):
            if index:
                print()
            print(tree.render())
    if len(facts) > len(shown):
        print(
            f"({len(facts) - len(shown)} more facts; raise --limit to see them)",
            file=sys.stderr,
        )
    return 0


def _bench_fault_plan(args: argparse.Namespace) -> FaultPlan:
    plan = FaultPlan(())
    if args.inject_pool_crashes:
        plan = plan.merged_with(FaultPlan.pool_crashes(args.inject_pool_crashes))
    if args.inject_spawn_failures:
        plan = plan.merged_with(
            FaultPlan.pool_spawn_failures(args.inject_spawn_failures)
        )
    if args.inject_slow_chase:
        plan = plan.merged_with(FaultPlan.slow_chase(args.inject_slow_chase))
    return plan


def _load_quotas(path: str) -> dict:
    """Per-tenant quota config: ``{"tenant": {"weight": ..., ...}}``."""
    data = _load_json(path)
    try:
        return quotas_from_json(data)
    except ValueError as exc:
        raise CliError(f"bad tenants config in {path}: {exc}")


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve one mapping over HTTP (asyncio, chunked NDJSON streaming).

    Binds, prints a ``listening on`` line (port 0 resolves to the
    OS-assigned port — scripts parse this line), then serves until
    interrupted.  See docs/SERVICE.md for the wire API.
    """
    from .service.aserve import ExchangeServer

    source_schema, target_schema = load_schemas(args.schemas)
    mapping = load_mapping(args.mapping, source_schema, target_schema)
    options = _options_from_args(args)
    quotas = _load_quotas(args.tenants) if args.tenants else None
    try:
        service = ExchangeService(
            mapping, options, max_in_flight=args.max_in_flight, quotas=quotas
        )
    except BackendUnavailableError as exc:
        raise CliError(str(exc))
    server = ExchangeServer(
        service, host=args.host, port=args.port, chunk_facts=args.chunk_facts
    )

    async def run() -> None:
        # SIGTERM/SIGINT stop the loop cleanly so the worker pool is
        # torn down too (otherwise orphaned workers keep stdio pipes
        # open and `kill` leaves the port's children behind).
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        await server.start()
        print(
            f"repro serve: listening on http://{args.host}:{server.port}",
            flush=True,
        )
        serving = asyncio.ensure_future(server.serve_forever())
        stopping = asyncio.ensure_future(stop.wait())
        try:
            await asyncio.wait(
                {serving, stopping}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            for task in (serving, stopping):
                task.cancel()
            await server.aclose()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    finally:
        print("repro serve: shutting down", file=sys.stderr)
        service.close()
    return 0


def _serve_bench_http(
    args: argparse.Namespace,
    mapping: SchemaMapping,
    options: ExchangeOptions,
    sources: list[Instance],
) -> tuple[dict, list[str]]:
    """Drive the HTTP server with --concurrency simultaneous streamed requests.

    An in-process :class:`~repro.service.aserve.ExchangeServer` on an
    OS-assigned port, hammered by one asyncio client pool — the full
    wire path (JSON body in, chunked NDJSON out), so the latencies
    include parsing, admission, pool dispatch and streaming.  The
    fault-injection plan covers the server's pool seams, and the report
    counts the retries and breaker openings they caused.
    """
    from .service.aserve import ExchangeClient, ExchangeClientError, ExchangeServer

    quotas = _load_quotas(args.tenants) if args.tenants else None
    capacity = max(args.max_in_flight, args.concurrency)
    try:
        service = ExchangeService(
            mapping, options, max_in_flight=capacity, quotas=quotas
        )
    except BackendUnavailableError as exc:
        raise CliError(str(exc))
    bodies = [
        {
            "source": instance_to_json(source),
            "tenant": "bench",
            "request_id": f"bench-{index}",
            "stream": True,
        }
        for index, source in enumerate(sources)
    ]
    latencies: list[float] = []
    degraded: dict[str, int] = {}
    errors: list[str] = []
    rejected = 0
    streamed_chunks = 0

    async def run() -> float:
        nonlocal rejected, streamed_chunks
        server = ExchangeServer(service, host="127.0.0.1", port=0)
        await server.start()
        client = ExchangeClient("127.0.0.1", server.port)
        gate = asyncio.Semaphore(args.concurrency)

        async def one(body: dict) -> None:
            nonlocal rejected, streamed_chunks
            async with gate:
                started = time.perf_counter()
                try:
                    events = await client.exchange(body)
                except ExchangeClientError as exc:
                    if exc.status == 429:
                        rejected += 1
                    else:
                        errors.append(str(exc))
                    return
                except (ConnectionError, OSError, asyncio.IncompleteReadError) as exc:
                    errors.append(f"{type(exc).__name__}: {exc}")
                    return
                latencies.append(time.perf_counter() - started)
                streamed_chunks += sum(
                    1 for event in events if event.get("kind") == "facts"
                )
                summary = events[-1] if events else {}
                if summary.get("status") == "partial":
                    violated = summary.get("violated") or "unknown"
                    degraded[violated] = degraded.get(violated, 0) + 1

        bench_started = time.perf_counter()
        await asyncio.gather(*(one(body) for body in bodies))
        elapsed = time.perf_counter() - bench_started
        await server.aclose()
        return elapsed

    with collecting() as registry, fault_injection(_bench_fault_plan(args)):
        try:
            elapsed = asyncio.run(run())
        finally:
            service.close()
        counters = registry.snapshot()["counters"]
    completed = len(latencies)
    report = {
        "mode": "http",
        "requests": args.requests,
        "concurrency": args.concurrency,
        "completed": completed,
        "degraded": degraded,
        "rejected": rejected,
        "errors": len(errors),
        **_pool_counters(counters),
        "streamed_chunks": streamed_chunks,
        **_latency_percentiles(latencies),
        "throughput_rps": round(completed / elapsed, 3) if elapsed > 0 else 0.0,
        "clean_shutdown": True,
    }
    return report, errors


def cmd_serve_bench(args: argparse.Namespace) -> int:
    """Stress the exchange service and report how it held up.

    Default mode drives --requests exchanges (synthetic sources unless
    --data is given) through one ExchangeService under an optional
    fault-injection plan.  ``--concurrency N`` switches to HTTP mode:
    an in-process ``repro serve`` instance is hammered with N
    simultaneous streamed requests over real sockets; only this mode
    has a worker pool, so ``--workers`` and the pool fault flags need
    it.  Both modes
    report completion/degradation counts, latency percentiles and
    throughput; ``--check-throughput RPS`` turns the report into a
    guard (exit 1 below the floor).  Exit 0 when every request got an
    answer (possibly degraded), 1 when any raised.
    """
    if not args.concurrency:
        pool_flags = [
            flag
            for flag, value in (
                ("--workers", args.workers),
                ("--inject-pool-crashes", args.inject_pool_crashes),
                ("--inject-spawn-failures", args.inject_spawn_failures),
            )
            if value
        ]
        if pool_flags:
            raise CliError(
                f"{', '.join(pool_flags)} need --concurrency: only the HTTP "
                "mode runs a worker pool"
            )
    source_schema, target_schema = load_schemas(args.schemas)
    mapping = load_mapping(args.mapping, source_schema, target_schema)
    options = _options_from_args(args)
    rng = random.Random(args.seed)
    if args.data:
        template = load_instance(args.data, source_schema, "source")
        sources = [template] * args.requests
    else:
        sources = [
            random_instance(source_schema, rng, rows_per_relation=args.rows)
            for _ in range(args.requests)
        ]

    if args.concurrency:
        report, errors = _serve_bench_http(args, mapping, options, sources)
        return _finish_serve_bench(args, report, errors)

    completed = 0
    degraded: dict[str, int] = {}
    errors: list[str] = []
    latencies: list[float] = []
    clean_shutdown = False
    bench_started = time.perf_counter()
    with collecting() as registry:
        with fault_injection(_bench_fault_plan(args)):
            service = ExchangeService(
                mapping, options, max_in_flight=args.max_in_flight
            )
            try:
                for source in sources:
                    started = time.perf_counter()
                    try:
                        result = service.exchange(source)
                    except Exception as exc:  # the bench reports, never dies
                        errors.append(f"{type(exc).__name__}: {exc}")
                        continue
                    latencies.append(time.perf_counter() - started)
                    completed += 1
                    if isinstance(result, PartialSolution):
                        degraded[result.violated] = (
                            degraded.get(result.violated, 0) + 1
                        )
            finally:
                try:
                    service.close()
                    clean_shutdown = True
                except Exception as exc:
                    errors.append(f"close: {type(exc).__name__}: {exc}")
        counters = registry.snapshot()["counters"]

    elapsed = time.perf_counter() - bench_started
    report = {
        "requests": args.requests,
        "completed": completed,
        "degraded": degraded,
        "errors": len(errors),
        **_pool_counters(counters),
        "rejections": int(counters.get("service.rejections", 0)),
        **_latency_percentiles(latencies),
        "throughput_rps": round(completed / elapsed, 3) if elapsed > 0 else 0.0,
        "clean_shutdown": clean_shutdown,
    }
    return _finish_serve_bench(args, report, errors)


def _latency_percentiles(latencies: list[float]) -> dict[str, float]:
    """p50/p95/p99 in ms (nearest rank, :meth:`Histogram.percentile`)."""
    histogram = Histogram("latency")
    histogram.values = latencies
    return {
        f"latency_p{p}_ms": round(histogram.percentile(p) * 1000, 3)
        for p in (50, 95, 99)
    }


def _pool_counters(counters: dict) -> dict[str, int]:
    """The worker-pool and cache figures of a serve-bench report."""
    return {
        "cache_hits": int(counters.get("exchange.cache.hits", 0)),
        "retries": int(counters.get("service.retries", 0)),
        "pool_failures": int(counters.get("exchange.pool.failures", 0)),
        "breaker_opens": int(counters.get("service.breaker_open", 0)),
    }


def _finish_serve_bench(
    args: argparse.Namespace, report: dict, errors: list[str]
) -> int:
    """Emit the serve-bench report and apply the --check-throughput floor."""
    if args.bench_out:
        try:
            Path(args.bench_out).write_text(
                json.dumps(report, indent=2, sort_keys=True) + "\n"
            )
        except OSError as exc:
            raise CliError(f"cannot write report to {args.bench_out}: {exc}")
        print(f"wrote bench report to {args.bench_out}", file=sys.stderr)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print("serve-bench:")
        for key, value in report.items():
            print(f"  {key}: {value}")
        for message in errors:
            print(f"  error: {message}", file=sys.stderr)
    if args.check_throughput is not None:
        observed = report["throughput_rps"]
        if observed < args.check_throughput:
            print(
                f"serve-bench: throughput {observed} rps below the "
                f"--check-throughput floor {args.check_throughput}",
                file=sys.stderr,
            )
            return 1
    return 0 if not errors else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bidirectional data exchange: st-tgd mappings compiled to lenses.",
    )

    # Shared parent parsers — one definition per flag, so every
    # subcommand spells inputs, tracing, and execution limits the same
    # way.  The options parent mirrors the ExchangeOptions fields
    # one-to-one (--max-facts → max_facts, ...); see _options_from_args.
    tracing = argparse.ArgumentParser(add_help=False)
    tracing.add_argument(
        "--trace",
        action="store_true",
        help="print the span tree and metric summary to stderr",
    )
    tracing.add_argument(
        "--trace-json",
        metavar="FILE",
        help="write the trace as JSON lines to FILE",
    )

    base = argparse.ArgumentParser(add_help=False, parents=[tracing])
    base.add_argument("--schemas", required=True, help="schemas JSON file")
    base.add_argument("--mapping", required=True, help="tgd text file")

    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--data", required=True, help="source instance JSON")
    data.add_argument("--out", help="write result JSON here (default: stdout)")

    options = argparse.ArgumentParser(add_help=False)
    options.add_argument(
        "--cache",
        type=int,
        metavar="N",
        help="cache up to N universal solutions keyed by content fingerprint",
    )
    options.add_argument(
        "--max-steps",
        type=int,
        metavar="N",
        help=f"chase step cap before non-termination (default {DEFAULT_MAX_STEPS})",
    )
    options.add_argument(
        "--deadline",
        type=float,
        metavar="SECONDS",
        help="wall-clock budget; past it a partial result is emitted (exit 3)",
    )
    options.add_argument(
        "--max-facts",
        type=int,
        metavar="N",
        help="fact-count budget; past it a partial result is emitted (exit 3)",
    )
    options.add_argument(
        "--backend",
        choices=("interpreted", "sqlite", "duckdb"),
        default="interpreted",
        help="where the exchange runs: the interpreted chase (default) or "
        "a SQL engine (compilable mappings only; others fall back with a "
        "reason — see docs/PERFORMANCE.md 'Choosing a backend')",
    )
    options.add_argument(
        "--provenance",
        action="store_true",
        help="record fact-level lineage (see `repro explain`)",
    )
    options.add_argument(
        "--provenance-json",
        metavar="FILE",
        help="write the lineage log as JSON lines to FILE (implies --provenance)",
    )

    # Shared by the service front ends (serve, serve-bench): the server's
    # worker pool, admission capacity and per-tenant quota configuration.
    service_opts = argparse.ArgumentParser(add_help=False)
    service_opts.add_argument(
        "--workers",
        type=int,
        metavar="N",
        help="size of the server's worker pool: N requests chase at once "
        "(default 2)",
    )
    service_opts.add_argument(
        "--max-in-flight",
        type=int,
        default=64,
        metavar="N",
        help="admission-control limit (default 64)",
    )
    service_opts.add_argument(
        "--tenants",
        metavar="FILE",
        help='per-tenant quotas JSON: {"tenant": {"weight": W, '
        '"max_in_flight": N}} (see docs/SERVICE.md)',
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "plan", parents=[base, options], help="print the compiled mapping plan"
    )
    p.add_argument("--data", help="source instance JSON (for statistics)")
    p.add_argument(
        "--verbose",
        action="store_true",
        help="append observed-vs-estimated cardinalities",
    )
    p.set_defaults(handler=cmd_plan)

    p = sub.add_parser(
        "questions", parents=[base, options], help="list open policy questions"
    )
    p.set_defaults(handler=cmd_questions)

    p = sub.add_parser(
        "exchange",
        parents=[base, data, options],
        help="forward exchange via the compiled lens",
    )
    p.set_defaults(handler=cmd_exchange)

    p = sub.add_parser(
        "chase",
        parents=[base, data, options],
        help="forward exchange via the chase (reference)",
    )
    p.set_defaults(handler=cmd_chase)

    p = sub.add_parser(
        "put",
        parents=[base, data, options],
        help="propagate target edits back to the source",
    )
    p.add_argument("--view", required=True, help="edited target instance JSON")
    p.set_defaults(handler=cmd_put)

    p = sub.add_parser(
        "check",
        parents=[base, data, options],
        help="run the completeness check",
    )
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser(
        "lint",
        parents=[base],
        help="statically analyse the mapping; exit 0 clean / 1 warnings / 2 errors",
    )
    p.add_argument(
        "--target-deps",
        metavar="FILE",
        help="target dependencies (egds / target tgds), one rule per line",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON (see docs/ANALYSIS.md for the shape)",
    )
    p.add_argument(
        "--select",
        action="append",
        metavar="CODES",
        help="only report these codes (comma-separated, prefix match: "
        "RA6 selects all RA6xx); repeatable",
    )
    p.add_argument(
        "--ignore",
        action="append",
        metavar="CODES",
        help="suppress these codes (comma-separated, prefix match); "
        "repeatable, applied after --select",
    )
    p.set_defaults(handler=cmd_lint)

    p = sub.add_parser(
        "optimize",
        parents=[tracing],
        help="chase-verified rewrite plan: prune redundant tgds, collapse "
        "pipeline stages into one composed chase",
    )
    p.add_argument("--schemas", help="schemas JSON file (single-mapping mode)")
    p.add_argument("--mapping", help="tgd text file (single-mapping mode)")
    p.add_argument(
        "--target-deps",
        metavar="FILE",
        help="target dependencies (egds / target tgds), one rule per line",
    )
    p.add_argument(
        "--pipeline",
        metavar="SPEC",
        help='pipeline spec JSON {"stages": [{"schemas": ..., "mapping": ..., '
        '"target_deps": ...}, ...], "data": ...}; paths resolve relative to '
        "the spec file",
    )
    p.add_argument(
        "--data",
        help="source instance JSON for cost statistics (default: assumed "
        "cardinalities)",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the rewrite plan as JSON (stable keys; see docs/ANALYSIS.md)",
    )
    p.add_argument(
        "--apply",
        metavar="OUT",
        help="write the optimized mapping's tgd text to OUT "
        "(OUT.stageN per stage when a pipeline keeps several)",
    )
    p.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the chase cross-check (faster; rewrites stay unverified)",
    )
    p.add_argument(
        "--verify-seeds",
        type=int,
        default=2,
        metavar="N",
        help="verify on N generated source instances (default 2)",
    )
    p.add_argument(
        "--verify-rows",
        type=int,
        default=6,
        metavar="N",
        help="rows per relation in generated verification instances (default 6)",
    )
    p.add_argument(
        "--max-steps",
        type=int,
        metavar="N",
        help=f"chase step cap for implication tests (default {DEFAULT_MAX_STEPS})",
    )
    p.set_defaults(handler=cmd_optimize)

    p = sub.add_parser(
        "explain",
        parents=[base, options],
        help="run the exchange with lineage on and print per-fact why-trees",
    )
    p.add_argument("--data", required=True, help="source instance JSON")
    p.add_argument(
        "--fact",
        metavar="PATTERN",
        help="explain only facts matching e.g. 'Manager(_, \"Ava\")' "
        "(_ wildcards; quoted strings, ints and ⊥N nulls match exactly)",
    )
    p.add_argument(
        "--limit",
        type=int,
        default=20,
        metavar="N",
        help="explain at most N facts (default 20; 0 = all)",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the why-trees as one JSON array",
    )
    p.set_defaults(handler=cmd_explain)

    p = sub.add_parser(
        "profile",
        parents=[base, data, options],
        help="run compile/chase/exchange/put under tracing and print the "
        "span tree and metric summary",
    )
    p.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="run the get/put round-trip N times (default 1)",
    )
    p.add_argument(
        "--verbose",
        action="store_true",
        help="also print the plan with observed-vs-estimated cardinalities",
    )
    p.set_defaults(handler=cmd_profile)

    p = sub.add_parser(
        "serve",
        parents=[base, options, service_opts],
        help="serve the mapping over HTTP (asyncio, chunked NDJSON streaming)",
    )
    p.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    p.add_argument(
        "--port",
        type=int,
        default=8080,
        metavar="N",
        help="listen port (default 8080; 0 = OS-assigned, printed at startup)",
    )
    p.add_argument(
        "--chunk-facts",
        type=int,
        default=DEFAULT_CHUNK_FACTS,
        metavar="N",
        help=f"facts per streamed NDJSON chunk (default {DEFAULT_CHUNK_FACTS})",
    )
    p.set_defaults(handler=cmd_serve)

    p = sub.add_parser(
        "serve-bench",
        parents=[base, options, service_opts],
        help="stress the exchange service; report degradation/retry/latency",
    )
    p.add_argument("--data", help="source instance JSON (default: synthetic)")
    p.add_argument(
        "--requests",
        type=int,
        default=8,
        metavar="N",
        help="number of exchange requests to drive (default 8)",
    )
    p.add_argument(
        "--rows",
        type=int,
        default=10,
        metavar="N",
        help="rows per relation in synthetic sources (default 10)",
    )
    p.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="N",
        help="RNG seed for synthetic sources (default 0)",
    )
    p.add_argument(
        "--inject-pool-crashes",
        type=int,
        default=0,
        metavar="N",
        help="crash the first N pool dispatches (BrokenProcessPool); "
        "needs --concurrency",
    )
    p.add_argument(
        "--inject-spawn-failures",
        type=int,
        default=0,
        metavar="N",
        help="fail the first N pool creations (OSError); needs --concurrency",
    )
    p.add_argument(
        "--inject-slow-chase",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="sleep SECONDS per chase step (trips deadlines)",
    )
    p.add_argument(
        "--concurrency",
        type=int,
        default=0,
        metavar="N",
        help="HTTP mode: drive N simultaneous streamed requests through an "
        "in-process `repro serve` over real sockets (default 0 = "
        "in-process mode, no worker pool)",
    )
    p.add_argument(
        "--check-throughput",
        type=float,
        default=None,
        metavar="RPS",
        help="exit 1 when measured throughput falls below RPS "
        "(regression guard for CI)",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON (one object, stable keys)",
    )
    p.add_argument(
        "--bench-out",
        metavar="FILE",
        help="also write the JSON report to FILE (e.g. BENCH_service.json)",
    )
    p.set_defaults(handler=cmd_serve_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        code = _run(build_parser().parse_args(argv))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (``repro exchange ... | head -1``).
        # Point the descriptor at devnull so the interpreter's final
        # flush cannot fail again, and exit without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


def _run(args: argparse.Namespace) -> int:
    # Tracing is scoped to this invocation: install a fresh tracer and
    # registry when asked for (profile always traces), emit afterwards,
    # and restore the previous globals so embedding callers are unharmed.
    trace_flag = getattr(args, "trace", False)
    trace_json = getattr(args, "trace_json", None)
    if not (trace_flag or trace_json or args.command == "profile"):
        return args.handler(args)

    previous_tracer, previous_registry = get_tracer(), get_registry()
    tracer = Tracer()
    set_tracer(tracer)
    set_registry(MetricsRegistry())
    try:
        code = args.handler(args)
    finally:
        registry = get_registry()
        set_tracer(previous_tracer)
        set_registry(previous_registry)
        # profile prints its own report to stdout; --trace goes to stderr
        # so piped stdout (instance JSON) stays parseable.
        if trace_flag and args.command != "profile":
            print(render_trace(tracer), file=sys.stderr)
            print(render_metrics(registry), file=sys.stderr)
        if trace_json:
            try:
                count = write_json_lines(tracer, trace_json)
            except OSError as exc:
                print(
                    f"error: cannot write trace to {trace_json}: {exc}",
                    file=sys.stderr,
                )
                code = 2
            else:
                print(f"wrote {count} spans to {trace_json}", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
