"""The pass registry: named analyses run over an :class:`AnalysisBundle`.

Each pass module registers itself with :func:`register`; :func:`analyze`
runs every registered pass (or a selection) and folds the findings into
one :class:`~repro.analysis.diagnostics.AnalysisReport`.  Passes are pure
functions of the bundle — no chase, no I/O — so linting is safe to run on
arbitrary untrusted mapping text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..mapping.sttgd import SchemaMapping
from .bundle import AnalysisBundle
from .diagnostics import AnalysisReport, Diagnostic

PassFunction = Callable[[AnalysisBundle], list[Diagnostic]]


@dataclass(frozen=True)
class AnalysisPass:
    """A registered analysis: name, the codes it may emit, and the runner."""

    name: str
    codes: tuple[str, ...]
    description: str
    run: PassFunction

    def __repr__(self) -> str:
        return f"AnalysisPass({self.name}: {', '.join(self.codes)})"


_REGISTRY: dict[str, AnalysisPass] = {}


def register(
    name: str, codes: Sequence[str], description: str
) -> Callable[[PassFunction], PassFunction]:
    """Decorator registering a pass function under *name*."""

    def wrap(function: PassFunction) -> PassFunction:
        if name in _REGISTRY:
            raise ValueError(f"analysis pass {name!r} registered twice")
        _REGISTRY[name] = AnalysisPass(name, tuple(codes), description, function)
        return function

    return wrap


def all_passes() -> list[AnalysisPass]:
    """Every registered pass, in registration order."""
    _ensure_loaded()
    return list(_REGISTRY.values())


def get_pass(name: str) -> AnalysisPass:
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"no analysis pass {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def _ensure_loaded() -> None:
    # Import the pass modules for their registration side effects.
    from . import (  # noqa: F401
        algebra,
        backend,
        composability,
        invertibility,
        safety,
        templates,
        termination,
    )


def normalize_code_filters(patterns: Iterable[str] | None) -> tuple[str, ...]:
    """Normalize ``--select``/``--ignore`` patterns to code prefixes.

    Accepts full codes (``RA601``) and prefixes (``RA6``, ``ra6``);
    comma-separated entries are split.  Unknown-looking patterns raise
    ``ValueError`` so typos don't silently select nothing.
    """
    if patterns is None:
        return ()
    out: list[str] = []
    for entry in patterns:
        for raw in entry.split(","):
            pattern = raw.strip().upper()
            if not pattern:
                continue
            if not pattern.startswith("RA") or not pattern[2:].isdigit():
                raise ValueError(
                    f"invalid diagnostic filter {raw!r}: expected a code or "
                    f"prefix like RA601 or RA6"
                )
            out.append(pattern)
    return tuple(out)


def code_matches(code: str, select: Sequence[str], ignore: Sequence[str]) -> bool:
    """Whether *code* survives the select/ignore prefix filters."""
    if select and not any(code.startswith(p) for p in select):
        return False
    return not any(code.startswith(p) for p in ignore)


def analyze(
    bundle: AnalysisBundle,
    passes: Iterable[str] | None = None,
    *,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> AnalysisReport:
    """Run the registered passes over *bundle* and report the findings.

    *select* / *ignore* filter by diagnostic-code prefix (``RA601``,
    ``RA6``): a pass is skipped entirely when none of its codes survive
    the filters (so e.g. ``--ignore RA6`` avoids running the chase-backed
    algebra pass at all), and individual findings are filtered too.
    """
    _ensure_loaded()
    selected = (
        [get_pass(n) for n in passes] if passes is not None else all_passes()
    )
    select_prefixes = normalize_code_filters(select)
    ignore_prefixes = normalize_code_filters(ignore)
    findings: list[Diagnostic] = []
    for analysis_pass in selected:
        if not any(
            code_matches(code, select_prefixes, ignore_prefixes)
            for code in analysis_pass.codes
        ):
            continue
        for diagnostic in analysis_pass.run(bundle):
            if not code_matches(diagnostic.code, select_prefixes, ignore_prefixes):
                continue
            if not diagnostic.pass_name:
                diagnostic = Diagnostic(
                    diagnostic.code,
                    diagnostic.severity,
                    diagnostic.message,
                    diagnostic.span,
                    analysis_pass.name,
                    diagnostic.data,
                )
            findings.append(diagnostic)
    return AnalysisReport(findings)


def analyze_mapping(
    mapping: SchemaMapping,
    passes: Iterable[str] | None = None,
    *,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    **bundle_kwargs,
) -> AnalysisReport:
    """Convenience: bundle a :class:`SchemaMapping` and run :func:`analyze`."""
    bundle = AnalysisBundle.from_mapping(mapping, **bundle_kwargs)
    return analyze(bundle, passes, select=select, ignore=ignore)
