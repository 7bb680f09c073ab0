"""The compiler surfaces analyzer diagnostics in plan.explain()."""

from repro.compiler import ExchangeEngine
from repro.mapping import SchemaMapping
from repro.relational import relation, schema


def test_explain_reports_diagnostics_for_existential_mapping():
    source = schema(relation("Emp", "name"))
    target = schema(relation("Badge", "name", "bid"))
    mapping = SchemaMapping.parse(
        source, target, "Emp(n) -> exists b . Badge(n, b)"
    )
    text = ExchangeEngine.compile(mapping).plan.explain()
    assert "── analyzer diagnostics:" in text
    assert "RA002" in text  # existential quantifier noted


def test_explain_reports_only_backend_info_for_full_lossless_mapping():
    source = schema(relation("Emp", "name"))
    target = schema(relation("Person", "name"))
    mapping = SchemaMapping.parse(source, target, "Emp(n) -> Person(n)")
    text = ExchangeEngine.compile(mapping).plan.explain()
    assert "── analyzer diagnostics:" in text
    # A full lossless mapping triggers nothing but the informational
    # SQL-compilability note.
    assert "RA510" in text
    assert "0 error(s), 0 warning(s), 1 info(s)" in text


def test_verbose_explain_also_carries_the_section():
    source = schema(relation("Emp", "name"))
    target = schema(relation("Person", "name"))
    mapping = SchemaMapping.parse(source, target, "Emp(n) -> Person(n)")
    text = ExchangeEngine.compile(mapping).plan.explain(verbose=True)
    assert "── analyzer diagnostics:" in text
