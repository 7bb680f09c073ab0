"""Tests for the ``repro lint`` subcommand (text, JSON, exit codes)."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.relational import relation, schema, schema_to_json


FIXTURES = Path(__file__).parent / "fixtures"


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture
def clean_files(tmp_path):
    source = schema(relation("Emp", "name"))
    target = schema(relation("Person", "name"))
    schemas = tmp_path / "schemas.json"
    schemas.write_text(
        json.dumps(
            {"source": schema_to_json(source), "target": schema_to_json(target)}
        )
    )
    mapping = tmp_path / "mapping.tgd"
    mapping.write_text("Emp(x) -> Person(x)\n")
    return schemas, mapping


class TestExitCodes:
    def test_clean_mapping_exits_zero(self, clean_files, capsys):
        schemas, mapping = clean_files
        assert run(["lint", "--schemas", schemas, "--mapping", mapping]) == 0
        assert "clean" in capsys.readouterr().out

    def test_quickstart_example_exits_zero(self, capsys):
        root = Path(__file__).resolve().parents[2]
        code = run(
            [
                "lint",
                "--schemas",
                root / "examples" / "quickstart" / "schemas.json",
                "--mapping",
                root / "examples" / "quickstart" / "mapping.tgd",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # Informational findings are reported but do not fail the lint.
        assert "info RA002" in out

    def test_warning_exits_one(self, tmp_path, capsys):
        source = schema(relation("A", "x"))
        target = schema(relation("B", "x"))
        schemas = tmp_path / "schemas.json"
        schemas.write_text(
            json.dumps(
                {"source": schema_to_json(source), "target": schema_to_json(target)}
            )
        )
        mapping = tmp_path / "mapping.tgd"
        mapping.write_text("A(x), x = x -> B(x)\n")
        assert run(["lint", "--schemas", schemas, "--mapping", mapping]) == 1
        assert "warning RA003" in capsys.readouterr().out

    def test_cyclic_fixture_exits_two_with_witness(self, capsys):
        code = run(
            [
                "lint",
                "--schemas",
                FIXTURES / "schemas.json",
                "--mapping",
                FIXTURES / "mapping.tgd",
                "--target-deps",
                FIXTURES / "deps.tgd",
            ]
        )
        assert code == 2
        out = capsys.readouterr().out
        assert "error RA101" in out
        # The witness names the (relation, position) cycle in the text.
        assert "(E, 1) --∃--> (E, 1)" in out
        # The finding points at the offending line of deps.tgd.
        assert "deps.tgd:2:1" in out


class TestJsonOutput:
    def test_json_shape_and_witness(self, capsys):
        code = run(
            [
                "lint",
                "--schemas",
                FIXTURES / "schemas.json",
                "--mapping",
                FIXTURES / "mapping.tgd",
                "--target-deps",
                FIXTURES / "deps.tgd",
                "--json",
            ]
        )
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] == 1
        assert payload["summary"]["exit_code"] == 2
        ra101 = [d for d in payload["diagnostics"] if d["code"] == "RA101"]
        assert len(ra101) == 1
        assert ra101[0]["data"]["cycle"]["positions"] == [["E", 1]]
        assert ra101[0]["data"]["cycle"]["existential"] == "z"
        assert ra101[0]["span"]["source"].endswith("deps.tgd")

    def test_clean_json(self, clean_files, capsys):
        schemas, mapping = clean_files
        assert (
            run(["lint", "--schemas", schemas, "--mapping", mapping, "--json"]) == 0
        )
        payload = json.loads(capsys.readouterr().out)
        # A full, dependency-free mapping is SQL-compilable (RA510) — an
        # informational finding only.
        codes = [d["code"] for d in payload["diagnostics"]]
        assert codes == ["RA510"]
        assert all(d["severity"] == "info" for d in payload["diagnostics"])
        assert payload["summary"]["exit_code"] == 0


class TestRobustness:
    def test_parse_error_becomes_ra000(self, clean_files, tmp_path, capsys):
        schemas, _ = clean_files
        mapping = tmp_path / "broken.tgd"
        mapping.write_text("Emp(x) -> Person(x)\nEmp(x ->\n")
        code = run(["lint", "--schemas", schemas, "--mapping", mapping])
        assert code == 2
        out = capsys.readouterr().out
        assert "error RA000" in out

    def test_unknown_relation_is_reported_not_fatal(self, clean_files, tmp_path, capsys):
        schemas, _ = clean_files
        mapping = tmp_path / "m.tgd"
        mapping.write_text("Ghost(x) -> Person(x)\n")
        code = run(["lint", "--schemas", schemas, "--mapping", mapping])
        assert code == 2
        out = capsys.readouterr().out
        assert "error RA006" in out
        assert "Ghost" in out

    def test_missing_mapping_file_is_cli_error(self, clean_files):
        schemas, _ = clean_files
        with pytest.raises(SystemExit) as excinfo:
            run(["lint", "--schemas", schemas, "--mapping", "nope.tgd"])
        assert excinfo.value.code == 2
