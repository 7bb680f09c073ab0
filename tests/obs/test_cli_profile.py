"""CLI observability: ``repro profile``, ``--trace`` and ``--trace-json``."""

import json

import pytest

from repro.cli import main
from repro.obs import get_registry, get_tracer
from repro.relational import (
    instance,
    instance_to_json,
    loads_instance,
    relation,
    schema,
    schema_to_json,
)


@pytest.fixture
def files(tmp_path):
    source = schema(relation("Emp", "name"))
    target = schema(relation("Manager", "emp", "mgr"))
    schemas_file = tmp_path / "schemas.json"
    schemas_file.write_text(
        json.dumps(
            {"source": schema_to_json(source), "target": schema_to_json(target)}
        )
    )
    mapping_file = tmp_path / "mapping.tgd"
    mapping_file.write_text("Emp(x) -> exists y . Manager(x, y)\n")
    data_file = tmp_path / "source.json"
    data = instance(source, {"Emp": [["Alice"], ["Bob"]]})
    data_file.write_text(json.dumps(instance_to_json(data)))
    return tmp_path, schemas_file, mapping_file, data_file


def run(argv):
    return main([str(a) for a in argv])


class TestProfile:
    def test_prints_span_tree_and_metrics(self, files, capsys):
        _, schemas, mapping, data = files
        code = run(
            ["profile", "--schemas", schemas, "--mapping", mapping, "--data", data]
        )
        assert code == 0
        out = capsys.readouterr().out
        # The acceptance bar: chase, compile, plan, get and put stages.
        for stage in ("chase", "compile", "plan", "lens.get", "lens.put"):
            assert stage in out, f"span tree missing {stage}"
        # Nonzero timings: at least some spans report µs/ms/s durations.
        assert "µs" in out or "ms" in out or "s" in out
        assert "Metrics" in out
        assert "chase.tgd_firings = 2" in out
        assert "observed.unit.tgd_0 = 2" in out

    def test_verbose_appends_cardinalities(self, files, capsys):
        _, schemas, mapping, data = files
        code = run(
            [
                "profile",
                "--schemas", schemas,
                "--mapping", mapping,
                "--data", data,
                "--verbose",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cardinalities (estimated vs observed)" in out
        assert "observed = 2" in out

    def test_repeat_multiplies_round_trips(self, files, capsys):
        _, schemas, mapping, data = files
        run(
            [
                "profile",
                "--schemas", schemas,
                "--mapping", mapping,
                "--data", data,
                "--repeat", "3",
            ]
        )
        out = capsys.readouterr().out
        assert "lens.put.calls = 3" in out

    def test_profile_restores_global_tracer(self, files, capsys):
        _, schemas, mapping, data = files
        before_tracer, before_registry = get_tracer(), get_registry()
        run(["profile", "--schemas", schemas, "--mapping", mapping, "--data", data])
        assert get_tracer() is before_tracer
        assert get_registry() is before_registry


class TestTraceFlags:
    def test_trace_goes_to_stderr_stdout_stays_parseable(self, files, capsys):
        _, schemas, mapping, data = files
        code = run(
            [
                "exchange",
                "--schemas", schemas,
                "--mapping", mapping,
                "--data", data,
                "--trace",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        restored = loads_instance(captured.out)  # stdout unpolluted
        assert len(restored.rows("Manager")) == 2
        assert "── chase" in captured.err
        assert "Metrics" in captured.err

    def test_trace_json_writes_parseable_lines(self, files, capsys):
        tmp, schemas, mapping, data = files
        trace_file = tmp / "trace.jsonl"
        code = run(
            [
                "exchange",
                "--schemas", schemas,
                "--mapping", mapping,
                "--data", data,
                "--trace-json", trace_file,
            ]
        )
        assert code == 0
        lines = trace_file.read_text().strip().splitlines()
        assert lines
        records = [json.loads(line) for line in lines]
        names = {record["name"] for record in records}
        assert "chase" in names and "compile" in names
        roots = [r for r in records if r["parent"] is None]
        assert all(r["duration"] >= 0 for r in records)
        assert roots

    def test_trace_json_unwritable_path_is_a_clean_error(self, files, capsys):
        _, schemas, mapping, data = files
        code = run(
            [
                "exchange",
                "--schemas", schemas,
                "--mapping", mapping,
                "--data", data,
                "--trace-json", "/nonexistent-dir/trace.jsonl",
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        loads_instance(captured.out)  # the exchange itself still completed
        assert "error: cannot write trace to" in captured.err

    def test_chase_subcommand_traces_the_chase(self, files, capsys):
        _, schemas, mapping, data = files
        run(
            [
                "chase",
                "--schemas", schemas,
                "--mapping", mapping,
                "--data", data,
                "--trace",
            ]
        )
        err = capsys.readouterr().err
        assert "── chase" in err
        assert "chase.tgd_firings = 2" in err

    def test_plan_verbose_without_trace(self, files, capsys):
        from repro.obs import collecting

        _, schemas, mapping, data = files
        # Scope a fresh registry: the process-global one may hold gauges
        # from earlier CLI invocations in this test session.
        with collecting():
            code = run(
                [
                    "plan",
                    "--schemas", schemas,
                    "--mapping", mapping,
                    "--data", data,
                    "--verbose",
                ]
            )
        assert code == 0
        out = capsys.readouterr().out
        assert "cardinalities (estimated vs observed)" in out
        assert "no exchange observed yet" in out
