"""``repro exchange`` gives one answer, loads its source once, and ends
quietly when its reader goes away."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.cli
from repro.cli import main
from repro.relational import (
    instance,
    instance_to_json,
    loads_instance,
    relation,
    schema,
    schema_to_json,
)

QUICKSTART = Path(__file__).resolve().parents[2] / "examples" / "quickstart"
SRC = str(Path(__file__).resolve().parents[2] / "src")


def _write(tmp_path, rows):
    """Example 1 (``Emp(x) → ∃y Manager(x, y)``) over *rows* employees."""
    source = schema(relation("Emp", "name"))
    target = schema(relation("Manager", "emp", "mgr"))
    files = {
        "schemas": tmp_path / "schemas.json",
        "mapping": tmp_path / "mapping.tgd",
        "data": tmp_path / "source.json",
    }
    files["schemas"].write_text(
        json.dumps({"source": schema_to_json(source), "target": schema_to_json(target)})
    )
    files["mapping"].write_text("Emp(x) -> exists y . Manager(x, y)\n")
    data = instance(source, {"Emp": [[f"emp{i}"] for i in range(rows)]})
    files["data"].write_text(json.dumps(instance_to_json(data)))
    return {name: str(path) for name, path in files.items()}


def _example1(tmp_path):
    return _write(tmp_path, 2)


def _quickstart(tmp_path):
    return {
        name: str(QUICKSTART / file)
        for name, file in (
            ("schemas", "schemas.json"),
            ("mapping", "mapping.tgd"),
            ("data", "source.json"),
        )
    }


def _args(files):
    return [f"--{name}={path}" for name, path in files.items()]


@pytest.mark.parametrize("setting", [_quickstart, _example1])
def test_budget_and_cache_flags_do_not_change_the_answer(setting, tmp_path, capsys):
    args = _args(setting(tmp_path))
    outputs = []
    for flags in ([], ["--deadline", "60"], ["--cache", "4"]):
        assert main(["exchange", *args, *flags]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert '"null"' in outputs[0]


@pytest.mark.parametrize(
    "command,extra",
    [
        ("exchange", []),
        ("put", ["--view"]),
        ("profile", []),
        ("explain", []),
        ("check", []),
    ],
)
def test_each_command_loads_the_source_once(
    command, extra, tmp_path, capsys, monkeypatch
):
    files = _example1(tmp_path)
    if extra:
        view = str(tmp_path / "view.json")
        assert main(["exchange", *_args(files), "--out", view]) == 0
        extra = [*extra, view]
    loads = []
    real = repro.cli.load_instance

    def counting(path, schema, role):
        loads.append(path)
        return real(path, schema, role)

    monkeypatch.setattr(repro.cli, "load_instance", counting)
    assert main([command, *_args(files), *extra]) == 0
    capsys.readouterr()
    assert loads.count(files["data"]) == 1


def test_closed_stdout_exits_without_a_traceback(tmp_path):
    files = _write(tmp_path, 3000)  # far more output than a pipe buffers
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "exchange", *_args(files)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert process.stdout.readline().strip() == b"{"
    process.stdout.close()
    stderr = process.stderr.read().decode()
    process.wait(timeout=60)
    process.stderr.close()
    assert "Traceback" not in stderr
    assert "BrokenPipeError" not in stderr


def test_exchange_edit_put_across_processes(tmp_path):
    """Null labels are process-stable, so put translates another run's view."""
    files = _example1(tmp_path)
    view_file = tmp_path / "view.json"
    out_file = tmp_path / "back.json"

    def repro_run(seed, *argv):
        subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            check=True,
            capture_output=True,
            env={**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": seed},
        )

    repro_run("1", "exchange", *_args(files), "--out", str(view_file))
    view = loads_instance(view_file.read_text())
    kept = view.without_facts(f for f in view.facts() if f.row[0].value == "emp1")
    view_file.write_text(json.dumps(instance_to_json(kept)))
    repro_run(
        "2", "put", *_args(files), "--view", str(view_file), "--out", str(out_file)
    )
    back = loads_instance(out_file.read_text())
    assert {row[0].value for row in back.rows("Emp")} == {"emp0"}
