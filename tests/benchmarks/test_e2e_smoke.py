"""Smoke run of the e2e benchmark: every declared metric, right units, no errors."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import run as bench

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(*extra: str) -> tuple[int, list[dict], str]:
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--smoke", "--seconds", "1", *extra],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = [json.loads(l) for l in proc.stdout.splitlines() if l.startswith('{"correct"')]
    return proc.returncode, lines, proc.stdout + proc.stderr


def test_spec_names_match_the_benchmark():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == [
        "serve_small", "serve_repeat", "exchange_join", "exchange_join_sqlite"
    ]


@pytest.mark.parametrize(("trace", "section"), [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_prints_every_metric_without_errors(trace, section):
    code, lines, output = smoke("--trace", trace)
    assert code == 0, output
    assert len(lines) == len(SPEC["workloads"]), output
    for line in lines:
        assert line["correct"] is True
        assert line["attempted"] >= 1
        assert line["failed"] == 0  # error_rate == 0
        for metric in SPEC[section]:
            assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
            assert isinstance(line["metrics"][metric["name"]]["value"], (int, float))
        for metric in SPEC[section]:
            assert f"{metric['name']} " in output


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "serve_small", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
