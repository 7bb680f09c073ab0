"""CLI smoke tests: serve-bench and the shared budget flags."""

import json

import pytest

from repro.cli import DEGRADED_EXIT, main
from repro.relational import instance, relation, schema
from repro.relational.serialization import dumps_instance, schema_to_json


@pytest.fixture
def files(tmp_path):
    source = schema(relation("Emp", "name"))
    target = schema(relation("Manager", "emp", "mgr"))
    schemas = tmp_path / "schemas.json"
    schemas.write_text(
        json.dumps({"source": schema_to_json(source), "target": schema_to_json(target)})
    )
    mapping = tmp_path / "mapping.tgd"
    mapping.write_text("Emp(x) -> exists y . Manager(x, y)\n")
    data = tmp_path / "source.json"
    data.write_text(
        dumps_instance(instance(source, {"Emp": [[f"e{i}"] for i in range(20)]}))
    )
    return {"schemas": str(schemas), "mapping": str(mapping), "data": str(data)}


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr()


class TestBudgetFlags:
    def test_exchange_max_facts_degrades_with_exit_3(self, files, capsys):
        code, out = run(
            capsys,
            "exchange",
            "--schemas", files["schemas"],
            "--mapping", files["mapping"],
            "--data", files["data"],
            "--max-facts", "5",
        )
        assert code == DEGRADED_EXIT
        assert "max_facts" in out.err
        assert "Manager" in out.out  # partial facts still emitted

    def test_chase_max_facts_degrades_with_exit_3(self, files, capsys):
        code, out = run(
            capsys,
            "chase",
            "--schemas", files["schemas"],
            "--mapping", files["mapping"],
            "--data", files["data"],
            "--max-facts", "5",
        )
        assert code == DEGRADED_EXIT
        assert "max_facts" in out.err

    def test_unbudgeted_exchange_still_exits_0(self, files, capsys):
        code, out = run(
            capsys,
            "exchange",
            "--schemas", files["schemas"],
            "--mapping", files["mapping"],
            "--data", files["data"],
        )
        assert code == 0
        assert out.err == ""


class TestWorkersFlag:
    @pytest.mark.parametrize("command", ["exchange", "chase", "profile", "plan"])
    def test_commands_without_a_pool_reject_workers(self, files, capsys, command):
        # --workers sizes the server's pool; elsewhere it would be dropped.
        with pytest.raises(SystemExit) as exc:
            main([
                command,
                "--schemas", files["schemas"],
                "--mapping", files["mapping"],
                "--data", files["data"],
                "--workers", "2",
            ])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestServeBench:
    def test_clean_run_reports_all_completed(self, files, capsys):
        code, out = run(
            capsys,
            "serve-bench",
            "--schemas", files["schemas"],
            "--mapping", files["mapping"],
            "--requests", "4",
            "--json",
        )
        assert code == 0
        report = json.loads(out.out)
        assert report["requests"] == 4
        assert report["completed"] == 4
        assert report["errors"] == 0
        assert report["clean_shutdown"] is True
        assert report["degraded"] == {}

    @pytest.mark.usefixtures("pool_only")
    def test_fault_injected_run_counts_retries(self, files, capsys):
        code, out = run(
            capsys,
            "serve-bench",
            "--schemas", files["schemas"],
            "--mapping", files["mapping"],
            "--requests", "3",
            "--concurrency", "2",
            "--workers", "2",
            "--inject-pool-crashes", "2",
            "--json",
        )
        assert code == 0
        report = json.loads(out.out)
        assert report["mode"] == "http"
        assert report["completed"] == 3
        assert report["errors"] == 0
        assert report["retries"] == 2
        assert report["pool_failures"] == 2
        assert report["breaker_opens"] == 0
        assert report["clean_shutdown"] is True

    @pytest.mark.parametrize(
        "flag", ["--workers", "--inject-pool-crashes", "--inject-spawn-failures"]
    )
    def test_pool_flags_need_http_mode(self, files, capsys, flag):
        # Only the HTTP mode runs a worker pool: without --concurrency
        # these flags would be silent no-ops, so they are errors.
        with pytest.raises(SystemExit) as exc:
            main([
                "serve-bench",
                "--schemas", files["schemas"],
                "--mapping", files["mapping"],
                flag, "2",
            ])
        assert exc.value.code == 2
        assert "need --concurrency" in capsys.readouterr().err

    def test_deadline_degradation_is_reported(self, files, capsys):
        code, out = run(
            capsys,
            "serve-bench",
            "--schemas", files["schemas"],
            "--mapping", files["mapping"],
            "--requests", "2",
            "--deadline", "0.05",
            "--inject-slow-chase", "0.2",
            "--json",
        )
        assert code == 0
        report = json.loads(out.out)
        assert report["completed"] == 2  # degraded answers still complete

    def test_uses_data_file_when_given(self, files, capsys):
        code, out = run(
            capsys,
            "serve-bench",
            "--schemas", files["schemas"],
            "--mapping", files["mapping"],
            "--data", files["data"],
            "--requests", "2",
            "--json",
        )
        assert code == 0
        assert json.loads(out.out)["completed"] == 2

    def test_human_readable_report(self, files, capsys):
        code, out = run(
            capsys,
            "serve-bench",
            "--schemas", files["schemas"],
            "--mapping", files["mapping"],
            "--requests", "1",
        )
        assert code == 0
        assert "serve-bench:" in out.out
        assert "clean_shutdown: True" in out.out


class TestLatencyReport:
    def test_percentiles_and_throughput_keys(self, files, capsys):
        code, out = run(
            capsys,
            "serve-bench",
            "--schemas", files["schemas"],
            "--mapping", files["mapping"],
            "--requests", "5",
            "--json",
        )
        assert code == 0
        report = json.loads(out.out)
        p50, p95, p99 = (
            report["latency_p50_ms"],
            report["latency_p95_ms"],
            report["latency_p99_ms"],
        )
        assert 0 < p50 <= p95 <= p99
        assert report["throughput_rps"] > 0

    def test_bench_out_writes_report_file(self, files, capsys, tmp_path):
        out_file = tmp_path / "BENCH_service.json"
        code, out = run(
            capsys,
            "serve-bench",
            "--schemas", files["schemas"],
            "--mapping", files["mapping"],
            "--requests", "3",
            "--json",
            "--bench-out", str(out_file),
        )
        assert code == 0
        written = json.loads(out_file.read_text())
        assert written == json.loads(out.out)
        assert "latency_p99_ms" in written and "throughput_rps" in written
