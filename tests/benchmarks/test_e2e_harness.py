"""The end-to-end benchmark's shared harness: self time, percentiles, header."""

from __future__ import annotations

import os

import pytest

from benchmarks.e2e.harness import (
    MIN_BEYOND,
    covered,
    git_sha,
    layer_table,
    percentile,
    result_header,
    samples_beyond,
    self_time,
    timing_summary,
)
from repro.obs import Histogram, Span


def span(name: str, start: float, end: float, *children: Span) -> Span:
    s = Span(name)
    s.start, s.end = start, end
    s.children.extend(children)
    return s


class TestSelfTime:
    def test_no_children(self):
        assert self_time(span("a", 1.0, 3.0)) == pytest.approx(2.0)

    def test_nested_children_subtract_once(self):
        root = span("root", 0.0, 10.0, span("a", 1.0, 3.0), span("b", 4.0, 8.0))
        assert self_time(root) == pytest.approx(4.0)

    def test_overlapping_children_count_their_union(self):
        root = span("root", 0.0, 10.0, span("a", 1.0, 6.0), span("b", 4.0, 8.0))
        assert self_time(root) == pytest.approx(3.0)

    def test_children_are_clipped_to_the_parent(self):
        root = span("root", 2.0, 6.0, span("early", 0.0, 3.0), span("late", 5.0, 9.0))
        assert self_time(root) == pytest.approx(2.0)

    def test_children_outside_the_parent_take_nothing(self):
        root = span("root", 5.0, 6.0, span("before", 0.0, 4.0), span("after", 7.0, 9.0))
        assert self_time(root) == pytest.approx(1.0)

    def test_grafted_worker_spans_never_go_negative(self):
        # Worker spans attached after the fact: they overlap each other
        # and ran before the short anchor span that now holds them.
        workers = span(
            "exchange.workers", 8.0, 8.1,
            span("chase", 2.0, 7.0, span("chase.st_tgds", 2.5, 6.5)),
            span("chase", 2.2, 7.5, span("chase.st_tgds", 2.6, 7.0)),
        )
        call = span("call", 0.0, 9.0, span("exchange.ship", 1.0, 2.0), workers)
        assert self_time(workers) == pytest.approx(0.1)
        table = layer_table([call], per=1, skip_below=("exchange.workers",))
        assert table["call"]["self_ms"] == pytest.approx(7.9e3)
        assert table["exchange.workers"]["self_ms"] == pytest.approx(0.1e3)
        assert table["chase"]["self_ms"] == 0.0
        assert table["chase"]["busy_ms"] == pytest.approx(10.3e3)
        on_path = sum(row["self_ms"] for row in table.values())
        assert on_path == pytest.approx(9.0e3)

    def test_layer_table_is_per_request(self):
        roots = [span("request", 0.0, 2.0, span("decode", 0.0, 1.0)) for _ in range(4)]
        table = layer_table(roots, per=4)
        assert table["decode"]["self_ms"] == pytest.approx(1e3)
        assert table["request"]["spans"] == 4

    def test_covered_merges_touching_and_disjoint_intervals(self):
        assert covered([(0, 1), (1, 2), (3, 4), (3.5, 3.6)], 0, 10) == pytest.approx(3.0)
        assert covered([], 0, 10) == 0.0


class TestPercentiles:
    def test_uses_the_histogram_nearest_rank(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        histogram = Histogram("h")
        for v in values:
            histogram.observe(v)
        for p in (50, 90, 99):
            assert percentile(values, p) == histogram.percentile(p)

    @pytest.mark.parametrize(
        ("count", "beyond"), [(0, 0), (10, 0), (100, 1), (999, 9), (1000, 10), (2000, 20)]
    )
    def test_samples_beyond_p99(self, count, beyond):
        assert samples_beyond(count, 99) == beyond

    def test_a_percentile_needs_ten_samples_beyond_it(self):
        assert not timing_summary([0.001] * 999)["p99_supported"]
        summary = timing_summary([0.001] * 1000)
        assert summary["p99_supported"]
        assert summary["p99_beyond"] == MIN_BEYOND
        assert summary["samples"] == 1000
        assert summary["p50_ms"] == pytest.approx(1.0)
        assert not timing_summary([0.001] * 99)["p90_supported"]
        assert timing_summary([0.001] * 100)["p90_supported"]


class TestHeader:
    def test_fields(self, tmp_path):
        header = result_header(tmp_path, seed=7, statistic="median", repeats={"window_s": 20})
        for key in ("host", "cpu_count", "python", "git_sha", "seed", "statistic", "repeats"):
            assert key in header
        assert header["cpu_count"] == os.cpu_count()
        assert header["seed"] == 7
        assert header["repeats"] == {"window_s": 20}
        assert header["git_sha"] == "unknown"

    def test_git_sha_from_loose_and_packed_refs(self, tmp_path):
        git = tmp_path / ".git"
        (git / "refs" / "heads").mkdir(parents=True)
        (git / "HEAD").write_text("ref: refs/heads/main\n")
        (git / "packed-refs").write_text("# pack-refs\nabc123 refs/heads/main\n")
        assert git_sha(tmp_path) == "abc123"
        (git / "refs" / "heads" / "main").write_text("def456\n")
        assert git_sha(tmp_path) == "def456"
        (git / "HEAD").write_text("0123abcd\n")
        assert git_sha(tmp_path) == "0123abcd"
