"""Tests for the statistics of tools/bench_pairs.py, on canned result lines."""

import json

import pytest

from tools import bench_pairs


def result_line(compress_s, setup_s=0.0003, correct=True, failed=0):
    return json.dumps({
        "correct": correct, "attempted": 40, "failed": failed,
        "metrics": {"compress_s": {"value": compress_s, "unit": "s"},
                    "setup_s": {"value": setup_s, "unit": "s"}},
    })


def pair(parent_s, change_s, **change):
    return {"parent": bench_pairs.parse_results(result_line(parent_s), "anneal"),
            "change": bench_pairs.parse_results(result_line(change_s, **change), "anneal")}


class TestParseResults:
    def test_single_workload_reads_the_last_line(self):
        stdout = "some progress\n" + result_line(0.04) + "\n"
        got = bench_pairs.parse_results(stdout, "anneal")
        assert list(got) == ["anneal"]
        assert got["anneal"]["metrics"]["compress_s"]["value"] == 0.04

    def test_all_reads_one_line_per_workload(self):
        stdout = "".join(
            f"{name} compress_s = 0.04 s\n{name} {result_line(t)}\n"
            for name, t in (("chain", 0.03), ("grid", 0.05), ("anneal", 0.04)))
        got = bench_pairs.parse_results(stdout, "all")
        assert list(got) == ["chain", "grid", "anneal"]
        assert [r["metrics"]["compress_s"]["value"] for r in got.values()] == [
            0.03, 0.05, 0.04]

    def test_no_output_reads_no_result(self):
        assert bench_pairs.parse_results("", "anneal") == {}
        assert bench_pairs.parse_results("", "all") == {}


class TestStatistics:
    def test_quartiles_are_inclusive(self):
        assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
        assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
        assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)

    def test_compare(self):
        entry = bench_pairs.compare([10.0, 12.0, 11.0, 13.0, 14.0],
                                    [9.0, 12.5, 10.0, 11.0, 12.0])
        assert entry["parent"] == {"median": 12.0, "q1": 11.0, "q3": 13.0,
                                   "runs": [10.0, 12.0, 11.0, 13.0, 14.0]}
        assert entry["change"]["median"] == 11.0
        assert entry["change_vs_parent"] == round(11.0 / 12.0 - 1.0, 4) == -0.0833
        # Pairs 1, 3, 4 and 5 read lower; pair 2 reads higher.
        assert entry["pairs_change_lower"] == 4
        assert entry["parent_iqr"] == 2.0

    def test_equal_runs_are_not_lower(self):
        entry = bench_pairs.compare([21, 21, 21], [21, 21, 21])
        assert entry["pairs_change_lower"] == 0
        assert entry["change_vs_parent"] == 0.0
        assert entry["parent_iqr"] == 0

    def test_zero_parent_median_reads_no_change(self):
        assert bench_pairs.compare([0.0, 0.0], [0.0, 0.0])["change_vs_parent"] == 0.0


class TestSummarise:
    def test_entries_per_workload_and_metric(self):
        pairs = [pair(0.046, 0.041), pair(0.045, 0.042), pair(0.047, 0.048)]
        table = bench_pairs.summarise(pairs)
        assert list(table) == ["anneal"]
        assert list(table["anneal"]) == ["compress_s", "setup_s"]
        entry = table["anneal"]["compress_s"]
        assert entry["parent"]["runs"] == [0.046, 0.045, 0.047]
        assert entry["change"]["runs"] == [0.041, 0.042, 0.048]
        assert entry["pairs_change_lower"] == 2
        assert table["anneal"]["setup_s"]["pairs_change_lower"] == 0

    def test_runs_by_metric_keep_pair_order(self):
        pairs = [pair(0.046, 0.041), pair(0.045, 0.042)]
        assert bench_pairs.runs_by_metric(pairs)["anneal"]["compress_s"] == {
            "parent": [0.046, 0.045], "change": [0.041, 0.042]}

    @pytest.mark.parametrize("bad", [{"correct": False}, {"failed": 1}])
    def test_one_bad_run_makes_the_set_incorrect(self, bad):
        good = [pair(0.046, 0.041), pair(0.045, 0.042)]
        assert bench_pairs.all_correct(good)
        assert not bench_pairs.all_correct(good + [pair(0.045, 0.042, **bad)])

    def test_run_order_alternates(self):
        assert [bench_pairs.run_order(i) for i in (1, 2, 3)] == [
            ("parent", "change"), ("change", "parent"), ("parent", "change")]
