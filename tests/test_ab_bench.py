"""The verdict rule of .github/scripts/ab_bench.py, on canned paired samples."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab_bench", ROOT / ".github" / "scripts" / "ab_bench.py")
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)

# ten parent runs of a time; inclusive quartiles 1.0225 and 1.0675, so the IQR is 0.045
PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


def _faster(by, losses=0):
    """PARENT less ``by`` in every pair, except the last ``losses`` pairs, which read 1.2."""
    return [p - by for p in PARENT[:len(PARENT) - losses]] + [1.2] * losses


def test_nine_of_ten_pairs_with_a_gap_beyond_the_iqr_improve():
    s = ab_bench.metric_summary(PARENT, _faster(0.1, losses=1), "lower", 0.25)
    assert s["change_better_in_pairs"] == "9/10"
    assert s["parent_iqr"] == pytest.approx(0.045)
    assert s["verdict"] == "improved"


def test_eight_of_ten_pairs_do_not_improve():
    s = ab_bench.metric_summary(PARENT, _faster(0.1, losses=2), "lower", 0.25)
    assert s["change_better_in_pairs"] == "8/10"
    assert s["verdict"] == "within bound"


def test_a_median_gap_inside_the_parents_iqr_does_not_improve():
    s = ab_bench.metric_summary(PARENT, _faster(0.01), "lower", 0.25)
    assert s["change_better_in_pairs"] == "10/10"
    assert s["verdict"] == "within bound"


def test_a_higher_is_better_metric_wins_and_regresses_upwards():
    points = [270.0 + i for i in range(10)]
    up = ab_bench.metric_summary(points, [p + 30.0 for p in points], "higher", 0.25)
    assert (up["change_better_in_pairs"], up["verdict"]) == ("10/10", "improved")
    assert up["median_change"] > 0.0
    down = ab_bench.metric_summary(points, [p * 0.7 for p in points], "higher", 0.25)
    assert (down["change_better_in_pairs"], down["verdict"]) == ("0/10", "regressed")
    # 20% fewer points per second is within the 25% bound
    assert ab_bench.metric_summary(points, [p * 0.8 for p in points], "higher", 0.25)["verdict"] == "within bound"


def test_the_rss_bound_is_tighter_than_the_time_bounds():
    bounds = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    assert bounds["peak_rss_mb"]["bound"] == 0.05 and bounds["op_s.p50"]["bound"] == 0.25
    # both metrics 6% worse in every pair: a regression of memory, not of time
    runs = {"parent": [{"op_s.p50": p, "peak_rss_mb": 20.0 * p} for p in PARENT]}
    runs["change"] = [{k: 1.06 * v for k, v in r.items()} for r in runs["parent"]]
    summary = ab_bench.summarize(runs, [bounds["op_s.p50"], bounds["peak_rss_mb"]])
    assert summary["op_s.p50"]["verdict"] == "within bound"
    assert summary["peak_rss_mb"]["verdict"] == "regressed"
    assert summary["peak_rss_mb"]["median_change"] == pytest.approx(0.06)


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    # inclusive quartiles 1.125 and 2.0: an IQR of 0.875 about a median of 1.5
    noisy = [1.0, 1.0, 1.0, 1.5, 1.5, 1.5, 2.0, 2.0, 2.0, 2.0]
    assert ab_bench.metric_summary(noisy, [v * 1.05 for v in noisy], "lower", 0.25)["verdict"] == "unresolved"
    assert ab_bench.metric_summary(noisy, [v * 0.99 for v in noisy], "higher", 0.25)["verdict"] == "unresolved"
    # unless every run of the change reads better than every run of the parent
    fast = [0.9 - 0.01 * i for i in range(10)]
    assert ab_bench.metric_summary(noisy, fast, "lower", 0.25)["verdict"] == "within bound"
    assert ab_bench.metric_summary(noisy, fast[:8] + [1.1, 1.2], "lower", 0.25)["verdict"] == "unresolved"
    assert ab_bench.metric_summary(noisy, [3.0] * 10, "higher", 0.25)["verdict"] == "improved"


def test_fewer_than_ten_pairs_cannot_improve():
    s = ab_bench.metric_summary(PARENT[:9], _faster(0.1)[:9], "lower", 0.25)
    assert s["change_better_in_pairs"] == "9/9"
    assert (s["gain_rule_evaluated"], s["verdict"]) == (False, "within bound")
    assert ab_bench.metric_summary(PARENT, _faster(0.1), "lower", 0.25)["gain_rule_evaluated"] is True
    # a regression needs no minimum
    assert ab_bench.metric_summary([1.0], [1.3], "lower", 0.25)["verdict"] == "regressed"


def test_one_pair_reads_as_its_own_quartiles():
    s = ab_bench.metric_summary([2.0], [1.0], "lower", 0.25)
    assert s["parent_q1_median_q3"] == [2.0, 2.0, 2.0]
    assert (s["parent_iqr"], s["change_better_in_pairs"], s["verdict"]) == (0.0, "1/1", "within bound")


def test_the_change_tree_digest_reads_what_a_run_can_read(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "m.py").write_text("x = 1\n")
    (tmp_path / "README.md").write_text("a\n")
    digest = ab_bench.tree_digest(tmp_path)
    # documents and earlier results at the root do not count
    (tmp_path / "README.md").write_text("b\n")
    (tmp_path / "BENCH_x.json").write_text("{}\n")
    assert ab_bench.tree_digest(tmp_path) == digest
    # a byte of source or a new file does
    (tmp_path / "src" / "m.py").write_text("x = 2\n")
    assert ab_bench.tree_digest(tmp_path) != digest
    (tmp_path / "src" / "m.py").write_text("x = 1\n")
    (tmp_path / "src" / "BENCH_y.json").write_text("{}\n")
    assert ab_bench.tree_digest(tmp_path) != digest


def test_an_earlier_file_is_kept_only_for_the_same_two_trees():
    old = {"parent": "p" * 40, "change_tree": "c" * 64}
    assert ab_bench.same_trees(old, "p" * 40, "c" * 64)
    assert not ab_bench.same_trees(old, "p" * 40, "d" * 64)
    assert not ab_bench.same_trees(old, "q" * 40, "c" * 64)
    # a file that records no change tree is never merged into
    assert not ab_bench.same_trees({"parent": "p" * 40}, "p" * 40, "c" * 64)


def test_pairs_alternate_which_side_runs_first():
    assert [ab_bench.pair_order(i) for i in range(3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]
