"""tools/paired_bench.py: the summary of paired benchmark runs."""

import os
import sys

import pytest

sys.path.append(os.path.join(os.path.dirname(__file__), os.pardir, "tools"))
from paired_bench import (end_to_end_metrics, failure_summary,  # noqa: E402
                          format_summary, quartiles, summarize)

METRICS = {"ops_per_cpu_s": ("higher", 0.25), "op_cpu_s_p50": ("lower", 0.25),
           "peak_rss_mib": ("lower", 0.1)}


def _pairs(parent, change, name="ops_per_cpu_s"):
    return [({name: a}, {name: b}) for a, b in zip(parent, change)]


def test_quartiles_inclusive_and_of_one_value():
    assert quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_resolved_gain_needs_nine_wins_in_ten_and_a_gap_past_the_iqr():
    parent = [200.0, 210.0, 190.0, 220.0, 205.0, 195.0, 215.0, 185.0, 225.0,
              200.0]
    change = [p * 1.6 for p in parent]
    (row,) = summarize(_pairs(parent, change), METRICS)
    assert row["wins"] == 10 and row["pairs"] == 10
    assert row["parent"] == quartiles(parent)
    assert row["parent_iqr"] == pytest.approx(213.75 - 196.25)
    assert row["relative_gain"] == pytest.approx(0.6)
    assert row["resolved_gain"] and not row["past_bound"]
    # two losses in ten: no longer resolved, however large the median gap
    lost = change[:8] + [100.0, 100.0]
    (row,) = summarize(_pairs(parent, lost), METRICS)
    assert row["wins"] == 8 and not row["resolved_gain"]
    # ten wins by a hair: the medians differ by less than the parent's IQR
    (row,) = summarize(_pairs(parent, [p + 1.0 for p in parent]), METRICS)
    assert row["wins"] == 10 and not row["resolved_gain"]


def test_lower_is_better_and_the_bound_flags_a_worsening():
    parent = [1.0, 1.1, 0.9, 1.0]
    (row,) = summarize(_pairs(parent, [1.3, 1.4, 1.2, 1.3], "op_cpu_s_p50"),
                       METRICS)
    assert row["better"] == "lower" and row["wins"] == 0
    assert row["median_gain"] == pytest.approx(-0.3)
    assert row["past_bound"] and not row["resolved_gain"]
    (row,) = summarize(_pairs(parent, [0.5, 0.55, 0.45, 0.5], "op_cpu_s_p50"),
                       METRICS)
    assert row["wins"] == 4 and row["resolved_gain"]


def test_metrics_missing_from_a_run_are_left_out_and_rows_format():
    pairs = [({"ops_per_cpu_s": 1.0, "setup_s": 2.0},
              {"ops_per_cpu_s": 2.0})]
    rows = summarize(pairs, dict(METRICS, setup_s=("lower", 0.25)))
    assert [r["metric"] for r in rows] == ["ops_per_cpu_s"]
    text = format_summary(rows).splitlines()
    assert len(text) == 2 and text[1].startswith("ops_per_cpu_s")
    assert "+100.0%" in text[1] and "1/1" in text[1]


def test_end_to_end_metrics_read_the_tree_benchmark_file():
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    metrics = end_to_end_metrics(root)
    assert metrics["ops_per_cpu_s"] == ("higher", 0.25)
    assert set(metrics) >= {"setup_s", "op_cpu_s_p50", "peak_rss_mib"}


def test_failed_operations_and_incorrect_runs_reach_the_summary():
    # (correct, failed, attempted) of each side's run, one pair per row
    outcomes = [((True, 0, 40), (True, 1, 40)),
                ((True, 2, 40), (False, 0, 40)),
                ((False, 0, 20), (True, 3, 40))]
    failures = failure_summary(outcomes)
    assert failures["parent"] == {"failed_share": 2 / 100, "incorrect": [3]}
    assert failures["change"] == {"failed_share": 4 / 120, "incorrect": [2]}
    assert failures["more_failures"]
    rows = summarize(_pairs([1.0], [1.0]), METRICS)
    last = format_summary(rows, failures).splitlines()[-1]
    assert last.startswith("failed ops") and "change fails more" in last
    assert "2.00%" in last and "3.33%" in last
    assert "parent pairs [3]" in last and "change pairs [2]" in last
    # an equal share is no worsening, and nothing attempted is a share of 0
    even = failure_summary([((True, 1, 10), (True, 2, 20)),
                            ((True, 0, 0), (True, 0, 0))])
    assert not even["more_failures"]
    assert failure_summary([((True, 0, 0), (True, 0, 0))])["change"] == \
        {"failed_share": 0.0, "incorrect": []}
    line = format_summary(rows, even).splitlines()[-1]
    assert "no more failures" in line and "pairs none" in line
    assert len(format_summary(rows).splitlines()) == 2
