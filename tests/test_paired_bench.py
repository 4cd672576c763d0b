"""tools/paired_bench.py: the summary of paired benchmark runs."""

import json
import os
import re
import sys

import pytest

sys.path.append(os.path.join(os.path.dirname(__file__), os.pardir, "tools"))
from paired_bench import (end_to_end_metrics, failure_summary,  # noqa: E402
                          format_summary, main, quartiles, report, summarize,
                          verdict)

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


def test_json_record_holds_every_printed_number_and_reads_back(tmp_path,
                                                                monkeypatch):
    parent = [200.0, 210.0, 190.0, 220.0]
    change = [250.0, 260.0, 240.0, 180.0]
    outcomes = [((True, 0, 40), (True, 1, 40)), ((True, 2, 40), (False, 0, 40)),
                ((True, 0, 40), (True, 0, 40)), ((True, 0, 40), (True, 0, 40))]
    rows = summarize(_pairs(parent, change), METRICS)
    failures = failure_summary(outcomes)
    runs = iter([({"ops_per_cpu_s": a}, outcome[0], "aa") if side == 0 else
                 ({"ops_per_cpu_s": b}, outcome[1], "bb")
                 for a, b, outcome, order in zip(parent, change, outcomes,
                                                 ((0, 1), (1, 0)) * 2)
                 for side in order])
    monkeypatch.setattr("paired_bench.run_once", lambda *a: next(runs))
    monkeypatch.setattr("paired_bench.end_to_end_metrics", lambda tree: METRICS)
    path = tmp_path / "bench.json"
    assert main(["P", "C", "--workload", "sample", "--pairs", "4", "--seed0",
                 "5", "--json", str(path)]) == 0
    record = json.loads(path.read_text())
    assert record == report(("P", "C"), ("aa", "bb"), [5, 6, 7, 8],
                            {"sample": (rows, failures)})
    assert record["trees"]["change"] == {"path": "C", "source_digest": "bb"}
    (row,) = record["workloads"]["sample"]["metrics"]
    assert row["parent"] == list(quartiles(parent))
    assert row["change"] == list(quartiles(change))
    assert row["parent_iqr"] == rows[0]["parent_iqr"]
    assert row["relative_gain"] == rows[0]["relative_gain"]
    assert (row["wins"], row["pairs"]) == (3, 4)
    assert row["verdict"] == verdict(rows[0]) == "unresolved"
    assert record["workloads"]["sample"]["failures"] == failures
    # every number the table prints is a number of the record, as printed
    printed = {tok for line in format_summary(rows, failures).splitlines()[1:]
               for word in line.split() for tok in word.split("/")
               if re.fullmatch(r"[-+]?[0-9.]+(e[-+]?[0-9]+)?%?", tok)}
    held = {f"{v:.4g}" for v in row["parent"] + row["change"]
            + [row["parent_iqr"]]}
    held |= {f"{100.0 * row['relative_gain']:+.1f}%", str(row["wins"]),
             str(row["pairs"])}
    held |= {f"{100.0 * failures[side]['failed_share']:.2f}%"
             for side in ("parent", "change")}
    assert printed == held
