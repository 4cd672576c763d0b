"""tools/paired_bench.py: the summary of paired benchmark runs."""

import json
import os
import re
import sys

import pytest

sys.path.append(os.path.join(os.path.dirname(__file__), os.pardir, "tools"))
from paired_bench import (compile_tree, end_to_end_metrics,  # noqa: E402
                          failure_summary, format_summary, kind_medians, main,
                          quartiles, report, run_once, summarize, verdict)

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
    kinds = summarize(_pairs([0.2, 0.3, 0.2, 0.4], [0.1, 0.3, 0.3, 0.2],
                             "sample"), {"sample": ("lower", None)})
    runs = iter([({"ops_per_cpu_s": a}, outcome[0], "aa", {"sample": ka})
                 if side == 0 else
                 ({"ops_per_cpu_s": b}, outcome[1], "bb", {"sample": kb})
                 for a, b, outcome, order, ka, kb in zip(
                     parent, change, outcomes, ((0, 1), (1, 0)) * 2,
                     [0.2, 0.3, 0.2, 0.4], [0.1, 0.3, 0.3, 0.2])
                 for side in order])
    monkeypatch.setattr("paired_bench.run_once", lambda *a: next(runs))
    monkeypatch.setattr("paired_bench.compile_tree", lambda tree: None)
    monkeypatch.setattr("paired_bench.end_to_end_metrics", lambda tree: METRICS)
    path = tmp_path / "bench.json"
    assert main(["P", "C", "--workload", "sample", "--pairs", "4", "--seed0",
                 "5", "--json", str(path)]) == 0
    record = json.loads(path.read_text())
    assert record == report(("P", "C"), ("aa", "bb"), [5, 6, 7, 8],
                            {"sample": (rows, failures, kinds)})
    assert record["trees"]["change"] == {"path": "C", "source_digest": "bb"}
    assert record["compiled"] == "python -m compileall -q src"
    (row,) = record["workloads"]["sample"]["metrics"]
    assert row["parent"] == list(quartiles(parent))
    assert row["change"] == list(quartiles(change))
    assert row["parent_iqr"] == rows[0]["parent_iqr"]
    assert row["relative_gain"] == rows[0]["relative_gain"]
    assert (row["wins"], row["pairs"]) == (3, 4)
    assert row["verdict"] == verdict(rows[0]) == "unresolved"
    assert record["workloads"]["sample"]["failures"] == failures
    (kind,) = record["workloads"]["sample"]["kinds"]
    assert kind["metric"] == "sample" and kind["better"] == "lower"
    assert (kind["wins"], kind["pairs"]) == (2, 4)
    assert kind["change"] == list(quartiles([0.1, 0.3, 0.3, 0.2]))
    assert not kind["past_bound"]
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


def test_both_trees_are_compiled_once_before_the_first_pair(tmp_path,
                                                            monkeypatch):
    # with PYTHONDONTWRITEBYTECODE set, each run compiled the package, and
    # peak_rss_mib compared the two compiles (32.37 against 32.49 MiB from
    # 100 extra source lines, equal values after compileall)
    events = []
    monkeypatch.setattr("paired_bench.compile_tree",
                        lambda tree: events.append(("compile", tree)))
    monkeypatch.setattr("paired_bench.run_once", lambda tree, workload, seed:
                        events.append(("run", tree)) or
                        ({"ops_per_cpu_s": 1.0}, (True, 0, 1), tree, {}))
    monkeypatch.setattr("paired_bench.end_to_end_metrics", lambda tree: METRICS)
    assert main(["P", "C", "--workload", "sample", "--workload", "converge",
                 "--pairs", "2"]) == 0
    assert events[:2] == [("compile", "P"), ("compile", "C")]
    assert [e for e in events[2:] if e[0] == "compile"] == []
    assert len(events) == 2 + 2 * 2 * 2
    # the real step writes bytecode for every module under src, also where
    # the environment forbids an import to write it
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("X = 1\n")
    (package / "mod.py").write_text("Y = 2\n")
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    compile_tree(tmp_path)
    compiled = sorted(p.name.split(".")[0]
                      for p in tmp_path.rglob("__pycache__/*.pyc"))
    assert compiled == ["__init__", "mod"]
    (package / "bad.py").write_text("def (\n")
    with pytest.raises(RuntimeError, match="compileall"):
        compile_tree(tmp_path)


def test_each_run_reports_the_median_cpu_of_each_operation_kind(tmp_path,
                                                                capsys):
    # the pooled op_cpu_s_p50 of converge sits on the seam between its
    # kinds; the record each run names holds every timed operation
    timed = [["two-cut", 0.5, 0.004, True], ["one-cut", 0.2, 0.001, True],
             ["two-cut", 0.5, 0.006, False], ["two-cut", 0.5, 0.005, True],
             ["one-cut", 0.2, 0.003, True]]
    assert kind_medians(timed) == {"two-cut": 0.005, "one-cut": 0.002}
    assert kind_medians([]) == {}
    # a stand-in bench/run.py: the record, then its summary and metric lines
    for name, scale in (("P", 1.0), ("C", 0.4)):
        bench = tmp_path / name / "bench"
        bench.mkdir(parents=True)
        (bench / "run.py").write_text(f"""import json, pathlib, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
timed = [[k, 0.0, c * {scale} * seed, ok] for k, _, c, ok in {timed!r}]
out = pathlib.Path(".bench_out")
out.mkdir(exist_ok=True)
path = out / f"converge-seed{{seed}}-trace0.json"
path.write_text(json.dumps({{"details": {{"timed": timed}}}}))
print(json.dumps({{"machine": {{"source_sha256": "{name}"}},
                  "record": str(path)}}))
print(json.dumps({{"correct": True, "failed": 0, "attempted": 5,
                  "metrics": {{"ops_per_cpu_s": {{"value": 1.0 / {scale}}}}}}}))
""")
    values, outcome, digest, kinds = run_once(tmp_path / "C", "converge", 2)
    assert (values, outcome, digest) == ({"ops_per_cpu_s": 2.5}, (True, 0, 5), "C")
    assert kinds == kind_medians([[k, 0.0, c * 0.4 * 2, ok]
                                  for k, _, c, ok in timed])
    for name in ("P", "C"):
        (tmp_path / name / "BENCHMARK.json").write_text(json.dumps(
            {"end_to_end": [{"name": "ops_per_cpu_s", "better": "higher"}]}))
    path = tmp_path / "bench.json"
    assert main([str(tmp_path / "P"), str(tmp_path / "C"), "--workload",
                 "converge", "--pairs", "3", "--json", str(path)]) == 0
    rows = json.loads(path.read_text())["workloads"]["converge"]["kinds"]
    assert [r["metric"] for r in rows] == ["one-cut", "two-cut"]
    for r in rows:
        median = kind_medians(timed)[r["metric"]]
        assert r["parent"] == pytest.approx([median * 1.5, median * 2,
                                             median * 2.5])
        assert r["change"] == pytest.approx([0.4 * v for v in r["parent"]])
        assert (r["wins"], r["pairs"], r["verdict"]) == (3, 3, "resolved gain")
    text = capsys.readouterr().out.splitlines()
    at = text.index(next(line for line in text
                         if line.startswith("median CPU s")))
    assert [line.split()[0] for line in text[at + 1:at + 3]] == \
        ["one-cut", "two-cut"]
    assert all("3/3" in line for line in text[at + 1:at + 3])
