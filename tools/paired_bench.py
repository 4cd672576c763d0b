"""Paired benchmark runs of two source trees, one workload after another.

    python3 tools/paired_bench.py PARENT_DIR CHANGE_DIR --workload sample \
        --pairs 10 --seed0 1 [--workload converge ...] [--json BENCH.json]

Before the first pair each tree's ``src`` is compiled once
(``python -m compileall -q src``): with PYTHONDONTWRITEBYTECODE set and no
``__pycache__``, every run would compile the package afresh, and
``peak_rss_mib`` would compare the compiler's high-water marks of the two
sources.  Pair i runs ``bench/run.py --workload W --seed S+i --seconds 2
--trace 0`` once in each tree, one process at a time; the parent goes first in even
pairs and the change in odd ones, so drift of the machine falls on both
sides alike.  Each run's last stdout line (its end-to-end metrics) is
parsed, and the line before it gives the tree's ``source_sha256``.  For
every workload and metric the summary gives each side's median and
quartiles, the parent's interquartile range and the number of pairs the
change wins, in the direction ``BENCHMARK.json`` of the parent tree gives.
A gain is resolved when the change wins at least nine pairs in ten and its
median is better than the parent's by more than the parent's IQR; a metric
whose change median is worse than the parent's by more than its relative
bound is flagged.  Each side's share of failed operations and its runs that
were not ``correct`` close the table; a change that fails a larger share
than the parent is marked.  Per operation kind, each run's median CPU
seconds is read from the record that its second-to-last stdout line names
(``.bench_out/<workload>-seed<s>-trace0.json``, its ``details.timed``), and
the same summary of those medians, lower better and with no bound, follows
the table: a shift in one kind shows there even where the pooled
``op_cpu_s_p50`` sits on the seam between two kinds.  ``--json PATH`` writes
all of that, with both trees' source digests, the compile command and the
seeds, to PATH (``report``, the kinds under ``"kinds"``).  Each tree's runs
write only where ``bench/run.py`` writes them (its ``.bench_out/``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9  # share of pairs the change must win for a resolved gain
COMPILE = ("-m", "compileall", "-q", "src")  # run in each tree before the pairs


def quartiles(values):
    """(q1, median, q3) of ``values``, inclusive method; one value is all
    three."""
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(pairs, metrics):
    """Per-metric summary of paired runs.

    ``pairs`` is a list of (parent, change) dicts of metric name to value;
    ``metrics`` maps each metric to its (better, bound), better "lower" or
    "higher" and bound the relative worsening allowed (None for none).
    Returns one dict per metric present on both sides of every pair.
    """
    out = []
    for name, (better, bound) in metrics.items():
        if not all(name in a and name in b for a, b in pairs):
            continue
        parent = [a[name] for a, _ in pairs]
        change = [b[name] for _, b in pairs]
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(sign * (b - a) > 0.0 for a, b in zip(parent, change))
        p_q = quartiles(parent)
        c_q = quartiles(change)
        iqr = p_q[2] - p_q[0]
        gain = sign * (c_q[1] - p_q[1])
        worse = (bound is not None and p_q[1] != 0.0
                 and -gain / abs(p_q[1]) > bound)
        out.append({"metric": name, "better": better, "pairs": len(pairs),
                    "parent": p_q, "change": c_q, "parent_iqr": iqr,
                    "median_gain": gain,
                    "relative_gain": gain / abs(p_q[1]) if p_q[1] else None,
                    "wins": wins,
                    "resolved_gain": (wins >= WIN_SHARE * len(pairs)
                                      and gain > iqr),
                    "past_bound": worse})
    return out


def end_to_end_metrics(tree):
    """{name: (better, bound)} of the end-to-end metrics of ``tree``'s
    BENCHMARK.json."""
    spec = json.loads((Path(tree) / "BENCHMARK.json").read_text())
    return {m["name"]: (m["better"], m.get("bound"))
            for m in spec["end_to_end"]}


def compile_tree(tree):
    """Compile ``tree``'s ``src`` to bytecode (COMPILE), so that every run
    imports the package from its ``__pycache__``."""
    proc = subprocess.run([sys.executable, *COMPILE], cwd=tree,
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"compileall in {tree} exited {proc.returncode}: "
                           f"{(proc.stdout + proc.stderr).strip()[-500:]}")


def kind_medians(timed):
    """{kind: median CPU seconds} of a run's ``details.timed``, whose entries
    are [kind, wall, cpu, ok] per timed operation."""
    cpus = {}
    for kind, _, cpu, _ in timed:
        cpus.setdefault(kind, []).append(cpu)
    return {kind: statistics.median(values) for kind, values in cpus.items()}


def run_once(tree, workload, seed):
    """Metric values, (correct, failed, attempted), the source digest and
    the per-kind median CPU (``kind_medians``) of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "2", "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"bench/run.py in {tree} (seed {seed}) exited "
                           f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    summary = json.loads(lines[-2])
    record = json.loads((Path(tree) / summary["record"]).read_text())
    return (values, (result["correct"], result["failed"], result["attempted"]),
            summary["machine"]["source_sha256"],
            kind_medians(record["details"]["timed"]))


def failure_summary(outcomes):
    """Each side's share of failed operations and its runs not ``correct``.

    ``outcomes`` holds one (parent, change) pair of ``run_once``'s
    (correct, failed, attempted) per pair of runs.  A side's share is its
    failed operations over its attempted ones, summed over the pairs (0.0
    when it attempted none); ``incorrect`` lists the 1-based pairs whose run
    was not correct, and ``more_failures`` marks a change that fails a
    larger share than the parent.
    """
    out = {}
    for side, label in enumerate(("parent", "change")):
        runs = [pair[side] for pair in outcomes]
        attempted = sum(run[2] for run in runs)
        out[label] = {
            "failed_share": (sum(run[1] for run in runs) / attempted
                             if attempted else 0.0),
            "incorrect": [i + 1 for i, run in enumerate(runs) if not run[0]]}
    out["more_failures"] = (out["change"]["failed_share"]
                            > out["parent"]["failed_share"])
    return out


def verdict(row):
    """A ``summarize`` row's verdict: resolved gain, past bound or
    unresolved."""
    return ("resolved gain" if row["resolved_gain"] else
            "past bound" if row["past_bound"] else "unresolved")


def format_summary(rows, failures=None, first="metric"):
    """Text table of ``summarize``'s rows, one line per metric, closed by
    ``failure_summary``'s line when given; ``first`` heads the name column."""
    lines = [f"{first:<15} {'parent q1/med/q3':>30} {'change q1/med/q3':>30}"
             f" {'parent IQR':>11} {'gain':>8} {'wins':>6}  verdict"]
    for r in rows:
        rel = r["relative_gain"]
        lines.append(
            f"{r['metric']:<15} "
            f"{'/'.join(f'{v:.4g}' for v in r['parent']):>30} "
            f"{'/'.join(f'{v:.4g}' for v in r['change']):>30} "
            f"{r['parent_iqr']:>11.4g} "
            f"{'' if rel is None else f'{100.0 * rel:+.1f}%':>8} "
            f"{r['wins']:>3}/{r['pairs']:<2}  {verdict(r)}")
    if failures is not None:
        parent, change = failures["parent"], failures["change"]
        closing = ("change fails more" if failures["more_failures"]
                   else "no more failures")
        lines.append(
            f"{'failed ops':<15} {100.0 * parent['failed_share']:>29.2f}% "
            f"{100.0 * change['failed_share']:>29.2f}%  {closing}; runs not "
            f"correct: parent pairs {parent['incorrect'] or 'none'}, change "
            f"pairs {change['incorrect'] or 'none'}")
    return "\n".join(lines)


def _json_rows(rows):
    """``summarize``'s rows with list quartiles and each row's verdict."""
    return [dict(r, parent=list(r["parent"]), change=list(r["change"]),
                 verdict=verdict(r)) for r in rows]


def report(trees, digests, seeds, results):
    """The JSON record of the summary: each tree's path and source digest,
    the command that compiled both trees before the pairs (``compile_tree``),
    the seeds of the pairs, and per workload its ``summarize`` rows, each
    with its ``verdict``, its ``failure_summary`` and its per-kind rows.

    ``trees`` and ``digests`` are (parent, change) pairs, and ``results``
    maps each workload to its (rows, failures, kind rows).  Quartiles are
    lists, so the record reads back from JSON equal to itself.
    """
    return {"trees": {label: {"path": str(tree), "source_digest": digest}
                      for label, tree, digest in zip(("parent", "change"),
                                                     trees, digests)},
            "compiled": " ".join(("python",) + COMPILE),
            "seeds": list(seeds),
            "workloads": {
                workload: {"metrics": _json_rows(rows), "failures": failures,
                           "kinds": _json_rows(kinds)}
                for workload, (rows, failures, kinds) in results.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("parent", help="source tree of the parent commit")
    ap.add_argument("change", help="source tree of the change")
    ap.add_argument("--workload", required=True, action="append",
                    help="a workload to pair (repeat for more, run in order)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--json", metavar="PATH",
                    help="also write the summary as JSON to PATH")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error(f"--pairs must be at least 1, got {args.pairs}")
    trees = (args.parent, args.change)
    seeds = [args.seed0 + i for i in range(args.pairs)]
    digests = [set(), set()]
    results = {}
    for tree in trees:
        compile_tree(tree)
    for workload in args.workload:
        pairs, outcomes, kinds = [], [], []
        for i, seed in enumerate(seeds):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            got = [None, None]
            for side in order:
                got[side] = run_once(trees[side], workload, seed)
                digests[side].add(got[side][2])
            print(f"{workload} pair {i + 1} seed {seed}: "
                  + "  ".join(f"{label} {json.dumps(v)} correct/failed/"
                              f"attempted {c}" for label, (v, c, *_)
                              in zip(("parent", "change"), got)),
                  flush=True)
            pairs.append((got[0][0], got[1][0]))
            outcomes.append((got[0][1], got[1][1]))
            kinds.append((got[0][3], got[1][3]))
        names = sorted({kind for pair in kinds for side in pair for kind in side})
        rows = summarize(pairs, end_to_end_metrics(args.parent))
        failures = failure_summary(outcomes)
        kind_rows = summarize(kinds, dict.fromkeys(names, ("lower", None)))
        results[workload] = (rows, failures, kind_rows)
        print(f"workload {workload}\n{format_summary(rows, failures)}\n"
              f"{format_summary(kind_rows, first='median CPU s')}", flush=True)
    if any(len(d) != 1 for d in digests):
        raise RuntimeError(f"a tree's sources changed during the runs: {digests}")
    if args.json:
        record = report(trees, [d.pop() for d in digests], seeds, results)
        Path(args.json).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
