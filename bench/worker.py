"""One measuring session: set up, run operations, check them, report.

Started by ``run.py``; not meant to be run by hand.  Every operation is one
in-process call of ``splitsea.cli.main(argv)`` with stdout captured.  The
process prints ``BENCH-WARM`` once the first operation of each kind has run
(``run.py`` times set-up up to that line) and one ``BENCH-RESULT <json>``
line at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TIME_CAP_S = 120.0   # stop starting decks past this, whatever --seconds says


@dataclass
class Record:
    wall: float
    cpu: float
    code: object
    stdout: str
    error: str


class Runner:
    """Runs CLI commands in process; ``cli`` is looked up on every call so
    that trace wrappers installed on ``cli.main`` are used."""

    def __init__(self, cli):
        self.cli = cli

    def run(self, op, extra=()):
        out, err = io.StringIO(), io.StringIO()
        error = ""
        c0, t0 = time.process_time(), time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(list(op.argv) + list(extra))
            except Exception as exc:  # a crash is a failed operation
                code, error = None, f"{type(exc).__name__}: {exc}"
        t1, c1 = time.perf_counter(), time.process_time()
        return Record(t1 - t0, c1 - c0, code, out.getvalue(),
                      error or err.getvalue().strip()[-300:])


class Tally:
    """Counts attempted, failed and wrong operations, keeping the reasons."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.failures = []

    def judge(self, workload, checker, op, rec):
        verdict = workload.check(op, rec.code, rec.stdout, checker)
        self.attempted += 1
        if not verdict.ok:
            self.failed += 1
            self.wrong += int(verdict.wrong)
            self.failures.append({"kind": op.kind, "argv": list(op.argv),
                                  "code": rec.code, "reason": verdict.reason,
                                  "stderr": rec.error})
        return verdict.ok


def import_splitsea():
    sys.path.insert(0, str(ROOT / "src"))
    import splitsea
    from splitsea import airy, cli, edge, potential

    if Path(splitsea.__file__).resolve().parent != ROOT / "src" / "splitsea":
        raise SystemExit(f"splitsea imported from {splitsea.__file__}, "
                         f"not from {ROOT / 'src'}")
    return cli, {"airy": airy, "edge": edge, "potential": potential}


def machine_facts():
    import numpy as np
    import scipy

    blas = (getattr(np.__config__, "CONFIG", {})
            .get("Build Dependencies", {}).get("blas", {}))
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "blas_thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def signal_warm():
    """Report set-up as done, with the CPU seconds this process has used."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(f"BENCH-WARM {usage.ru_utime + usage.ru_stime!r}", flush=True)


def settle():
    """Freeze what set-up left on the heap, so that garbage collections
    during timed operations scan only what those operations allocate, as in
    a fresh CLI process."""
    gc.collect()
    gc.freeze()


def run_session(workload, runner, checker, session, sessions, seconds):
    """Warm up; then time whole decks session, session + n, ... (n sessions)
    until this session has timed ``workload.min_decks`` decks and spent
    ``seconds / n`` in operations.

    Only session 0 checks its warm-up operations: every session warms up
    with the same inputs.  Session 0 then runs the workload's known-defect
    probes, untimed, after its peak memory is read.
    """
    tally = Tally()
    warm = [(op, runner.run(op)) for op in workload.warmup_ops()]
    signal_warm()
    if session == 0:
        for op, rec in warm:
            tally.judge(workload, checker, op, rec)
    settle()
    timed = []
    started, busy, deck = time.perf_counter(), 0.0, session
    while (deck < session + sessions * workload.min_decks
           or busy < seconds / sessions) \
            and time.perf_counter() - started < TIME_CAP_S / sessions:
        for op in workload.deck(deck):
            rec = runner.run(op)
            ok = tally.judge(workload, checker, op, rec)
            timed.append([op.kind, rec.wall, rec.cpu, ok])
            busy += rec.wall
        deck += sessions
    details = {"timed": timed, "peak_rss_mib": peak_rss_mib()}
    if session == 0 and workload.defect_probes():
        details["known_defect"] = probe_defect(workload, runner, checker)
    return tally, details


def probe_defect(workload, runner, checker):
    """Run the workload's known-defect probes untimed and outside the tally;
    report how many fail, so that the defect stays visible in every run."""
    probes = Tally()
    for op in workload.defect_probes():
        probes.judge(workload, checker, op, runner.run(op))
    return {"probes": probes.attempted, "failed": probes.failed,
            "wrong": probes.wrong,
            "reasons": [f["reason"] for f in probes.failures]}


def run_traced(workload, runner, checker, out_dir, seed):
    """Trace the warm-up and ``trace_decks`` decks; report per-layer metrics.

    Each deck operation runs untraced at the defaults, untraced with
    ``--threads 1`` and traced; the three stdouts must be byte-identical.
    """
    from tracer import Tracer, self_times
    import layers

    tracer = Tracer()
    tally = Tally()
    mismatches = 0
    op_id = 0
    for op in workload.warmup_ops():
        with tracer, tracer.operation(op_id):
            rec = runner.run(op)
        op_id += 1
        tally.judge(workload, checker, op, rec)
    signal_warm()
    settle()
    steady = []
    for deck in range(workload.trace_decks):
        for op in workload.deck(deck):
            plain = runner.run(op)
            single = runner.run(op, ("--threads", "1"))
            with tracer, tracer.operation(op_id):
                traced = runner.run(op)
            op_id += 1
            tally.judge(workload, checker, op, traced)
            mismatches += sum((r.code, r.stdout) != (traced.code, traced.stdout)
                              for r in (plain, single))
            steady.append((plain, single, traced))
    table = tracer.span_table()
    own = self_times(table)
    metrics = layers.layer_metrics(tracer, table, own, op_id, steady)
    spans_path = out_dir / f"spans-{workload.name}-seed{seed}.npz"
    tracer.save(spans_path, table, own)
    details = {"traced_ops": op_id, "spans": len(table),
               "spans_file": str(spans_path.relative_to(ROOT)),
               "stdout_mismatches": mismatches,
               "traced_s": sum(t.wall for _, _, t in steady),
               "untraced_s": sum(p.wall for p, _, _ in steady),
               "peak_rss_mib": peak_rss_mib()}
    return tally, metrics, details, mismatches == 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--session", type=int, default=0)
    ap.add_argument("--sessions", type=int, default=1)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS, Checker

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cli, modules = import_splitsea()
    workload = WORKLOADS[args.workload](args.seed, scratch_dir=str(out_dir))
    runner = Runner(cli)
    checker = Checker(modules)
    if args.trace:
        tally, metrics, details, consistent = run_traced(
            workload, runner, checker, out_dir, args.seed)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        tally, details = run_session(workload, runner, checker, args.session,
                                     args.sessions, args.seconds)
        metrics, consistent = None, True
    result = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "wrong": tally.wrong,
        "consistent": consistent,
        "failures": tally.failures,
        "metrics": metrics,
        "details": details,
        "machine": machine_facts(),
    }
    print("BENCH-RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
