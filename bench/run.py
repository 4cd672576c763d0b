"""splitsea benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload converge --seed 1 --seconds 2 --trace 0

Run from the root of a source tree; splitsea is imported from ``src/``.
With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a separate traced run.  The
line before it summarises the run (machine facts, failures, wall-clock
figures), and the full record goes to
``.bench_out/<workload>-seed<seed>-trace<t>.json``.

A run is two sessions, each a fresh interpreter that sets up (imports
splitsea and runs the first operation of each kind) and then times whole
decks, at least the workload's ``min_decks``, until it has spent its share
of ``--seconds`` in operations.  ``setup_s`` is the median of the two
set-up times; the other metrics pool the timed operations of the sessions,
so that no one process's memory layout sets them.  Times are CPU seconds of
the whole process, all threads
included: on a shared virtual machine the wall clock also counts time the
hypervisor gives to other guests, which moved single runs by 40 % on a
2-core machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("converge", "sample", "unitary-mc", "cdf-sweep")
# each session costs a full set-up (about 13 s for converge); two keep every
# workload's run near a minute or less
SESSIONS = 2
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def source_digest():
    """sha256 over the library sources, standing in for a commit id where
    the tree is not a git checkout."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_worker(argv, env, deadline):
    """Run worker.py; return its set-up times (wall seconds from start to
    BENCH-WARM, CPU seconds it reports there) and its result."""
    t0 = time.perf_counter()
    remaining = deadline - t0
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "worker.py"), *argv],
                            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    timer = threading.Timer(remaining, proc.kill)
    timer.start()
    warm = result = None
    try:
        for line in proc.stdout:
            if line.startswith("BENCH-WARM "):
                warm = (time.perf_counter() - t0, float(line.split()[1]))
            elif line.startswith("BENCH-RESULT "):
                result = json.loads(line[len("BENCH-RESULT "):])
            else:
                sys.stderr.write(line)
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or warm is None:
        raise BenchError(f"worker {' '.join(argv)} exited with {code}")
    return warm, result


def pool_sessions(results):
    """End-to-end metrics over the timed operations of all sessions.

    Times are CPU seconds of the whole process (every thread), which the
    hypervisor's stolen time does not inflate; the wall-clock figures go
    to the details.
    """
    timed = [t for res in results for t in res["details"]["timed"]]
    ok_cpu = [cpu for _, _, cpu, ok in timed if ok]
    ok_wall = [wall for _, wall, _, ok in timed if ok]
    attempted = sum(res["attempted"] for res in results)
    failed = sum(res["failed"] for res in results)
    metrics = {
        "ops_per_cpu_s": {"value": len(ok_cpu) / sum(t[2] for t in timed),
                          "unit": "1/s"},
        # every timed operation is checked; failed ones count at their cost
        "op_cpu_s_p50": {"value": statistics.median(t[2] for t in timed),
                         "unit": "s"},
        "peak_rss_mib": {"value": max(res["details"]["peak_rss_mib"]
                                      for res in results), "unit": "MiB"},
    }
    details = {
        "timed": timed,
        "timed_ops": len(timed),
        "timed_ok": len(ok_cpu),
        "fail_ratio": failed / attempted,
        "ops_per_s": len(ok_wall) / sum(t[1] for t in timed),
        "op_s_p50": statistics.median(t[1] for t in timed),
        # the highest percentile with ten samples beyond it
        "op_s_p90": (statistics.quantiles(ok_wall, n=10)[-1]
                     if len(ok_wall) >= 100 else None),
    }
    if "known_defect" in results[0]["details"]:
        details["known_defect"] = results[0]["details"]["known_defect"]
    return {"attempted": attempted, "failed": failed,
            "wrong": sum(res["wrong"] for res in results),
            "consistent": all(res["consistent"] for res in results),
            "failures": [f for res in results for f in res["failures"]],
            "metrics": metrics, "details": details,
            "machine": results[0]["machine"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "splitsea" / "__init__.py").is_file():
        print(f"bench: no splitsea sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    env = dict(os.environ)
    # the CLI runs at its defaults: the pool sized from the machine
    threads_env_was_set = env.pop("SPLITSEA_THREADS", None) is not None
    # string hashing moves dict and set layouts, and with them the speed of
    # a process by several per cent; one fixed seed removes that noise
    env["PYTHONHASHSEED"] = "0"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--out-dir", str(OUT_DIR)]
    try:
        if args.trace:
            _, result = run_worker(common, env, deadline)
            metrics, setups = result["metrics"], []
        else:
            sessions = [run_worker(common + ["--session", str(p), "--sessions",
                                             str(SESSIONS)], env, deadline)
                        for p in range(SESSIONS)]
            setups = [warm for warm, _ in sessions]
            result = pool_sessions([res for _, res in sessions])
            metrics = {"setup_s": {"value": statistics.median(
                cpu for _, cpu in setups), "unit": "s"}, **result["metrics"]}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    # wrong outputs make the run incorrect; every failure is also counted
    correct = result["wrong"] == 0 and result["consistent"]
    machine = dict(result["machine"], git_commit=git_commit(),
                   source_sha256=source_digest(),
                   splitsea_threads_env_set=threads_env_was_set,
                   python_hash_seed=env["PYTHONHASHSEED"])
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "correct": correct, "attempted": result["attempted"],
              "failed": result["failed"], "wrong": result["wrong"],
              "metrics": metrics, "setup_wall_cpu_s": setups,
              "details": result["details"], "failures": result["failures"],
              "machine": machine}
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    reasons = {}
    for f in result["failures"]:
        key = "wrong output" if f["code"] == 0 else f["stderr"].split(":")[0]
        reasons[key] = reasons.get(key, 0) + 1
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "fail_ratio": result["failed"] / result["attempted"],
                      "failure_kinds": reasons,
                      "details": {k: v for k, v in result["details"].items()
                                  if k != "timed"},
                      "machine": machine, "record": str(path.relative_to(ROOT))}))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
