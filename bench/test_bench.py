"""Self-tests of the benchmark harness.

    python3 -m pytest bench/test_bench.py

They are not part of the library's test suite (``testpaths`` is ``tests``).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, CdfSweep, Checker, Op  # noqa: E402

CLI, MODULES = worker.import_splitsea()


def _argvs(ops):
    return [op.argv for op in ops]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    a = WORKLOADS[name](7, scratch_dir=str(tmp_path))
    b = WORKLOADS[name](7, scratch_dir=str(tmp_path))
    c = WORKLOADS[name](8, scratch_dir=str(tmp_path))
    assert _argvs(a.warmup_ops()) == _argvs(b.warmup_ops())
    for deck in (0, 1, 5):
        assert _argvs(a.deck(deck)) == _argvs(b.deck(deck))
    assert _argvs(a.deck(0)) != _argvs(c.deck(0))
    assert _argvs(a.deck(0)) != _argvs(a.deck(1))
    kinds = [op.kind for op in a.warmup_ops()]
    assert sorted(kinds) == sorted(a.kinds)


def test_cdf_sweep_deck_hits_every_stratum():
    wl = CdfSweep(3)
    thetas = sorted(op.params["theta"] for op in wl.deck(0))
    bounds = [(lo + (hi - lo) * i / n, lo + (hi - lo) * (i + 1) / n)
              for lo, hi, n in wl.strata for i in range(n)]
    assert len(thetas) == len(bounds) == 13
    for theta, (lo, hi) in zip(thetas, bounds):
        assert lo <= theta < hi
    assert sum(t < 75.0 / 8.0 for t in thetas) == 10


def test_cdf_sweep_times_no_operation_in_the_defect_band():
    wl = CdfSweep(5)
    timed = [op.params["theta"] for d in range(4) for op in wl.deck(d)]
    timed += [op.params["theta"] for op in wl.warmup_ops()]
    assert not any(3.0 < t < 75.0 / 8.0 for t in timed)
    lo, hi, n = wl.defect_band
    probes = [op.params["theta"] for op in wl.defect_probes()]
    assert len(probes) == n and all(lo <= t < hi for t in probes)
    report = worker.probe_defect(wl, worker.Runner(CLI), Checker(MODULES))
    assert report["probes"] == n
    assert len(report["reasons"]) == report["failed"] >= report["wrong"]


OPS = [
    Op("cdf", ("cdf", "--gamma", "1,-0.3333333333", "--theta", "2.0",
               "--ell-range", "1:9")),
    Op("cdf", ("cdf", "--gamma", "1,-0.3333333333", "--theta", "10.0",
               "--ell-range", "20:26")),
    Op("cdf", ("cdf", "--gamma", "1,-0.3333333333", "--theta", "6.0",
               "--ell-range", "1:20")),
    Op("unitary-mc", ("unitary-mc", "--gamma", "1,-0.3333333333", "--theta",
                      "5.0", "--ell", "6", "--sweeps", "200", "--seed", "4")),
    Op("sample", ("sample", "--gamma", "1,-0.3333333333", "--theta", "4.0",
                  "-n", "20", "--seed", "9")),
    Op("converge", ("converge", "--gamma", "1,-0.3333333333", "--thetas",
                    "10.0,12.0", "--threads", "2")),
]


def _snapshot():
    return {(name, attr): id(obj) for name, mod in sorted(sys.modules.items())
            if name == "splitsea" or name.startswith("splitsea.")
            for attr, obj in vars(mod).items()}


def test_trace_wrappers_keep_stdout_identical_and_are_restored():
    runner = worker.Runner(CLI)
    before = _snapshot()
    plain = [runner.run(op) for op in OPS]
    tracer = Tracer()
    traced = []
    for i, op in enumerate(OPS):
        with tracer, tracer.operation(i):
            for mod, attr in (("sampler", "kernel_eval"), ("edge", "kernel_matrix"),
                              ("edge", "limiting_cdf"), ("unitary", "exact_cdf"),
                              ("cli", "main"), ("cli", "_pool_map")):
                patched = getattr(sys.modules[f"splitsea.{mod}"], attr)
                assert hasattr(patched, "__wrapped__"), (mod, attr)
            traced.append(runner.run(op))
        assert _snapshot() == before
    assert [(r.code, r.stdout) for r in traced] == \
        [(r.code, r.stdout) for r in plain]
    assert plain[2].code == 3   # the Toeplitz-route defect at theta = 6
    assert all(r.code == 0 for i, r in enumerate(plain) if i != 2)

    table = tracer.span_table()
    names = np.array(tracer.names)[table[:, 1].astype(int)]
    assert np.array_equal(table[:, 0], np.arange(len(table)))
    # the converge pool ran two studies on worker threads: their spans keep
    # the operation id and hang off the pool span
    study = table[names == "edge.scaled_convergence_study"]
    assert len(study) == 2 and set(study[:, 3]) == {len(OPS) - 1}
    pool = table[names == "cli._pool_map"]
    assert set(study[:, 2]) == set(pool[:, 0])
    failed = table[(names == "edge.toeplitz_cdf") & (table[:, 6] == 1.0)]
    assert len(failed) == 1 and set(failed[:, 3]) == {2}


def test_self_time_subtracts_union_of_children():
    # sid, name, parent, op, start, end, raised
    table = np.array([[0, 0, -1, 0, 0.0, 10.0, 0],
                      [1, 1, 0, 0, 1.0, 5.0, 0],
                      [2, 1, 0, 0, 3.0, 7.0, 0],
                      [3, 1, 0, 0, 8.0, 9.0, 0],
                      [4, 1, 3, 0, 8.5, 9.5, 0]])
    own = self_times(table)
    assert own.tolist() == [3.0, 4.0, 4.0, 0.5, 1.0]


def test_perturbed_cdf_row_is_counted_as_failed():
    wl = CdfSweep(1)
    op = wl._op(2.0)
    rec = worker.Runner(CLI).run(op)
    checker = Checker(MODULES)
    tally = worker.Tally()
    assert tally.judge(wl, checker, op, rec)

    lines = rec.stdout.split("\n")
    ell, p, s = lines[4].split(",")
    lines[4] = ",".join([ell, repr(float(p) + 1e-6), s])
    rec.stdout = "\n".join(lines)
    assert not tally.judge(wl, checker, op, rec)
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 1, 1)
    assert "ell=4" in tally.failures[0]["reason"]


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(layers.METRICS)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == \
        {"setup_s", "ops_per_cpu_s", "op_cpu_s_p50", "peak_rss_mib"}


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "unitary-mc", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
