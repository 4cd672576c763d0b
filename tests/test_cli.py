"""CLI: subcommands, artifacts, config handling, exit codes."""

import json
import math
import os
import shlex
import subprocess
import sys

import numpy as np
import pytest

from splitsea import cli
from splitsea.cli import (_apply_config, _merge_negative_values, build_parser,
                          main, read_csv)
from splitsea.potential import HoppingCoefficients, global_extrema


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_json_schema(capsys):
    code, out, _ = run(capsys, "analyze", "--gamma", "1,-0.3333333333", "--json")
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"b", "b_tilde", "maximizers", "n_cuts"}
    assert report["n_cuts"] == 2
    assert set(report["maximizers"][0]) == {"chi_b", "m", "d"}
    assert report["maximizers"][0]["m"] == 1


def test_analyze_golden_exact_input(capsys):
    # with gamma2 = -1/3 given in full precision, the constants are exact
    g2 = repr(-1.0 / 3.0)
    code, out, _ = run(capsys, "analyze", "--gamma", f"1,{g2}")
    report = json.loads(out)
    assert report["b"] == pytest.approx(41.0 / 24.0, abs=1e-10)
    assert report["b_tilde"] == pytest.approx(10.0 / 3.0, abs=1e-10)
    assert report["maximizers"][0]["chi_b"] == pytest.approx(
        math.acos(3.0 / 8.0), abs=1e-10)


def test_empty_gamma_is_config_error(capsys):
    code, _, _ = run(capsys, "analyze", "--gamma", "")
    assert code == 2
    code, _, _ = run(capsys, "cdf", "--gamma", "1,bad", "--theta", "1", "--ell-range", "1:3")
    assert code == 2


def test_non_finite_gamma_is_config_error(capsys):
    code, out, err = run(capsys, "analyze", "--gamma", "1,nan")
    assert code == 2 and out == ""
    assert "config error" in err and "finite" in err


def test_infinite_gamma_sample_is_config_error(capsys):
    code, out, err = run(capsys, "sample", "--gamma", "1,inf", "--theta", "5",
                         "-n", "3")
    assert code == 2 and out == ""
    assert "config error" in err and "finite" in err


def test_config_without_path_is_config_error(capsys):
    code, _, err = run(capsys, "--config")
    assert code == 2
    assert "config error: --config needs a path" in err


def test_config_equals_form_reads_the_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma=1,-0.3333333333\ntheta=0.5\nk=0.5\nl=1.5\n")
    code, spaced, _ = run(capsys, "--config", str(cfg), "kernel")
    assert code == 0
    code, joined, _ = run(capsys, f"--config={cfg}", "kernel")
    assert code == 0 and joined == spaced
    code, _, err = run(capsys, "--config=", "kernel")
    assert code == 2 and "config error: --config needs a path" in err


@pytest.mark.parametrize("m", ["0", "-1"])
def test_airy_order_below_one_is_config_error(capsys, m):
    code, out, err = run(capsys, "airy", "--m", m, "--s", "0:0.2")
    assert code == 2 and out == ""
    assert "config error" in err and "positive integer" in err


def test_sample_zero_draws_is_config_error(capsys):
    code, out, err = run(capsys, "sample", "--gamma", "1,-0.3333333333",
                         "--theta", "4.0", "-n", "0")
    assert code == 2 and out == ""
    assert "n_samples must be a positive integer" in err


def test_subcritical_is_numerical_error(capsys):
    code, _, err = run(capsys, "unitary-density", "--gamma", "1,-0.3333333333",
                       "--x", "0.5")
    assert code == 3
    assert "SubcriticalPhase" in err


@pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
def test_unitary_density_rejects_non_finite_x(capsys, x):
    # --x nan used to print a CSV of nan and --x inf the uniform density
    code, out, err = run(capsys, "unitary-density", "--gamma", "1,-0.3333333333",
                         f"--x={x}", "--steps", "5")
    assert code == 2 and out == ""
    assert "x must be finite" in err


@pytest.mark.parametrize("x", ["-inf", "-nan", "-Infinity"])
def test_spaced_negative_non_finite_x_reaches_the_check(capsys, x):
    # argparse read "--x -inf" as a flag without its value
    code, out, err = run(capsys, "unitary-density", "--gamma", "1,-0.3333333333",
                         "--x", x, "--steps", "5")
    assert code == 2 and out == ""
    assert "x must be finite" in err


G = ("--gamma", "1,-0.3333333333")


@pytest.mark.parametrize("argv,flag", [
    (("cdf",) + G + ("--theta", "2", "--ell-range", "1.5:4"), "--ell-range"),
    (("cdf",) + G + ("--theta", "2", "--ell-range", "1:4:2"), "--ell-range"),
    (("airy", "--s", "-6:4:0"), "--s"),
    (("airy", "--s", "-6:4:-0.1"), "--s"),
    (("airy", "--s", "4:-6"), "--s"),
    (("airy", "--s", "-inf:4"), "--s"),
    (("density",) + G + ("--xmin", "-1", "--xmax", "1", "--steps", "0"),
     "--steps"),
    (("unitary-density",) + G + ("--x", "2", "--steps", "0"), "--steps"),
    (("kernel-profile", "--gamma", "1", "--theta", "2", "--window", "3:1"),
     "--window"),
    (("kernel-profile", "--gamma", "1", "--theta", "2", "--window", "a:b"),
     "--window"),
    (("airy", "--s", "-6:4:1e-9"), "--s"),  # was a 74.5 GiB allocation
    (("airy", "--s", "-6:4:1e-300"), "--s"),
    (("density",) + G + ("--xmin", "nan", "--xmax", "1"), "--xmin must be finite, got nan"),
    (("density",) + G + ("--xmin", "-1", "--xmax", "inf"), "--xmax must be finite, got inf"),
    (("kernel-profile", "--gamma", "1", "--theta", "2", "--window", "3:3"),
     "--window"),  # holds no half-integer site
    (("kernel-profile", "--gamma", "1", "--theta", "2", "--window", "0.6:0.9"),
     "--window"),
])
def test_malformed_or_empty_grid_is_config_error(capsys, argv, flag):
    # these truncated, replaced a zero step, or printed a bare header
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("config error") and flag in err


def test_readme_command_lines_parse():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        lines = [line.strip() for line in fh
                 if line.strip().startswith("splitsea ")]
    assert len(lines) >= 10
    parser = build_parser()
    for line in lines:
        argv = _merge_negative_values(
            _apply_config(shlex.split(line, comments=True)[1:]))
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")
        assert args.command == argv[0]


def test_readme_density_line_runs(tmp_path, capsys):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        line, = [ln.strip() for ln in fh if ln.startswith("splitsea density ")]
    argv = shlex.split(line)[1:]
    out = tmp_path / "density.csv"
    argv[argv.index("--out") + 1] = str(out)
    assert run(capsys, *argv)[0] == 0
    header, rows = read_csv(str(out))
    assert header == ["x", "rho", "Omega"] and len(rows) == 400
    x, rho, omega = np.array(rows, dtype=float).T
    gammas = [float(v) for v in argv[argv.index("--gamma") + 1].split(",")]
    b, b_tilde = global_extrema(HoppingCoefficients(gammas))
    frozen, empty = x <= -b_tilde, x >= b
    assert frozen.any() and empty.any()
    assert np.all((rho >= 0.0) & (rho <= 1.0))
    assert np.max(np.abs(omega[frozen] + x[frozen])) <= 1e-12
    assert np.max(np.abs(omega[empty] - x[empty])) <= 1e-12


def test_density_csv_roundtrip(tmp_path, capsys):
    out = tmp_path / "density.csv"
    code, _, _ = run(capsys, "density", "--gamma", "1,-0.3333333333",
                     "--xmin", "-1.0", "--xmax", "1.0", "--steps", "11",
                     "--out", str(out))
    assert code == 0
    header, rows = read_csv(str(out))
    assert header == ["x", "rho", "Omega"]
    assert len(rows) == 11
    # bit-identical after rewrite through the same writer
    from splitsea.cli import _csv_out
    again = tmp_path / "density2.csv"
    _csv_out([tuple(r) for r in rows], header, str(again))
    assert out.read_text() == again.read_text()


def test_kernel_command_and_negative_tokens(capsys):
    code, out, _ = run(capsys, "kernel", "--gamma", "1,-0.3333333333",
                       "--theta", "0.5", "--k", "-0.5", "--l", "-0.5")
    assert code == 0
    report = json.loads(out)
    assert abs(report["diff"]) < 1e-9
    assert 0.0 <= report["value"] <= 1.0


def test_kernel_profile(tmp_path, capsys):
    out = tmp_path / "prof.csv"
    code, _, _ = run(capsys, "kernel-profile", "--gamma", "1", "--theta", "2",
                     "--window", "-6:6", "--out", str(out))
    assert code == 0
    header, rows = read_csv(str(out))
    assert header == ["k", "Kkk"]
    vals = [r[1] for r in rows]
    assert vals[0] > 0.95 and vals[-1] < 0.05


@pytest.mark.parametrize("window,sites", [
    ("-3:3", [-2.5, -1.5, -0.5, 0.5, 1.5, 2.5]),  # once ran on to 3.5
    ("3:3.5", [3.5]),
    ("-0.5:0.4", [-0.5]),
])
def test_kernel_profile_sites_lie_in_the_window(capsys, window, sites):
    code, out, _ = run(capsys, "kernel-profile", "--gamma", "1", "--theta", "2",
                       f"--window={window}")
    assert code == 0
    assert [float(line.split(",")[0]) for line in out.splitlines()[1:]] == sites


def test_oracle_cdf(capsys):
    code, out, _ = run(capsys, "oracle", "cdf", "--gamma", "1,-0.3333333333",
                       "--theta", "0.5", "--ell", "3", "--cap", "14")
    report = json.loads(out)
    assert code == 0
    assert set(report) == {"value", "cap", "residual_bound"}
    assert report["residual_bound"] < 1e-9


def test_airy_grid(capsys):
    code, out, _ = run(capsys, "airy", "--m", "1", "--s", "-2:0:1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "s,F"
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert vals == sorted(vals)


@pytest.mark.parametrize("argv", [
    ("converge", "--gamma", "1,-0.3333333333", "--thetas", "10,12",
     "--threads", "2"),
    ("sample", "--gamma", "1,-0.3333333333", "--theta", "4.0", "-n", "20"),
    ("airy", "--m", "1", "--power", "2", "--s", "-6:4:0.1"),
])
def test_each_command_computes_one_limit_table(monkeypatch, capsys, argv):
    import splitsea.airy as airy_mod

    calls = []
    table = airy_mod.limiting_cdf

    def counted(*args):
        calls.append(args)
        return table(*args)

    for module in ("splitsea.airy", "splitsea.edge", "splitsea.sampler"):
        monkeypatch.setattr(f"{module}.limiting_cdf", counted)
    assert run(capsys, *argv)[0] == 0
    assert len(calls) == 1 and np.ndim(calls[0][2]) == 1


def test_the_one_parser_carries_nothing_between_calls(monkeypatch, capsys):
    # the per-process parser must parse every line as a fresh one does:
    # a flag given once must not become the next call's default
    sample = ("sample", "--gamma", "1,-0.3333333333", "--theta", "4.0", "-n", "20")
    argvs = [sample + ("--seed", "3"), sample,
             ("analyze", "--gamma", "1,-0.3333333333", "--json"),
             ("analyze", "--gamma", "1,0.1"),
             ("airy", "--m", "2", "--s", "0:1:0.5"), ("airy", "--s", "0:1:0.5")]
    for argv in argvs:
        assert vars(cli._parser().parse_args(argv)) == \
            vars(build_parser().parse_args(argv))
    once = [run(capsys, *argv) for argv in argvs]
    assert cli._parser() is cli._parser()
    assert json.loads(once[1][1])["seed"] == 0
    monkeypatch.setattr(cli, "_parser", build_parser)
    assert [run(capsys, *argv) for argv in argvs] == once


@pytest.mark.parametrize("argv,builds", [
    (("cdf", "--gamma", "1,-0.3333333333", "--theta", "2.0", "--ell-range", "1:8"), 0),
    (("unitary-mc", "--gamma", "1,-0.3333333333", "--theta", "10.9", "--ell",
      "24", "--sweeps", "20"), 0),
    (("airy", "--s", "-2:0:1"), 1),
])
def test_only_commands_using_the_limit_law_build_its_cache(capsys, argv, builds):
    import splitsea.airy as airy_mod

    airy_mod._law_block.cache_clear()
    assert run(capsys, *argv)[0] == 0
    info = airy_mod._law_block.cache_info()
    assert (info.misses, info.currsize) == (builds, builds)


def test_cdf_command(capsys):
    code, out, _ = run(capsys, "cdf", "--gamma", "1,-0.3333333333",
                       "--theta", "2.0", "--ell-range", "1:8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "ell,p,s"
    ps = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(a <= b + 1e-12 for a, b in zip(ps, ps[1:]))


def test_cdf_empty_ell_range_is_config_error(capsys):
    code, out, err = run(capsys, "cdf", "--gamma", "1,-0.3333333333",
                         "--theta", "2.0", "--ell-range", "5:3")
    assert code == 2 and out == ""
    assert "config error: empty ell range 5:3" in err


def test_converge_command(tmp_path, capsys):
    svg = tmp_path / "conv.svg"
    csv = tmp_path / "conv.csv"
    code, out, _ = run(capsys, "converge", "--gamma", "1,-0.3333333333",
                       "--thetas", "10,20", "--out", str(csv),
                       "--svg", str(svg), "--threads", "2")
    assert code == 0
    report = json.loads(out)
    assert set(report["sup_distance"]) == {"10.0", "20.0"}
    assert svg.exists() and svg.read_text().startswith("<svg")
    header, rows = read_csv(str(csv))
    assert header == ["theta", "s", "cdf"]


def test_sample_command(tmp_path, capsys):
    out = tmp_path / "kmax.csv"
    code, js, _ = run(capsys, "sample", "--gamma", "1,-0.3333333333",
                      "--theta", "4.0", "-n", "40", "--seed", "7",
                      "--out", str(out))
    assert code == 0
    report = json.loads(js)
    assert report["n"] == 40
    assert 0.0 <= report["ks_exact"] <= 1.0
    header, rows = read_csv(str(out))
    assert header == ["k_max"] and len(rows) == 40


def test_unitary_mc_command(capsys):
    code, out, _ = run(capsys, "unitary-mc", "--gamma", "1,-0.3333333333",
                       "--theta", "5.0", "--ell", "6", "--sweeps", "800",
                       "--seed", "1")
    assert code == 0
    report = json.loads(out)
    assert {"acceptance_rate", "dip_ratio", "proposal_sigma"} <= set(report)
    assert 0.0 < report["acceptance_rate"] < 1.0


MC = ("unitary-mc", "--gamma", "1,-0.3333333333")


@pytest.mark.parametrize("argv,message", [
    (MC + ("--theta", "nan", "--ell", "4"), "theta must be a nonnegative real"),
    (MC + ("--theta", "inf", "--ell", "4"), "theta must be a nonnegative real"),
    (MC + ("--theta", "-1", "--ell", "4"), "theta must be a nonnegative real"),
    (MC + ("--theta", "5", "--ell", "0"), "ell must be a positive integer"),
    (MC + ("--theta", "5", "--ell", "4", "--sweeps", "0"), "keeps no sample"),
    (MC + ("--theta", "5", "--ell", "4", "--sweeps", "1"), "keeps no sample"),
    (MC + ("--theta", "5", "--ell", "4", "--sweeps", "-5"), "keeps no sample"),
    (("sample", "--gamma", "1,-0.3333333333", "--theta", "nan", "-n", "3"),
     "theta must be a nonnegative real"),
    (("converge", "--gamma", "1,-0.3333333333", "--thetas", "nan"),
     "theta must be a nonnegative real"),
    (("converge", "--gamma", "1,-0.3333333333", "--thetas", "10,-3"),
     "theta must be a nonnegative real"),
    # theta = 0 has no edge scaling: a ZeroDivisionError, LeakageTooLarge
    # and a sup distance of 0.99999 before
    (("cdf", "--gamma", "1,-0.3333333333", "--theta", "0", "--ell-range", "0:3"),
     "theta > 0"),
    (("sample", "--gamma", "1,-0.3333333333", "--theta", "0", "-n", "3"),
     "theta > 0"),
    (("converge", "--gamma", "1,-0.3333333333", "--thetas", "0"), "theta > 0"),
])
def test_bad_coupling_or_chain_length_is_config_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("config error") and message in err


def test_unitary_mc_two_sweeps_keep_one_sample(capsys):
    code, out, _ = run(capsys, *MC, "--theta", "5", "--ell", "3",
                       "--sweeps", "2", "--seed", "1")
    assert code == 0 and "acceptance_rate" in json.loads(out)


def test_python_dash_m_runs_the_cli():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.abspath(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "splitsea", "analyze",
                           "--gamma", "1,-0.3333333333"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["n_cuts"] == 2


def test_cli_import_leaves_scipy_optimize_out():
    # importing scipy.optimize cost a third of the CLI's start-up CPU, for
    # one root solver that the Fermi-sea code now has built in
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.abspath(src), os.environ.get("PYTHONPATH")])))
    probe = ("import sys, splitsea.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_uncertified_airy_order_exits_3_without_numpy_warnings():
    # m = 5 overflowed the contour integrand before the quadrature gave up
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.abspath(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "splitsea", "airy", "--m", "5",
                           "--s", "0:1"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("NoConvergence:")
    assert "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("theta,route", [(2.0, "ell capped"),
                                         (20.0, "Fredholm window")])
def test_cdf_over_the_table_cap_is_config_error(capsys, theta, route):
    # the Fredholm route used to factor a dense window of 5064 sites
    code, out, err = run(capsys, "cdf", "--gamma", "1", "--theta", str(theta),
                         "--ell-range", "0:5000")
    assert code == 2 and out == "" and route in err


def test_figures_command(tmp_path, capsys):
    code, out, _ = run(capsys, "figures", "--gamma2", "-0.3333333333",
                       "--out-dir", str(tmp_path))
    assert code == 0
    report = json.loads(out)
    assert len(report["csv"]) == 3
    for path in report["csv"]:
        assert os.path.exists(path)
    assert os.path.exists(report["svg"])


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma=1,-0.3333333333\ntheta=0.5\nk=0.5\nl=0.5\n")
    code, out, _ = run(capsys, "--config", str(cfg), "kernel")
    assert code == 0
    base = json.loads(out)["value"]
    code, out, _ = run(capsys, "--config", str(cfg), "kernel", "--l", "1.5")
    assert code == 0
    assert json.loads(out)["value"] != base
