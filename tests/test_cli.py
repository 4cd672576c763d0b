"""CLI: subcommands, artifacts, config handling, exit codes."""

import ctypes
import _ctypes
import json
import math
import os
import resource
import shlex
import subprocess
import sys
import threading

import numpy as np
import pytest

from splitsea import cli
from splitsea.cli import (_apply_config, _merge_negative_values, build_parser,
                          main)
from splitsea.potential import HoppingCoefficients, global_extrema


def read_csv(path):
    """Reader matching ``cli._csv_out``: floats parsed back via float()."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = []
        for line in fh:
            vals = []
            for tok in line.strip().split(","):
                try:
                    vals.append(float(tok))
                except ValueError:
                    vals.append(tok)
            rows.append(vals)
    return header, rows


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def cli_env(**extra):
    """Environment of a subprocess that imports splitsea from this tree."""
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


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


def test_subcritical_small_weights_is_numerical_error(capsys):
    # x = b / 2; an absolute 1e-12 slack printed a clipped density (exit 0)
    code, out, err = run(capsys, "unitary-density", "--gamma", "1e-13", "--x", "1e-13")
    assert code == 3 and out == ""
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
    # past the desk bounds: each allocated GiBs or ran for minutes
    (("unitary-density",) + G + ("--x", "2", "--steps", "1000000000"),
     "--steps"),
    (("density",) + G + ("--xmin", "-1", "--xmax", "1", "--steps", "10000000"),
     "--steps"),
    (("kernel-profile", "--gamma", "1", "--theta", "30",
      "--window", "-70:70000000"), "--window"),
    (("sample",) + G + ("--theta", "40", "-n", "100000000"), "-n"),
    (("unitary-mc",) + G + ("--theta", "10.9", "--ell", "24",
                           "--bins", "1000000000"), "--bins"),
    (("unitary-mc",) + G + ("--theta", "10.9", "--ell", "24", "--bins", "0"),
     "--bins"),  # ran the whole chain before numpy refused the histogram
    (("unitary-mc",) + G + ("--theta", "10.9", "--ell", "100000"), "--ell"),
    (("unitary-mc",) + G + ("--theta", "10.9", "--ell", "24",
                           "--sweeps", "1000000000"), "--sweeps"),
    (("oracle", "cdf") + G + ("--theta", "0.5", "--ell", "3", "--cap", "200"),
     "--cap"),
    (("oracle", "cdf") + G + ("--theta", "0.5", "--ell", "3", "--cap", "-1"),
     "--cap"),  # exited 0 with a meaningless value
    (("unitary-mc",) + G + ("--theta", "10.9", "--ell", "1000",
                           "--sweeps", "10000"), "--sweeps"),  # 1e10 pair terms
    # an OverflowError traceback, numpy's NaN message, a 7.28 TiB arange
    (("kernel", "--gamma", "1", "--theta", "2", "--k", "inf", "--l", "0.5"),
     "k=inf is not a half-integer"),
    (("kernel", "--gamma", "1", "--theta", "2", "--k", "nan", "--l", "0.5"),
     "k=nan is not a half-integer"),
    (("cdf", "--gamma", "1", "--theta", "2", "--ell-range", "0:1e12"),
     "--ell-range"),
    # a 64 GiB coefficient band
    (("cdf", "--gamma", "1", "--theta", "1e9", "--ell-range", "0:3"),
     "theta=1000000000.0"),
    # said "could not convert string to float: ''" or named no flag
    (("converge",) + G + ("--thetas", "20,,40"), "--thetas"),
    (("converge",) + G + ("--thetas", "20", "--power", "x"), "--power"),
    (("converge",) + G + ("--thetas", "20", "--power", "0"), "--power"),
    (("kernel", "--gamma", "1", "--theta", "2", "--k", "0.5", "--l", "inf"),
     "--l=inf is not a half-integer"),
    (("sample",) + G + ("--theta", "40", "-n", "0"),
     "-n: n_samples must be a positive integer"),
    (("unitary-mc",) + G + ("--theta", "10.9", "--ell", "0"),
     "--ell: ell must be a positive integer"),
])
def test_malformed_or_empty_grid_is_config_error(capsys, argv, flag):
    # these truncated, replaced a zero step, printed a bare header, or ran
    # out of memory or time
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("config error") and flag in err


def test_cdf_table_needing_a_window_past_512_sites_runs(capsys):
    # the certified window ends some 650 sites up; a window capped at 512
    # sites above the top row once refused this table (exit 3)
    code, out, err = run(capsys, "cdf", "--gamma", "1", "--theta", "300",
                         "--ell-range", "0:100")
    assert code == 0 and err == ""
    rows = np.array([line.split(",") for line in out.splitlines()[1:]],
                    dtype=float)
    assert rows[:, 0].tolist() == list(range(101))
    assert np.all((rows[:, 1] >= 0.0) & (rows[:, 1] <= 1e-12))


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


def test_density_of_large_weights_meets_the_roundoff_scaled_gate(tmp_path, capsys):
    # D's amplitude is 2e4 + 1.2, so its roundoff exceeds an absolute 1e-12
    # residual gate: this exited 3 with "boundary residual 1.736e-12"
    out = tmp_path / "density.csv"
    code, _, _ = run(capsys, "density", "--gamma", "1e4,-0.3", "--xmin", "-1",
                     "--xmax", "1", "--steps", "50", "--out", str(out))
    assert code == 0
    _, rows = read_csv(str(out))
    assert len(rows) == 50 and np.all(np.isfinite(rows))


def test_density_of_tiny_weights(capsys):
    # the sea {2e-300 cos phi >= x}: a unit floor on the touch tolerance
    # put every level at the critical values and printed rho 1.0, 1.0, 0.0
    code, out, _ = run(capsys, "density", "--gamma", "1e-300", "--xmin", "-1e-300",
                       "--xmax", "1e-300", "--steps", "3")
    assert code == 0
    rho = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
    assert rho == pytest.approx([2.0 / 3.0, 0.5, 1.0 / 3.0], abs=1e-15)


@pytest.mark.parametrize("gamma,m,n_cuts", [
    ("1e-300", 1, 1),  # 0 and pi both passed as maximizers: exit 3
    ("1e-6,-3e-7", 1, 2),  # the sea at b - 1e-6 was empty: one cut
])
def test_analyze_small_weights(capsys, gamma, m, n_cuts):
    code, out, _ = run(capsys, "analyze", "--gamma", gamma)
    assert code == 0
    report = json.loads(out)
    assert [mx["m"] for mx in report["maximizers"]] == [m]
    assert report["n_cuts"] == n_cuts


def _rescaled_outputs(capsys, k):
    """Outputs for the weights 2^k (1, -1/3) at the couplings 2^-k theta."""
    s = 2.0 ** k
    gamma = ("--gamma", ",".join(repr(s * g) for g in (1.0, -1.0 / 3.0)))
    theta = lambda t: repr(t / s)
    outs = []
    code, out, _ = run(capsys, "converge", *gamma,
                       "--thetas", ",".join(theta(t) for t in (20.0, 40.0, 80.0)))
    outs.append((code, list(json.loads(out)["sup_distance"].values())))
    for t, ells in ((40.0, "50:90"), (2.0, "1:9")):
        outs.append(run(capsys, "cdf", *gamma, "--theta", theta(t), "--ell-range", ells))
    code, out, _ = run(capsys, "sample", *gamma, "--theta", theta(40.0),
                       "-n", "200", "--seed", "7")
    report = json.loads(out)
    outs.append((code, report["ks_exact"], report["ks_limit"], report["scale"]))
    code, out, _ = run(capsys, "analyze", *gamma)
    outs.append((code, json.loads(out)["n_cuts"]))
    return outs


def test_commands_are_exact_under_power_of_two_rescaling(capsys):
    # (2^k gamma, 2^-k theta) is the same model, and every step of these
    # commands is exact under the rescaling.  At k = -20 converge compared
    # against F_3 (one cut counted), and from k = -30 down every command
    # exited 3 (SolverFailure)
    want = _rescaled_outputs(capsys, 0)
    assert want[-1] == (0, 2)
    for k in (-20, -60):
        assert _rescaled_outputs(capsys, k) == want, k


def test_converge_at_large_coupling_builds_its_band(capsys):
    # the band's imaginary FFT residue, 1.3e-13 here, was held to an
    # absolute 1e-13 and refused (exit 3)
    code, out, err = run(capsys, "converge", "--gamma", "1", "--thetas", "2.5e4")
    assert code == 0 and err == ""
    assert json.loads(out)["sup_distance"]["25000.0"] < 0.01


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

    airy_mod._shipped_laws.cache_clear()
    assert run(capsys, *argv)[0] == 0
    info = airy_mod._shipped_laws.cache_info()
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


def test_unitary_mc_dip_ratio_is_the_larger_mirror_dip(tmp_path, capsys):
    out = tmp_path / "hist.csv"
    code, stdout, _ = run(capsys, "unitary-mc", "--gamma", "1,-0.3333333333",
                          "--theta", "10.9", "--ell", "24", "--sweeps", "200",
                          "--seed", "3", "--out", str(out))
    assert code == 0
    header, rows = read_csv(str(out))
    assert header == ["alpha", "density"]
    centers, hist = np.array(rows).T
    zero = math.pi - math.acos(3.0 / 8.0)
    dip = max(hist[np.argmin(np.abs(centers - zero))],
              hist[np.argmin(np.abs(centers + zero))])
    assert json.loads(stdout)["dip_ratio"] == dip / hist[np.argmin(np.abs(centers))]


def test_unitary_mc_one_cut_dip_ratio_is_null(capsys):
    # it printed NaN, which strict JSON readers refuse
    code, out, _ = run(capsys, "unitary-mc", "--gamma", "1,0.1", "--theta",
                       "5.0", "--ell", "6", "--sweeps", "50")
    assert code == 0
    assert '"dip_ratio": null' in out
    assert json.loads(out)["dip_ratio"] is None


def test_unitary_mc_seed_wraps_modulo_2_64(capsys):
    # seeds past the 64-bit range exited 1 with an OverflowError traceback
    argv = ("unitary-mc", "--gamma", "1,-0.3333333333", "--theta", "5.0",
            "--ell", "4", "--sweeps", "30")
    lines = {}
    for seed in (0, 2 ** 64, -1, 2 ** 64 - 1, -2 ** 63 - 1, 2 ** 63 - 1):
        code, out, _ = run(capsys, *argv, f"--seed={seed}")
        assert code == 0, seed
        lines[seed] = out
    assert lines[0] == lines[2 ** 64]
    assert lines[-1] == lines[2 ** 64 - 1]
    assert lines[-2 ** 63 - 1] == lines[2 ** 63 - 1]
    assert lines[0] != lines[-1]


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
    # the model is checked where it is built: these reached the check only
    # through a library call, and D's amplitude 2e308 printed nan in density
    # and a SolverFailure (exit 3) in analyze
    (("kernel", "--gamma", "1", "--theta", "-1", "--k", "0.5", "--l", "0.5"),
     "theta must be a nonnegative real"),
    (("kernel-profile", "--gamma", "1", "--theta", "nan", "--window", "0:4"),
     "theta must be a nonnegative real"),
    (("oracle", "cdf", "--gamma", "1", "--theta", "-1", "--ell", "2"),
     "theta must be a nonnegative real"),
    (("cdf", "--gamma", "1", "--theta", "inf", "--ell-range", "0:3"),
     "theta must be a nonnegative real"),
    (("density", "--gamma", "1e308", "--xmin", "0", "--xmax", "1", "--steps", "3"),
     "hopping weights must be finite"),
    (("analyze", "--gamma", "1e308"), "hopping weights must be finite"),
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
    env = cli_env()
    proc = subprocess.run([sys.executable, "-m", "splitsea", "analyze",
                           "--gamma", "1,-0.3333333333"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["n_cuts"] == 2


def test_cli_import_leaves_scipy_optimize_out():
    # importing scipy.optimize cost a third of the CLI's start-up CPU, for
    # one root solver that the Fermi-sea code now has built in
    env = cli_env()
    probe = ("import sys, splitsea.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_concurrent_futures_out():
    # every command runs on one thread; the pool's import cost about 4 ms
    env = cli_env()
    probe = "import sys, splitsea.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_table_building_commands_load_no_scipy():
    # importing scipy.linalg for one Cholesky factor cost 0.3 s of CPU in
    # every command that builds a determinant table
    env = cli_env()
    gamma = ["--gamma", "1,-0.3333333333"]
    runs = [["cdf", *gamma, "--theta", "2", "--ell-range", "0:12"],
            ["cdf", *gamma, "--theta", "10", "--ell-range", "0:40"],
            ["converge", *gamma, "--thetas", "20"],
            ["sample", *gamma, "--theta", "40", "-n", "20"]]
    probe = ("import contextlib, io, sys, splitsea.cli\n"
             f"for argv in {runs!r}:\n"
             "    with contextlib.redirect_stdout(io.StringIO()):\n"
             "        assert splitsea.cli.main(argv) == 0, argv\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cold_limit_law_commands_build_no_law_table():
    # the law blocks ship with the package, which holds no law-table
    # builder: fresh converge and sample processes read them and run no
    # Airy contour evaluation, and importing the CLI alone does not read
    # the law file
    env = cli_env()
    gamma = ["--gamma", "1,-0.3333333333"]
    runs = [["converge", *gamma, "--thetas", "20,40"],
            ["sample", *gamma, "--theta", "40", "-n", "20"]]
    probe = (
        "import contextlib, io, sys\n"
        "opened = []\n"
        "def hook(event, args):\n"
        "    if event == 'open' and str(args[0]).endswith('law_blocks.npz'):\n"
        "        opened.append(event)\n"
        "sys.addaudithook(hook)\n"
        "import splitsea.cli, splitsea.airy as airy\n"
        "print(len(opened))\n"
        "assert not hasattr(airy, '_law_table')\n"
        "calls = []\n"
        "real = airy.airy_values\n"
        "airy.airy_values = lambda *a: calls.append(a) or real(*a)\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert splitsea.cli.main(argv) == 0, argv\n"
        "print(len(opened), calls)\n")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["0", "1 []"]


def test_uncertified_airy_order_exits_3_without_numpy_warnings():
    # m = 5 overflowed the contour integrand before the quadrature gave up
    env = cli_env()
    proc = subprocess.run([sys.executable, "-m", "splitsea", "airy", "--m", "5",
                           "--s", "0:1"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("NoConvergence:")
    assert "RuntimeWarning" not in proc.stderr


def test_kernel_oracle_gives_up_in_bounded_memory():
    # at theta = 150 the contour sums cancel and never meet QUAD_TOL; the
    # node doubling built 1 GiB Cauchy blocks and died with MemoryError
    env = cli_env(OPENBLAS_NUM_THREADS="1")
    cap = 3 * 2 ** 29  # bytes of address space

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    proc = subprocess.run([sys.executable, "-m", "splitsea", "kernel", "--gamma",
                           "1", "--theta", "150", "--k", "0.5", "--l", "1.5"],
                          capture_output=True, text=True, env=env, timeout=300,
                          preexec_fn=limit)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("NoConvergence:")


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


@pytest.mark.parametrize("argv,target", [
    (["cdf", "--gamma", "1", "--theta", "5", "--ell-range", "0:3", "--out"], ""),
    (["converge", "--gamma", "1,-0.3333333333", "--thetas", "20", "--out"],
     "missing/c.csv"),
    (["figures", "--gamma2", "0.1", "--out-dir"], "a-file"),
])
def test_unwritable_output_path_is_config_error(tmp_path, capsys, argv, target):
    # a directory, a file under a missing directory, and an existing file
    # as the output directory: each used to end in a traceback
    (tmp_path / "a-file").write_text("")
    path = str(tmp_path / target) if target else str(tmp_path)
    code, out, err = run(capsys, *argv, path)
    assert code == 2 and out == ""
    assert err.startswith("config error:") and path in err


# m = 1 at 0 ties with m = 2 at pi/2: the edge law is no power of one F_{2m+1}
MIXED_ORDERS = "0.3125,-0.125,0.0520833333333333,-0.015625,0.00625"


@pytest.mark.parametrize("argv", [
    ["converge", "--thetas", "80"],
    ["sample", "--theta", "40", "-n", "200"],
])
def test_mixed_order_edge_refuses_its_limit_law(capsys, argv):
    code, out, err = run(capsys, *argv, "--gamma", MIXED_ORDERS)
    assert code == 3 and out == ""
    assert err.startswith("UnsupportedEdge:") and "[1, 2]" in err


def test_mixed_order_edge_still_has_a_profile_and_a_table(capsys):
    code, out, _ = run(capsys, "analyze", "--gamma", MIXED_ORDERS)
    assert code == 0
    assert sorted(mx["m"] for mx in json.loads(out)["maximizers"]) == [1, 2, 2]
    code, _, _ = run(capsys, "cdf", "--gamma", MIXED_ORDERS, "--theta", "40",
                     "--ell-range", "10:12")
    assert code == 0


def test_converge_starts_no_thread(monkeypatch, capsys):
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self) or start(self))
    code, _, _ = run(capsys, "converge", "--gamma", "1,-0.3333333333",
                     "--thetas", "10,12", "--threads", "2")
    assert code == 0 and started == []


def test_threads_flag_changes_no_output(tmp_path, capsys):
    outputs = []
    for flags in ([], ["--threads", "1"], ["--threads", "2"]):
        csv = tmp_path / f"c{len(outputs)}.csv"
        code, out, _ = run(capsys, "converge", "--gamma", "1,-0.3333333333",
                           "--thetas", "10,12", "--out", str(csv), *flags)
        assert code == 0
        outputs.append((out, csv.read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma=1,-0.3333333333\ntheta=0.5\nk=0.5\nl=0.5\n")
    code, out, _ = run(capsys, "--config", str(cfg), "kernel")
    assert code == 0
    base = json.loads(out)["value"]
    code, out, _ = run(capsys, "--config", str(cfg), "kernel", "--l", "1.5")
    assert code == 0
    assert json.loads(out)["value"] != base


def numpy_openblas():
    """Thread-count getter and setter of the OpenBLAS bundled with numpy,
    found in this process's map; skips where there is none."""
    try:
        with open("/proc/self/maps") as fh:
            mapped = set(fh.read().split())
    except OSError:
        pytest.skip("no /proc/self/maps")
    libs = sorted(path for path in mapped if "openblas" in path
                  and path.startswith(os.path.dirname(np.__file__) + ".libs"))
    if not libs:
        pytest.skip("numpy bundles no OpenBLAS")
    lib = ctypes.CDLL(libs[0])
    name = next(n for n in cli.OPENBLAS_SETTERS if hasattr(lib, n))
    setter, getter = getattr(lib, name), getattr(lib, name.replace("_set_", "_get_"))
    setter.argtypes, setter.restype = [ctypes.c_int], None
    getter.argtypes, getter.restype = [], ctypes.c_int
    return getter, setter


@pytest.fixture()
def fresh_pin(monkeypatch):
    # the pin is cached per process: clear it, and the user's BLAS thread
    # variables, so that main decides again; cleared again afterwards so
    # the next main pins as a fresh process would
    for name in cli.BLAS_THREAD_ENV:
        monkeypatch.delenv(name, raising=False)
    cli.pin_blas_threads.cache_clear()
    yield
    cli.pin_blas_threads.cache_clear()


def test_main_runs_numpy_blas_on_one_thread(capsys, fresh_pin):
    get, set_threads = numpy_openblas()
    set_threads(2)  # undone by the pin, where the machine has two cores
    code, _, _ = run(capsys, "analyze", "--gamma", "1,-0.3333333333")
    assert code == 0 and get() == 1


@pytest.mark.parametrize("name", cli.BLAS_THREAD_ENV)
def test_blas_thread_variable_leaves_the_pin_off(capsys, fresh_pin, monkeypatch, name):
    get, set_threads = numpy_openblas()
    set_threads(2)
    before = get()
    monkeypatch.setenv(name, "2")
    try:
        code, _, _ = run(capsys, "analyze", "--gamma", "1,-0.3333333333")
        assert code == 0 and get() == before
        assert cli.pin_blas_threads() == ()
    finally:
        set_threads(1)


@pytest.mark.parametrize("found", [
    (),
    ("/nonexistent/libopenblas.so",),
    (_ctypes.__file__,),  # loads, and neither it nor its needs export a setter
])
def test_main_without_openblas_exits_0(capsys, fresh_pin, monkeypatch, found):
    monkeypatch.setattr(cli, "_openblas_paths", lambda: found)
    code, out, _ = run(capsys, "analyze", "--gamma", "1,-0.3333333333")
    assert code == 0 and json.loads(out)["n_cuts"] == 2
    assert cli.pin_blas_threads() == ()


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # eigh and the window factorizations sum in another order on two
    # threads; at the README couplings the outputs still agree to the bit
    # (at theta = 640 converge differs in the last bits)
    gamma = ["--gamma", "1,-0.3333333333"]
    runs = [["sample", *gamma, "--theta", "40", "-n", "2000", "--seed", "7",
             "--out", "kmax.csv"],
            ["converge", *gamma, "--thetas", "20,40,80", "--out", "converge.csv"]]
    pinned = {k: v for k, v in cli_env().items() if k not in cli.BLAS_THREAD_ENV}
    outputs = []
    for env in (pinned, cli_env(OPENBLAS_NUM_THREADS="2")):
        work = tmp_path / str(len(outputs))
        work.mkdir()
        texts = []
        for argv in runs:
            proc = subprocess.run([sys.executable, "-m", "splitsea", *argv],
                                  capture_output=True, text=True, env=env,
                                  cwd=work, timeout=300)
            assert proc.returncode == 0, proc.stderr
            texts += [proc.stdout, (work / argv[-1]).read_text()]
        outputs.append(texts)
    assert outputs[0] == outputs[1]
