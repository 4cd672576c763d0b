"""CLI: subcommands, artifacts, config handling, exit codes."""

import json
import math
import os

import numpy as np
import pytest

from splitsea.cli import main, read_csv


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


def test_cdf_command(capsys):
    code, out, _ = run(capsys, "cdf", "--gamma", "1,-0.3333333333",
                       "--theta", "2.0", "--ell-range", "1:8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "ell,p,s"
    ps = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(a <= b + 1e-12 for a, b in zip(ps, ps[1:]))


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
