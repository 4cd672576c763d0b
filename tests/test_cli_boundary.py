"""The CLI's input boundary: every value flag of every subcommand, fed bad
values in process, given on the command line or as a ``--config`` line.

Each invocation must exit 0, 2 or 3 with no exception escaping ``main``; an
exit-0 stdout must hold no NaN or infinity, and an exit-2 message must name
the flag.  Every other flag keeps a small value, and outputs land in the
test's own directory.
"""

import math
import re

import pytest

from splitsea import cli
from splitsea.cli import build_parser, main

G = ("--gamma", "1,-0.3333333333")

# one small run of each command; a flag's value is replaced one at a time
BASE = {
    "analyze": ["analyze", *G],
    "density": ["density", "--gamma", "1", "--xmin", "-1", "--xmax", "1",
                "--steps", "5", "--out", "d.csv"],
    "kernel": ["kernel", *G, "--theta", "0.5", "--k", "0.5", "--l", "1.5"],
    "kernel-profile": ["kernel-profile", "--gamma", "1", "--theta", "2",
                       "--window", "-3:3", "--out", "k.csv"],
    "oracle": ["oracle", "cdf", *G, "--theta", "0.5", "--ell", "3",
               "--cap", "8"],
    "airy": ["airy", "--m", "1", "--power", "2", "--s", "-1:0:0.5",
             "--out", "a.csv"],
    "cdf": ["cdf", *G, "--theta", "2.0", "--ell-range", "1:5", "--out",
            "c.csv", "--threads", "1"],
    "converge": ["converge", *G, "--thetas", "10,12", "--power", "auto",
                 "--svg", "c.svg", "--out", "c.csv", "--threads", "1"],
    "sample": ["sample", *G, "--theta", "4.0", "-n", "20", "--seed", "0",
               "--out", "s.csv", "--threads", "1"],
    "unitary-density": ["unitary-density", *G, "--x", "2.0", "--steps", "5",
                        "--out", "u.csv"],
    "unitary-mc": ["unitary-mc", *G, "--theta", "5.0", "--ell", "6",
                   "--sweeps", "20", "--seed", "0", "--bins", "8", "--out",
                   "m.csv", "--threads", "1"],
    "figures": ["figures", "--gamma2", "-0.3333333333", "--out-dir", "figs"],
}

BAD = ["nan", "inf", "-inf", "0", "-0", "-1", "1e9", "1e308", "1e-320", "",
       "abc", "3:1", "1:2:0"]

# each size flag's desk bound plus one, at the other flags of BASE
PAST_BOUND = {
    ("density", "--steps"): str(cli.GRID_POINTS + 1),
    ("unitary-density", "--steps"): str(cli.GRID_POINTS + 1),
    ("unitary-mc", "--bins"): str(cli.GRID_POINTS + 1),
    ("kernel-profile", "--window"): f"0:{cli.GRID_POINTS + 1}",
    ("airy", "--s"): f"0:{cli.GRID_POINTS // 10}",
    ("cdf", "--ell-range"): f"0:{cli.GRID_POINTS}",
    ("sample", "-n"): str(cli.SAMPLE_DRAWS + 1),
    ("unitary-mc", "--ell"): str(cli.CHAIN_ELL + 1),
    ("unitary-mc", "--sweeps"): str(cli.CHAIN_ANGLES // 6 + 1),
    ("oracle", "--cap"): str(cli.ORACLE_CAP + 1),
    # theta^2 (1 + 2/9) just past ORACLE_MEAN_SIZE
    ("oracle", "--theta"): str(math.ceil(math.sqrt(cli.ORACLE_MEAN_SIZE / (1 + 2 / 9)))),
    ("airy", "--m"): "4",  # the law file ships m = 1, 2 and 3
}

# a flag named by the parameter its value becomes, as in "theta=1e+308"
NAMED_AS = {"--thetas": "theta=", "--gamma2": "gamma="}

NON_FINITE = re.compile(r"(?<![\w/.])-?(nan|inf(inity)?)(?![\w/.])", re.I)


def value_flags(command):
    """The option strings of ``command``'s flags that take a value."""
    sub = next(a for a in build_parser()._actions
               if a.dest == "command").choices[command]
    return sorted(a.option_strings[-1] for a in sub._actions
                  if a.option_strings and a.nargs != 0)


def with_value(argv, flag, value):
    """``argv`` with ``flag``'s value replaced by ``value``."""
    i = argv.index(flag)
    return argv[:i + 1] + [value] + argv[i + 2:]


def check(argv, flag, capsys, config=None):
    """The faults of one invocation, as a list of strings."""
    try:
        code = main(argv)
    except (Exception, SystemExit) as exc:
        capsys.readouterr()
        return [f"{config or argv}: raised {type(exc).__name__}: {exc}"]
    out, err = capsys.readouterr()
    where = f"{config or argv} -> {code}"
    if code not in (0, 2, 3):
        return [f"{where}: exit code"]
    if code == 0 and NON_FINITE.search(out):
        return [f"{where}: non-finite stdout {out[:120]!r}"]
    named = NAMED_AS.get(flag, flag.lstrip("-") + "=")
    if code == 2 and flag not in err and named not in err:
        return [f"{where}: message does not name {flag}: {err.strip()[:160]!r}"]
    return []


@pytest.mark.parametrize("command", sorted(BASE))
def test_bad_flag_values_exit_cleanly_and_name_the_flag(monkeypatch, tmp_path,
                                                        capsys, command):
    monkeypatch.chdir(tmp_path)
    faults = []
    for flag in value_flags(command):
        values = BAD + [PAST_BOUND[command, flag]] \
            if (command, flag) in PAST_BOUND else BAD
        for value in values:
            faults += check(with_value(BASE[command], flag, value), flag,
                            capsys)
            if not flag.startswith("--"):
                continue  # a config line seeds long options only
            # the same value from a config line, the flag left off argv
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{flag.lstrip('-')}={value}\n")
            i = BASE[command].index(flag)
            argv = ["--config", str(cfg)] + BASE[command][:i] + BASE[command][i + 2:]
            faults += check(argv, flag, capsys, config=f"{command} {flag}={value!r} (config)")
    assert faults == []


def test_every_value_flag_is_swept():
    commands = next(a for a in build_parser()._actions
                    if a.dest == "command").choices
    assert sorted(BASE) == sorted(commands)
    for command, argv in BASE.items():
        assert set(value_flags(command)) <= set(argv)
    assert all(flag in value_flags(command) for command, flag in PAST_BOUND)
