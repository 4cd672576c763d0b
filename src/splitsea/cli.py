"""Command line interface: desk-scale studies behind one ``splitsea`` binary.

Conventions: CSV cells are written with ``str``, which for floats is the
shortest repr that round-trips, so re-reading them reproduces values bit for
bit; ``--json`` summaries go to stdout; exit code 2 flags configuration
errors, 3 numerical failures (the failing error class name is printed on
stderr); a path that cannot be written or created is a configuration error
too.  ``--out`` takes the CSV table (stdout without it), or for converge,
sample and unitary-mc an extra CSV (none without it).  A flat key=value
config file can seed any long option, explicit flags win, and a line that is
not blank, a ``#`` comment or key=value is a configuration error.  Only cdf,
converge, sample and unitary-mc take ``--threads``, and ignore it: every
command, and its BLAS, runs on one thread (``main`` pins numpy's OpenBLAS
once per process unless OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or
OMP_NUM_THREADS sets its count).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import sys
from functools import lru_cache

import numpy as np

from . import airy as airy_mod
from . import edge as edge_mod
from . import kernel as kernel_mod
from . import sampler as sampler_mod
from . import unitary as unitary_mod
from .schur import brute_cdf_first_part, total_weight
from .errors import SplitSeaError
from .potential import (HoppingCoefficients, edge_profile, eval_dispersion,
                        global_extrema, limit_density, limit_shape)
from .svgplot import Panel, render_panels

# desk-scale bounds on the size flags, checked before anything is allocated
GRID_POINTS = 10_000  # rows of `airy --s`, `--steps`, `--bins`, `--window`
SAMPLE_DRAWS = 100_000  # `sample -n`: 4 s and 100 MiB at theta = 40
CHAIN_ELL = 1_000  # `unitary-mc --ell`: an ell x ell block per sweep
CHAIN_ANGLES = 10_000_000  # `unitary-mc --sweeps` times `--ell`, kept angles
# `unitary-mc --sweeps` times `--ell` squared, the pair terms a run scores:
# the README's 1.15e8 take 26 s of CPU, 1e10 about 8 minutes
CHAIN_PAIRS = 200_000_000
ORACLE_CAP = 30  # `oracle --cap`: 4 s of Schur sums; 35 takes 10 s
# `oracle --theta`, through the Schur measure's mean size theta^2 sum r gamma_r^2:
# its weights carry e^{-mean}, which underflows to 0 near 745
ORACLE_MEAN_SIZE = 700.0
# any of these set by the user leaves the BLAS thread count to the library
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# thread-count setters, in the order tried: numpy's bundled ILP64 build,
# a plain ILP64 build, a plain LP64 build
OPENBLAS_SETTERS = ("scipy_openblas_set_num_threads64_",
                    "openblas_set_num_threads64_", "openblas_set_num_threads")


def _parse_gammas(text):
    try:
        vals = tuple(float(v) for v in text.split(",") if v.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad gamma list {text!r}") from exc
    if not vals:
        raise argparse.ArgumentTypeError("empty gamma list")
    return vals


def _parse_range(flag, text, noun, step=None):
    """(lo, hi, step) of ``flag``'s value lo:hi, or lo:hi:step when a default
    ``step`` is given.

    Anything else, a step that is not positive or hi < lo (an empty grid) is
    a config error naming the flag.
    """
    try:
        vals = [float(v) for v in text.split(":")]
    except ValueError:
        vals = []
    if len(vals) not in ((2, 3) if step else (2,)) \
            or not all(map(math.isfinite, vals)):
        form = "lo:hi[:step]" if step else "lo:hi"
        raise ValueError(f"{flag} takes finite {form}, got {text!r}")
    if len(vals) == 3 and not vals[2] > 0.0:
        raise ValueError(f"{flag} step must be positive, got {text!r}")
    if vals[1] < vals[0]:
        raise ValueError(f"empty {noun} range {text} in {flag}")
    return vals[0], vals[1], vals[2] if len(vals) == 3 else step


def _desk_size(flag, value, bound, noun, least=None):
    """``value`` of ``flag``, counting ``noun``; a config error naming the
    flag above its desk-scale ``bound`` or, if given, below ``least``."""
    if least is not None and value < least:
        raise ValueError(f"{flag} must be at least {least}, got {value}")
    if value > bound:
        raise ValueError(f"{flag} asks for {value:.6g} {noun}, more than {bound}")
    return value


def _check_writable(*paths):
    """Raise now the OSError that writing any of ``paths`` would raise after
    the computation.  Each file is left as it was: an existing one is not
    truncated, and a new one is removed again."""
    for path in filter(None, paths):
        existed = os.path.lexists(path)
        os.close(os.open(path, os.O_WRONLY | os.O_CREAT))
        if not existed:
            os.remove(path)


def _write_lines(lines, out=None):
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_out(rows, header, out=None):
    _write_lines([",".join(header)] + [",".join(map(str, row)) for row in rows], out)


def _float_cells(values):
    """``str`` of each float in ``values``, each distinct value formatted
    once: a lattice CDF repeats its rows.  Zeros are formatted each time,
    because 0.0 == -0.0."""
    memo = {}
    cells = []
    for v in values:
        cell = memo.get(v)
        if cell is None:
            cell = str(v)
            if v:
                memo[v] = cell
        cells.append(cell)
    return cells


def _openblas_paths():
    """Paths of the OpenBLAS libraries mapped into this process, sorted;
    empty where ``/proc/self/maps`` cannot be read (not Linux)."""
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return ()
    return tuple(sorted({f[5].rstrip("\n") for f in fields if len(f) == 6
                         and "openblas" in os.path.basename(f[5]).lower()}))


@lru_cache(maxsize=1)
def pin_blas_threads():
    """Run every loaded OpenBLAS on one thread; the paths pinned.

    With the default count numpy's OpenBLAS splits ``eigh`` of an 84-site
    window over both cores of a 2-core machine, and its worker then spins
    through the rest of the command: half of ``sample``'s CPU.  Nothing is
    pinned when the user set one of BLAS_THREAD_ENV or no library exports a
    setter.  Cached: reading the process map costs about 0.5 ms, which a
    per-call lookup would add to every ``main``.
    """
    if any(os.environ.get(name) for name in BLAS_THREAD_ENV):
        return ()
    pinned = []
    for path in _openblas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        setter = next((getattr(lib, name) for name in OPENBLAS_SETTERS
                       if hasattr(lib, name)), None)
        if setter is None:
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)
        pinned.append(path)
    return tuple(pinned)


def _pool_map(fn, items, threads):
    """``fn`` of each item in order, on the calling thread; ``threads`` is
    ignored.

    Kept, under this name and with three parameters, only because the
    benchmark's tracer wraps this function by name and calls it so.
    """
    return [fn(item) for item in items]


def _cmd_analyze(args):
    coeffs = HoppingCoefficients(args.gamma)
    profile = edge_profile(coeffs)
    report = {
        "b": profile.b,
        "b_tilde": profile.b_tilde,
        "maximizers": [{"chi_b": mx.chi_b, "m": mx.m, "d": mx.d}
                       for mx in profile.maximizers],
        "n_cuts": profile.n_cuts,
    }
    print(json.dumps(report, indent=2 if args.json else None))
    return 0


def _cmd_density(args):
    coeffs = HoppingCoefficients(args.gamma)
    for flag, x in (("--xmin", args.xmin), ("--xmax", args.xmax),
                    ("--xmax - --xmin", args.xmax - args.xmin)):  # also the span
        if not math.isfinite(x):
            raise ValueError(f"{flag} must be finite, got {x!r}")
    xs = np.linspace(args.xmin, args.xmax,
                     _desk_size("--steps", args.steps, GRID_POINTS, "points", 1))
    rows = [(float(x), limit_density(coeffs, x), limit_shape(coeffs, x))
            for x in xs]
    _csv_out(rows, ["x", "rho", "Omega"], args.out)
    return 0


def _cmd_kernel(args):
    for flag, site in (("--k", args.k), ("--l", args.l)):
        kernel_mod._half_ints(site, flag)
    coeffs = HoppingCoefficients(args.gamma, theta=args.theta)
    band = kernel_mod.coefficient_band(coeffs)
    value = kernel_mod.kernel_eval(band, args.k, args.l)
    oracle = kernel_mod.kernel_eval_quadrature(coeffs, args.k, args.l)
    print(json.dumps({"value": value, "oracle_value": oracle,
                      "diff": value - oracle}))
    return 0


def _cmd_kernel_profile(args):
    coeffs = HoppingCoefficients(args.gamma, theta=args.theta)
    band = kernel_mod.coefficient_band(coeffs)
    lo, hi, _ = _parse_range("--window", args.window, "site")
    first, last = math.ceil(lo - 0.5), math.floor(hi - 0.5)
    if last < first:
        raise ValueError(f"--window {args.window} holds no half-integer site")
    _desk_size("--window", last - first + 1, GRID_POINTS, "sites")
    ks = np.arange(first, last + 1) + 0.5
    diag = kernel_mod.kernel_eval(band, ks, ks)
    _csv_out(zip(ks.tolist(), diag.tolist()), ["k", "Kkk"], args.out)
    return 0


def _cmd_oracle(args):
    _desk_size("--cap", args.cap, ORACLE_CAP, "as the largest partition size", 0)
    coeffs = HoppingCoefficients(args.gamma, theta=args.theta)
    try:
        mean = coeffs.szego_constant()
    except OverflowError:  # (theta gamma_r)^2 past the largest float
        mean = math.inf
    _desk_size("--theta", mean, ORACLE_MEAN_SIZE, "as the Schur measure's "
               "mean size theta^2 sum r gamma_r^2 of --gamma")
    value = brute_cdf_first_part(coeffs, args.ell, args.cap)
    residual = 1.0 - total_weight(coeffs, args.cap)
    print(json.dumps({"value": value, "cap": args.cap,
                      "residual_bound": residual}))
    return 0


def _cmd_airy(args):
    for flag, value in (("--m", args.m), ("--power", args.power)):
        if value < 1:  # the law's own refusal, under the flag's name
            raise ValueError(f"{flag} must be a positive integer, got {value}")
    lo, hi, step = _parse_range("--s", args.s, "s", step=0.1)
    _desk_size("--s", (hi - lo) / step + 1.0, GRID_POINTS, "points")
    ss = np.arange(lo, hi + 0.5 * step, step)
    rows = list(zip(ss.tolist(),
                    airy_mod.limiting_cdf(args.m, args.power, ss).tolist()))
    _csv_out(rows, ["s", "F"], args.out)
    return 0


def _cmd_cdf(args):
    coeffs = HoppingCoefficients(args.gamma, theta=args.theta)
    lo, hi, _ = _parse_range("--ell-range", args.ell_range, "ell")
    if lo != int(lo) or hi != int(hi):
        raise ValueError(f"--ell-range takes integers, got {args.ell_range!r}")
    # past 2^53 a float skips integers
    _desk_size("--ell-range", max(-lo, hi), 2 ** 53, "as its largest |end|")
    _desk_size("--ell-range", hi - lo + 1, GRID_POINTS, "rows")
    ells = np.arange(int(lo), int(hi) + 1)
    p = edge_mod.exact_cdf(coeffs, ells)
    s = edge_profile(coeffs).s_of(ells, coeffs.theta)
    _csv_out(zip(ells.tolist(), p.tolist(), s.tolist()), ["ell", "p", "s"],
             args.out)
    return 0


def _cmd_converge(args):
    try:
        thetas = [float(t) for t in args.thetas.split(",")]
    except ValueError:
        raise ValueError(f"--thetas takes comma-separated couplings, "
                         f"got {args.thetas!r}") from None
    if len(set(thetas)) < len(thetas):
        raise ValueError(f"--thetas repeats a coupling: {args.thetas!r}")
    _check_writable(args.out, args.svg)
    profile = edge_profile(HoppingCoefficients(args.gamma))
    try:
        power = profile.n_cuts if args.power == "auto" else int(args.power)
    except ValueError:
        power = 0
    if power < 1:
        raise ValueError(f"--power takes auto or an integer >= 1, "
                         f"got {args.power!r}")
    reports = _pool_map(lambda theta: edge_mod.scaled_convergence_study(
        args.gamma, [theta], n_cuts=power)[0], thetas, args.threads)
    summary = {str(r["theta"]): r["sup_distance"] for r in reports}
    s_grid = reports[0]["s"]
    if args.out:
        # the cells that ",".join(map(str, row)) gives, each formatted once
        s_cells = [str(s) for s in s_grid.tolist()]
        lines = ["theta,s,cdf"]
        for r in reports:
            theta = str(r["theta"])
            lines += [f"{theta},{s},{p}" for s, p in
                      zip(s_cells, _float_cells(r["cdf"].tolist()))]
        _write_lines(lines, args.out)
    if args.svg:
        panel = Panel(title=f"scaled edge CDFs vs limit (power {power})")
        for r in reports:
            panel.add(s_grid, r["cdf"], label=f"theta={r['theta']:g}")
        panel.add(s_grid, reports[0]["limit"], label="limit")
        render_panels([panel], args.svg)
    print(json.dumps({"sup_distance": summary}))
    return 0


def _cmd_sample(args):
    if args.n < 1:  # the sampler's own message, under the flag's name
        raise ValueError(f"-n: n_samples must be a positive integer, got {args.n}")
    _desk_size("-n", args.n, SAMPLE_DRAWS, "draws")
    _check_writable(args.out)
    coeffs = HoppingCoefficients(args.gamma, theta=args.theta)
    scale = edge_profile(coeffs).scale(coeffs.theta)
    report = sampler_mod.empirical_edge_law(coeffs, args.n, args.seed)
    if args.out:
        _csv_out([(float(k),) for k in report.k_max], ["k_max"], args.out)
    print(json.dumps({"ks_exact": report.ks_exact, "ks_limit": report.ks_limit,
                      "n": args.n, "seed": args.seed, "scale": scale}))
    return 0


def _cmd_unitary_density(args):
    alphas = np.linspace(-math.pi, math.pi,
                         _desk_size("--steps", args.steps, GRID_POINTS, "points", 1))
    rho = unitary_mod.eigen_density_supercritical(args.gamma, args.x, alphas)
    _csv_out(list(zip(map(float, alphas), map(float, rho))),
             ["alpha", "rho"], args.out)
    return 0


def _cmd_unitary_mc(args):
    _desk_size("--bins", args.bins, GRID_POINTS, "bins", 1)
    if args.ell < 1:  # the chain's own message, under the flag's name
        raise ValueError(f"--ell: ell must be a positive integer, got {args.ell}")
    _desk_size("--ell", args.ell, CHAIN_ELL, "angles")
    _desk_size("--sweeps", args.sweeps * args.ell, CHAIN_ANGLES,
               "angles (sweeps times ell)")
    _desk_size("--sweeps", args.sweeps * args.ell ** 2, CHAIN_PAIRS,
               "pair terms (sweeps times ell squared)")
    _check_writable(args.out)
    res = unitary_mod.metropolis_chain(args.gamma, args.theta, args.ell,
                                       args.sweeps, args.seed)
    hist, edges = unitary_mod.angle_histogram(res.samples, bins=args.bins)
    centers = 0.5 * (edges[1:] + edges[:-1])
    if args.out:
        _csv_out(list(zip(map(float, centers), map(float, hist))),
                 ["alpha", "density"], args.out)
    # the larger of the two mirror dips at pi -+ chi_b over the middle bin,
    # as criterion 10 reads it; null for a one-cut sea or an empty middle
    profile = edge_profile(HoppingCoefficients(args.gamma))
    dip_ratio = None
    interior = [mx for mx in profile.maximizers if mx.interior]
    mid = hist[np.argmin(np.abs(centers))]
    if interior and mid > 0:
        zero = math.pi - interior[0].chi_b
        dip = max(hist[np.argmin(np.abs(centers - zero))],
                  hist[np.argmin(np.abs(centers + zero))])
        dip_ratio = float(dip / mid)
    print(json.dumps({"acceptance_rate": res.acceptance_rate,
                      "dip_ratio": dip_ratio,
                      "proposal_sigma": res.proposal_sigma}, allow_nan=False))
    return 0


def _cmd_figures(args):
    gam = (1.0, args.gamma2)
    coeffs = HoppingCoefficients(gam)
    b, b_tilde = global_extrema(coeffs)
    outdir = args.out_dir
    if not outdir:
        raise ValueError("--out-dir needs a path")
    os.makedirs(outdir, exist_ok=True)
    tag = f"g2_{args.gamma2:+.4f}".replace("+", "p").replace("-", "m").replace(".", "_")

    phis = np.linspace(-math.pi, math.pi, 601)
    d_rows = list(zip(map(float, phis), map(float, eval_dispersion(coeffs, phis))))
    xs = np.linspace(-b_tilde - 0.4, b + 0.4, 401)
    rho_rows = [(float(x), limit_density(coeffs, float(x))) for x in xs]
    alphas = np.linspace(-math.pi, math.pi, 601)
    ev = unitary_mod.eigen_density_supercritical(gam, b, alphas)
    ev_rows = list(zip(map(float, alphas), map(float, ev)))

    paths = [os.path.join(outdir, f"figure_{tag}_{name}.csv")
             for name in ("dispersion", "density", "eigendensity")]
    for rows, header, path in zip((d_rows, rho_rows, ev_rows),
                                  (["phi", "D"], ["x", "rho"], ["alpha", "rho"]), paths):
        _csv_out(rows, header, path)
    svg = os.path.join(outdir, f"figure_{tag}.svg")
    render_panels([
        Panel(title=f"dispersion, gamma2={args.gamma2:g}").add(
            *zip(*d_rows)),
        Panel(title="limit density").add(*zip(*rho_rows)),
        Panel(title="eigenvalue density at the critical coupling").add(
            *zip(*ev_rows)),
    ], svg)
    print(json.dumps({"csv": paths, "svg": svg}))
    return 0


def _add_common(sub, theta=False):
    sub.add_argument("--gamma", type=_parse_gammas, required=True,
                     help="comma-separated hopping weights gamma_1,gamma_2,...")
    if theta:
        sub.add_argument("--theta", type=float, required=True)


def build_parser():
    ap = argparse.ArgumentParser(prog="splitsea", description=__doc__)
    ap.add_argument("--config", help="flat key=value file seeding long options")
    sp = ap.add_subparsers(dest="command", required=True)

    s = sp.add_parser("analyze", help="edge profile and regime report")
    _add_common(s)
    s.add_argument("--json", action="store_true", help="pretty-print JSON")
    s.set_defaults(fn=_cmd_analyze)

    s = sp.add_parser("density", help="limit density and limit shape CSV")
    _add_common(s)
    s.add_argument("--xmin", type=float, required=True)
    s.add_argument("--xmax", type=float, required=True)
    s.add_argument("--steps", type=int, default=200)
    s.add_argument("--out", help="CSV of the x,rho,Omega table (default stdout)")
    s.set_defaults(fn=_cmd_density)

    s = sp.add_parser("kernel", help="one kernel entry vs its contour oracle")
    _add_common(s, theta=True)
    s.add_argument("--k", type=float, required=True)
    s.add_argument("--l", type=float, required=True)
    s.set_defaults(fn=_cmd_kernel)

    s = sp.add_parser("kernel-profile", help="kernel diagonal over a window")
    _add_common(s, theta=True)
    s.add_argument("--window", required=True, help="a:b site range")
    s.add_argument("--out", help="CSV of the k,Kkk table (default stdout)")
    s.set_defaults(fn=_cmd_kernel_profile)

    s = sp.add_parser("oracle", help="brute-force Schur-sum oracles")
    s.add_argument("what", choices=["cdf"])
    _add_common(s, theta=True)
    s.add_argument("--ell", type=int, required=True)
    s.add_argument("--cap", type=int, default=20)
    s.set_defaults(fn=_cmd_oracle)

    s = sp.add_parser("airy", help="limiting edge law F_{2m+1}^power on a grid")
    s.add_argument("--m", type=int, default=1)
    s.add_argument("--power", type=int, default=1)
    s.add_argument("--s", required=True, help="lo:hi[:step] grid of s values")
    s.add_argument("--out", help="CSV of the s,F table (default stdout)")
    s.set_defaults(fn=_cmd_airy)

    s = sp.add_parser("cdf", help="exact lattice CDF of the rightmost particle")
    _add_common(s, theta=True)
    s.add_argument("--ell-range", required=True, help="a:b inclusive")
    s.add_argument("--out", help="CSV of the ell,p,s table (default stdout)")
    s.set_defaults(fn=_cmd_cdf)

    s = sp.add_parser("converge", help="scaled CDF vs limiting law study")
    _add_common(s)
    s.add_argument("--thetas", required=True, help="comma separated couplings")
    s.add_argument("--power", default="auto")
    s.add_argument("--svg", default=None)
    s.add_argument("--out", help="CSV of every theta,s,cdf row (none without it)")
    s.set_defaults(fn=_cmd_converge)

    s = sp.add_parser("sample", help="determinantal sampling of k_max")
    _add_common(s, theta=True)
    s.add_argument("-n", type=int, default=1000)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", help="CSV of the drawn k_max (none without it)")
    s.set_defaults(fn=_cmd_sample)

    s = sp.add_parser("unitary-density", help="supercritical eigenvalue density")
    _add_common(s)
    s.add_argument("--x", type=float, required=True)
    s.add_argument("--steps", type=int, default=401)
    s.add_argument("--out", help="CSV of the alpha,rho table (default stdout)")
    s.set_defaults(fn=_cmd_unitary_density)

    s = sp.add_parser("unitary-mc", help="Metropolis chain over eigenvalue angles")
    _add_common(s, theta=True)
    s.add_argument("--ell", type=int, required=True)
    s.add_argument("--sweeps", type=int, default=20000)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--bins", type=int, default=64)
    s.add_argument("--out", help="CSV of the alpha,density histogram (none without it)")
    s.set_defaults(fn=_cmd_unitary_mc)

    s = sp.add_parser("figures", help="dispersion/density/eigen-density artifacts")
    s.add_argument("--gamma2", type=float, required=True)
    s.add_argument("--out-dir", default=".")
    s.set_defaults(fn=_cmd_figures)
    # accepted and ignored: the benchmark passes it to these four commands
    for name in ("cdf", "converge", "sample", "unitary-mc"):
        sp.choices[name].add_argument("--threads", type=int, help=argparse.SUPPRESS)
    return ap


@lru_cache(maxsize=1)
def _parser():
    """The parser, built once per process: ``parse_args`` leaves it as it was."""
    return build_parser()


def _apply_config(argv):
    """Inject key=value pairs from --config as defaults (flags override).

    Accepts both ``--config PATH`` and ``--config=PATH``.
    """
    idx = next((i for i, tok in enumerate(argv)
                if tok.partition("=")[0] == "--config"), None)
    if idx is None:
        return argv
    _, eq, path = argv[idx].partition("=")
    if not eq:
        path = argv[idx + 1] if idx + 1 < len(argv) else ""
    if not path:
        raise ValueError("--config needs a path")
    injected = []
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, val = line.partition("=")
            if not sep:
                raise ValueError(f"{path} line {number} is no key=value: {line!r}")
            flag = "--" + key.strip().replace("_", "-")
            if flag not in argv:
                injected += [flag, val.strip()]
    head = argv[:idx] + argv[idx + (1 if eq else 2):]
    if not head:
        return injected
    return head[:1] + injected + head[1:]


def _merge_negative_values(argv):
    """Join ``--flag -2:4`` or ``--flag -inf`` into ``--flag=...`` for argparse.

    A value is negative when a digit or ``.`` follows its dash, or ``inf`` or
    ``nan`` in any case (also where a range starts with them).
    """
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (tok.startswith("--") and "=" not in tok and nxt
                and nxt.startswith("-") and len(nxt) > 1
                and (nxt[1].isdigit() or nxt[1] == "."
                     or nxt[1:4].lower() in ("inf", "nan"))):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None):
    pin_blas_threads()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config(argv)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    argv = _merge_negative_values(argv)
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.fn(args)
    except SplitSeaError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:  # OSError: an output path
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
