"""Seeded inputs and output checks for the four benchmark workloads.

A workload turns its seed into CLI argument lists: a warm-up list holding the
first operation of each kind, then numbered decks.  The timed loop always runs
whole decks, so the mix of operation kinds (and, for ``cdf-sweep``, the mix of
exact-CDF routes) is the same in every run; only the exact inputs move with
the seed.  Inputs are generated here without importing splitsea, so one seed
gives the same inputs whatever the library does.

Checks run after an operation's timer stops.  They may call splitsea (the
Fredholm window, the Nystrom limit law with node doubling) but never the
brute-force ``schur`` oracle.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

TWO_CUT = "1,-0.3333333333"
ONE_CUT = "1,0.1"
MULTICRITICAL = "1,-0.125"

# Edge constants of the two-cut model, b = 41/24 and d = 55/24, used only to
# size the ell ranges of cdf-sweep so that every table runs past the edge.
TWO_CUT_B = 41.0 / 24.0
TWO_CUT_D = 55.0 / 24.0

CDF_TOL = 1e-9          # lattice CDF rows against the Fredholm window
LIMIT_TOL = 1e-8        # limit law against fredholm_F(check=True)
KS_ALPHA = 1e-6         # false-alarm level of the DKW bound on ks_exact
S_GRID = [-6.0 + 0.1 * i for i in range(101)]   # the converge s-grid


def _grid_index(s):
    return round((s - S_GRID[0]) / 0.1)


@dataclass(frozen=True)
class Op:
    """One CLI command: its kind, its argv and what its check needs."""

    kind: str
    argv: tuple
    params: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class Verdict:
    """Outcome of one check: ``wrong`` marks a completed command whose
    output is not the right answer (as opposed to a command that failed)."""

    ok: bool
    reason: str = ""
    wrong: bool = False


PASS = Verdict(True)


def _fmt(x):
    return repr(float(x))


def _rng(name, seed, stream):
    return random.Random(f"{name}:{int(seed)}:{stream}")


class Workload:
    """Base: subclasses define ``warmup_ops``, ``deck`` and ``check``.

    Each session of a run times at least ``min_decks`` decks, enough
    operations for a steady median.  ``trace_decks`` decks run in the
    traced run.
    """

    name = ""
    kinds = ()
    min_decks = 1
    trace_decks = 1

    def __init__(self, seed, scratch_dir="."):
        self.seed = int(seed)
        self.scratch_dir = scratch_dir

    def warmup_ops(self):
        raise NotImplementedError

    def deck(self, index):
        raise NotImplementedError

    def check(self, op, code, stdout, checker):
        raise NotImplementedError

    def defect_probes(self):
        return []


def _json_out(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class Converge(Workload):
    """Scaled edge laws: two-cut study rotated with the README controls."""

    name = "converge"
    kinds = ("two-cut", "one-cut", "multicritical")
    min_decks = 2

    def _ops(self, stream, two_cut_thetas=(20.0, 40.0, 80.0)):
        rng = _rng(self.name, self.seed, stream)

        def near(x):
            return x * rng.uniform(0.98, 1.02)

        thetas = [near(t) for t in two_cut_thetas]
        specs = [("two-cut", TWO_CUT, thetas),
                 ("one-cut", ONE_CUT, [near(80.0)]),
                 ("multicritical", MULTICRITICAL, [near(200.0)])]
        ops = []
        for kind, gam, ths in specs:
            csv = f"{self.scratch_dir}/converge-{self.seed}-{stream}-{kind}.csv"
            ops.append(Op(kind, ("converge", "--gamma", gam, "--thetas",
                                 ",".join(_fmt(t) for t in ths), "--out", csv),
                          {"gammas": gam, "thetas": ths, "csv": csv}))
        return ops

    def warmup_ops(self):
        # two theta still start the pool; dropping theta near 80 shortens
        # each session's set-up by about 1.5 s and leaves no cache cold
        return self._ops("warmup", two_cut_thetas=(20.0, 40.0))

    def deck(self, index):
        return self._ops(f"deck{index}")

    def check(self, op, code, stdout, checker):
        if code != 0:
            return Verdict(False, f"exit code {code}")
        try:
            report = _json_out(stdout)["sup_distance"]
            with open(op.params["csv"]) as fh:
                lines = fh.read().split("\n")[1:]
            os.remove(op.params["csv"])
            rows = [tuple(float(v) for v in ln.split(",")) for ln in lines if ln]
        except (ValueError, KeyError, OSError) as exc:
            return Verdict(False, f"unreadable output: {exc}", wrong=True)
        return checker.converge(op, report, rows)


class Sample(Workload):
    """Determinantal draws of k_max at theta near 40; draws dominate."""

    name = "sample"
    kinds = ("sample",)
    min_decks = 3
    trace_decks = 2
    n_draws = 100

    def _op(self, rng):
        theta = 40.0 * rng.uniform(0.98, 1.02)
        seed = rng.randrange(1, 2 ** 31)
        return Op("sample", ("sample", "--gamma", TWO_CUT, "--theta",
                             _fmt(theta), "-n", str(self.n_draws),
                             "--seed", str(seed)),
                  {"n": self.n_draws, "seed": seed})

    def warmup_ops(self):
        return [self._op(_rng(self.name, self.seed, "warmup"))]

    def deck(self, index):
        return [self._op(_rng(self.name, self.seed, f"deck{index}"))]

    def check(self, op, code, stdout, checker):
        if code != 0:
            return Verdict(False, f"exit code {code}")
        try:
            rep = _json_out(stdout)
        except ValueError as exc:
            return Verdict(False, f"unreadable output: {exc}", wrong=True)
        n = op.params["n"]
        # Dvoretzky-Kiefer-Wolfowitz: P(sup |F_n - F| > eps) <= 2 exp(-2 n eps^2)
        # for any law, lattice laws included.
        crit = math.sqrt(math.log(2.0 / KS_ALPHA) / (2.0 * n))
        if rep.get("n") != n or rep.get("seed") != op.params["seed"]:
            return Verdict(False, "n or seed not echoed", wrong=True)
        ks = rep.get("ks_exact")
        if not isinstance(ks, float) or not 0.0 <= ks < crit:
            return Verdict(False, f"ks_exact {ks} not below {crit:.4f}",
                           wrong=True)
        if not isinstance(rep.get("ks_limit"), float) \
                or not 0.0 <= rep["ks_limit"] <= 1.0:
            return Verdict(False, f"ks_limit {rep.get('ks_limit')}", wrong=True)
        return PASS


class UnitaryMC(Workload):
    """Pure-Python Metropolis chain of the unitary model at ell = 24."""

    name = "unitary-mc"
    kinds = ("unitary-mc",)
    min_decks = 6
    trace_decks = 2
    sweeps = 1000

    def _op(self, rng):
        seed = rng.randrange(1, 2 ** 31)
        return Op("unitary-mc", ("unitary-mc", "--gamma", TWO_CUT, "--theta",
                                 "10.9", "--ell", "24", "--sweeps",
                                 str(self.sweeps), "--seed", str(seed)))

    def warmup_ops(self):
        return [self._op(_rng(self.name, self.seed, "warmup"))]

    def deck(self, index):
        return [self._op(_rng(self.name, self.seed, f"deck{index}"))]

    def check(self, op, code, stdout, checker):
        if code != 0:
            return Verdict(False, f"exit code {code}")
        try:
            rep = _json_out(stdout)
        except ValueError as exc:
            return Verdict(False, f"unreadable output: {exc}", wrong=True)
        dip, acc = rep.get("dip_ratio"), rep.get("acceptance_rate")
        if not isinstance(dip, float) or not dip < 0.5:
            return Verdict(False, f"dip_ratio {dip} not below 0.5", wrong=True)
        if not isinstance(acc, float) or not 0.0 < acc < 1.0:
            return Verdict(False, f"acceptance_rate {acc}", wrong=True)
        return PASS


class CdfSweep(Workload):
    """Exact CDF tables on both sides of the route switch.

    exact_cdf switches from the Toeplitz to the Fredholm route at
    theta = 75/8 for this gamma.  A deck holds one theta from each of 10
    equal strata of [0.5, 3] on the Toeplitz route and 3 of [75/8, 12] on
    the Fredholm route, in shuffled order, so every deck holds the same
    number of operations on each route.

    Between 3 and 75/8 the Toeplitz route loses precision (ROADMAP item 2):
    from theta near 4.4 its rows miss the Fredholm window by more than
    CDF_TOL, and above about 5.7 some tables raise NotPositiveDefinite.
    Timed decks stay out of that band, where every operation must pass;
    ``defect_probes`` runs untimed commands inside it and the run reports
    how many of them fail.
    """

    name = "cdf-sweep"
    kinds = ("toeplitz-route", "fredholm-route")
    strata = ((0.5, 3.0, 10), (75.0 / 8.0, 12.0, 3))
    defect_band = (5.5, 75.0 / 8.0, 4)

    def _op(self, theta):
        scale = (TWO_CUT_D * theta) ** (1.0 / 3.0)
        ell_hi = math.ceil(TWO_CUT_B * theta + 4.0 * scale)
        kind = self.kinds[int(theta >= 75.0 / 8.0)]
        return Op(kind, ("cdf", "--gamma", TWO_CUT, "--theta", _fmt(theta),
                         "--ell-range", f"1:{ell_hi}"),
                  {"theta": theta, "ell_hi": ell_hi})

    def warmup_ops(self):
        rng = _rng(self.name, self.seed, "warmup")
        return [self._op(rng.uniform(lo, hi)) for lo, hi, _ in self.strata]

    def deck(self, index):
        rng = _rng(self.name, self.seed, f"deck{index}")
        thetas = [lo + (hi - lo) * (i + rng.random()) / n
                  for lo, hi, n in self.strata for i in range(n)]
        rng.shuffle(thetas)
        return [self._op(t) for t in thetas]

    def defect_probes(self):
        """Untimed commands inside the band where the Toeplitz route is
        known to be wrong, one per equal stratum."""
        rng = _rng(self.name, self.seed, "defect")
        lo, hi, n = self.defect_band
        return [self._op(lo + (hi - lo) * (i + rng.random()) / n)
                for i in range(n)]

    def check(self, op, code, stdout, checker):
        if code != 0:
            return Verdict(False, f"exit code {code}")
        try:
            lines = stdout.strip().split("\n")
            rows = [ln.split(",") for ln in lines[1:]]
            ells = [int(r[0]) for r in rows]
            ps = [float(r[1]) for r in rows]
        except (ValueError, IndexError) as exc:
            return Verdict(False, f"unreadable output: {exc}", wrong=True)
        if lines[0] != "ell,p,s" or ells != list(range(1, op.params["ell_hi"] + 1)):
            return Verdict(False, "wrong header or ell column", wrong=True)
        return checker.cdf_rows(op.params["theta"], ells, ps)


WORKLOADS = {cls.name: cls for cls in (Converge, Sample, UnitaryMC, CdfSweep)}


class Checker:
    """Reference computations behind the checks, with per-process caches.

    The limit law of each (gamma, power) on the s-grid is computed once and
    certified at a few points against ``fredholm_F(check=True)``.
    """

    CERTIFY_S = (-4.0, -2.0, -1.0, 0.0, 1.0, 2.0)
    TABLE_S = (-2.0, 0.0, 1.0)

    def __init__(self, splitsea_modules):
        self.airy = splitsea_modules["airy"]
        self.edge = splitsea_modules["edge"]
        self.potential = splitsea_modules["potential"]
        self._limits = {}

    def _limit(self, gammas, m, power):
        key = (gammas, m, power)
        if key not in self._limits:
            vals = [self.airy.limiting_cdf(m, power, s) for s in S_GRID]
            for s in self.CERTIFY_S:
                ref = self.airy.fredholm_F(m, None, s, check=True) ** power
                if abs(ref - vals[_grid_index(s)]) > LIMIT_TOL:
                    vals = None
                    break
            self._limits[key] = vals
        return self._limits[key]

    def converge(self, op, report, rows):
        gam = tuple(float(v) for v in op.params["gammas"].split(","))
        profile = self.potential.edge_profile(
            self.potential.HoppingCoefficients(gam))
        mx = profile.principal
        limit = self._limit(gam, mx.m, profile.n_cuts)
        if limit is None:
            return Verdict(False, "limit law disagrees with fredholm_F(check=True)",
                           wrong=True)
        thetas = op.params["thetas"]
        if len(rows) != len(thetas) * len(S_GRID) or len(report) != len(thetas):
            return Verdict(False, "wrong number of rows or thetas", wrong=True)
        for i, theta in enumerate(thetas):
            block = rows[i * len(S_GRID):(i + 1) * len(S_GRID)]
            cdf = [r[2] for r in block]
            if any(abs(r[1] - s) > 1e-9 for r, s in zip(block, S_GRID)):
                return Verdict(False, "s-grid mismatch", wrong=True)
            if any(b < a for a, b in zip(cdf, cdf[1:])) or cdf[0] < 0.0 \
                    or cdf[-1] > 1.0:
                return Verdict(False, f"table at theta={theta} not a CDF",
                               wrong=True)
            sup = max(abs(c - lim) for c, lim in zip(cdf, limit))
            if abs(sup - report.get(str(float(theta)), math.inf)) > 1e-12:
                return Verdict(False, f"sup_distance at theta={theta} is not "
                               f"the distance to the limit law", wrong=True)
            coeffs = self.potential.HoppingCoefficients(gam, theta=theta)
            scale = (mx.d * theta) ** (1.0 / (2 * mx.m + 1))
            for s in self.TABLE_S:
                ell = math.floor(profile.b * theta + s * scale + 0.5)
                ref = self.edge.fredholm_cdf_check(coeffs, ell, trace_tol=1e-14)
                got = cdf[_grid_index(s)]
                if abs(ref - got) > CDF_TOL:
                    return Verdict(False, f"P(k_max < {ell}) at theta={theta}: "
                                   f"{got!r} vs window {ref!r}", wrong=True)
        return PASS

    def cdf_rows(self, theta, ells, ps):
        coeffs = self.potential.HoppingCoefficients(
            tuple(float(v) for v in TWO_CUT.split(",")), theta=theta)
        for ell, p in zip(ells, ps):
            ref = self.edge.fredholm_cdf_check(coeffs, ell)
            if not abs(p - ref) <= CDF_TOL:
                return Verdict(False, f"row ell={ell}: {p!r} vs Fredholm "
                               f"{ref!r}", wrong=True)
        return PASS
