"""Acceptance gate: every release criterion at its stated tolerance.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one verdict line
per criterion.
"""

import itertools
import math

import numpy as np
import pytest

from splitsea.airy import FredholmConfig, _fredholm_once, airy_values
from splitsea.edge import (fredholm_cdf_check, scaled_convergence_study,
                           toeplitz_cdf)
from splitsea.kernel import (coefficient_band, kernel_eval,
                             kernel_eval_quadrature, kernel_matrix)
from splitsea.potential import (HoppingCoefficients, edge_profile, fermi_sea,
                                global_extrema)
from splitsea.sampler import WindowedKernel, empirical_edge_law, sample_many
from splitsea.schur import measure_weight, partitions_upto
from splitsea.unitary import (angle_histogram, eigen_density_supercritical,
                              metropolis_chain, partition_function_toeplitz)
from conftest import (airy_series, brute_correlation, density_support_cuts,
                      edge_prediction, local_sine_prediction,
                      oscillation_average, partition_function_quadrature)

TWO_CUT = (1.0, -1.0 / 3.0)
FOUR_MODELS = [(1.0, 1.0 / 3.0), (1.0, 0.1), (1.0, -0.125), (1.0, -1.0 / 3.0)]


def _verdict(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num:02d} [{name}]: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_triple_exactness():
    worst_bt = worst_tf = 0.0
    for theta in (0.3, 0.5, 0.7):
        c = HoppingCoefficients(TWO_CUT, theta=theta)
        weighted = [(lam[0] if lam else 0, measure_weight(lam, c))
                    for lam in partitions_upto(22)]
        for ell in range(1, 7):
            brute = sum(w for first, w in weighted if first <= ell)
            toep = toeplitz_cdf(c, ell)
            fred = fredholm_cdf_check(c, ell)
            worst_bt = max(worst_bt, abs(brute - toep))
            worst_tf = max(worst_tf, abs(toep - fred))
    _verdict(1, "triple exactness", worst_bt < 1e-6 and worst_tf < 1e-7,
             f"|brute-toeplitz|<= {worst_bt:.2e}, |toeplitz-fredholm|<= {worst_tf:.2e}")


def test_criterion_02_kernel_equivalence(rng):
    worst = 0.0
    for i in range(100):
        theta = (0.3, 0.5, 1.0)[i % 3]
        c = HoppingCoefficients(TWO_CUT, theta=theta)
        band = coefficient_band(c)
        span = max(1, int(3 * theta))
        k = float(rng.integers(-span, span + 1)) + 0.5
        ell = float(rng.integers(-span, span + 1)) + 0.5
        worst = max(worst, abs(kernel_eval(band, k, ell)
                               - kernel_eval_quadrature(c, k, ell)))
    c5 = HoppingCoefficients(TWO_CUT, theta=0.5)
    band5 = coefficient_band(c5)
    worst_minor = 0.0
    for sites in [(0.5, 1.5), (-0.5, 0.5), (-1.5, 1.5)]:
        det = float(np.linalg.det(kernel_matrix(band5, sites)))
        worst_minor = max(worst_minor, abs(det - brute_correlation(c5, sites, 22)))
    _verdict(2, "kernel equivalence", worst < 1e-9 and worst_minor < 1e-7,
             f"series-vs-quadrature <= {worst:.2e}, minors-vs-brute <= {worst_minor:.2e}")


def test_criterion_03_geometric_constants():
    c = HoppingCoefficients(TWO_CUT)
    b, bt = global_extrema(c)
    profile = edge_profile(c)
    mx = profile.principal
    c8 = HoppingCoefficients((1.0, -0.125))
    b8, _ = global_extrema(c8)
    p8 = edge_profile(c8)
    checks = [
        abs(b - 41.0 / 24.0) < 1e-10,
        abs(bt - 10.0 / 3.0) < 1e-10,
        abs(mx.chi_b - math.acos(3.0 / 8.0)) < 1e-10,
        profile.n_cuts == 2,
        mx.m == 1,
        abs(b8 - 1.5) < 1e-10,
        p8.principal.m == 2,
    ]
    _verdict(3, "geometric constants", all(checks),
             f"b={b!r}, b_tilde={bt!r}, chi_b={mx.chi_b!r}, "
             f"b(multicrit)={b8!r}, m={p8.principal.m}")


def test_criterion_04_bulk_sine_decay():
    thetas = [50.0, 100.0, 200.0, 400.0]
    pairs = [(1, 0), (2, 0), (3, 1), (2, 1), (4, 2)]
    slopes = []
    for x in (0.3, 1.2):  # one bulk point per phase (one cut / two cuts)
        errs = []
        for th in thetas:
            c = HoppingCoefficients(TWO_CUT, theta=th)
            band = coefficient_band(c)
            sea = fermi_sea(c, x)
            base = math.floor(x * th)
            sq = 0.0
            for s, t in pairs:
                pred = local_sine_prediction(sea, s - t)
                sq += (kernel_eval(band, base + s - 0.5, base + t - 0.5) - pred) ** 2
            errs.append(math.sqrt(sq / len(pairs)))
        slopes.append(-np.polyfit(np.log(thetas), np.log(errs), 1)[0])
    _verdict(4, "bulk sine decay", all(s >= 0.4 for s in slopes),
             f"fitted exponents {[f'{s:.3f}' for s in slopes]} (need >= 0.4)")


def test_criterion_05_edge_oscillation():
    c = HoppingCoefficients(TWO_CUT, theta=200.0)
    profile = edge_profile(c)
    band = coefficient_band(c)
    mx = profile.principal
    scale = (mx.d * c.theta) ** (1.0 / 3.0)
    base = math.floor(profile.b * c.theta - 2.0 * scale) + 0.5
    thr = 0.2 / scale
    worst_rel, checked, signs_ok = 0.0, 0, True
    for delta in range(9):
        k, ell = base + delta, base
        pred = edge_prediction(profile, c.theta, k, ell)
        exact = kernel_eval(band, k, ell)
        if abs(pred) > thr:
            checked += 1
            worst_rel = max(worst_rel, abs(exact - pred) / abs(pred))
        cosv = math.cos(mx.chi_b * delta)
        if abs(cosv) > 0.2:
            signs_ok &= math.copysign(1.0, exact) == math.copysign(1.0, cosv)
    _verdict(5, "two-cut edge oscillation",
             worst_rel <= 0.10 and signs_ok and checked >= 6,
             f"worst rel err {worst_rel:.3f} over {checked} filtered offsets, "
             f"cosine sign pattern {'ok' if signs_ok else 'broken'}")


def test_criterion_06_limiting_edge_laws():
    two = scaled_convergence_study(TWO_CUT, [20.0, 40.0, 80.0])
    sups = [r["sup_distance"] for r in two]
    one = scaled_convergence_study((1.0, 0.1), [80.0])[0]
    multi = scaled_convergence_study((1.0, -0.125), [200.0])[0]
    ok = (sups[0] > sups[1] > sups[2] and sups[2] < 0.05
          and two[0]["power"] == 2
          and one["sup_distance"] < 0.05 and one["power"] == 1
          and multi["sup_distance"] < 0.1 and multi["m"] == 2)
    _verdict(6, "edge laws F^n", ok,
             f"two-cut sups {[f'{s:.4f}' for s in sups]} (dec, <0.05); "
             f"one-cut {one['sup_distance']:.4f} (<0.05); "
             f"multicritical {multi['sup_distance']:.4f} (<0.1)")


def test_criterion_07_oscillation_constants():
    errs = [abs(oscillation_average(2) - 0.5),
            abs(oscillation_average(3) - 0.25),
            abs(oscillation_average(4) - 0.125)]
    _verdict(7, "oscillation averages", max(errs) < 1e-10,
             f"|C_n - 2^(1-n)| <= {max(errs):.2e}")


def test_criterion_08_airy_stack():
    worst_series = max(abs(airy_values(1, x) - airy_series(x))
                       for x in (-3.0, -1.0, 0.0, 1.0, 3.0))
    cfg = FredholmConfig(n_nodes=64)
    worst_double = max(abs(_fredholm_once(1, s, cfg.cut_for(1), 64)
                           - _fredholm_once(1, s, cfg.cut_for(1), 128))
                       for s in (-4.0, -1.1, 0.0, 2.0))

    def eig_resid(m, x, v, h):
        if m == 1:
            stencil, offs = [1.0, -2.0, 1.0], [-1, 0, 1]
        else:
            stencil, offs = [1.0, -4.0, 6.0, -4.0, 1.0], [-2, -1, 0, 1, 2]
        der = sum(cc * airy_values(m, x + v + o * h)
                  for cc, o in zip(stencil, offs)) / h ** (2 * m)
        return abs(x * airy_values(m, x + v) + (-1) ** m * der
                   + v * airy_values(m, x + v))

    worst_eig = max(eig_resid(1, 0.3, 0.2, 1e-3), eig_resid(1, -0.5, 0.8, 1e-3),
                    eig_resid(2, 0.3, 0.2, 0.03), eig_resid(2, 0.0, 1.1, 0.03))
    ok = worst_series < 1e-9 and worst_double < 1e-8 and worst_eig < 1e-4
    _verdict(8, "Airy stack", ok,
             f"series diff {worst_series:.1e}, node-doubling {worst_double:.1e}, "
             f"eigenfunction residual {worst_eig:.1e}")


def test_criterion_09_sampler_exactness():
    # six-site synthetic projection kernel, all outcomes enumerated
    gen = np.random.default_rng(5)
    q, _ = np.linalg.qr(gen.normal(size=(6, 2)))
    wk = WindowedKernel(k_lo_int=0, k_hi_int=5, matrix=q @ q.T,
                        eigenvalues=np.ones(2), eigenvectors=q, leakage=0.0)
    exact = {s: float(np.linalg.det((q @ q.T)[np.ix_(s, s)]))
             for s in itertools.combinations(range(6), 2)}
    n_toy = 200000
    counts = {}
    for conf in sample_many(wk, n_toy, 7):
        key = tuple(int(v - 0.5) for v in conf)
        counts[key] = counts.get(key, 0) + 1
    tv = 0.5 * sum(abs(counts.get(s, 0) / n_toy - p) for s, p in exact.items())

    c = HoppingCoefficients(TWO_CUT, theta=40.0)
    rep = empirical_edge_law(c, 5000, seed=17)
    ks_crit = 1.63 / math.sqrt(5000)
    _verdict(9, "sampler exactness", tv < 0.01 and rep.ks_exact < ks_crit,
             f"toy TV {tv:.4f} (<0.01), KS {rep.ks_exact:.4f} "
             f"(1% level {ks_crit:.4f})")


def test_criterion_10_matrix_model(rng):
    alphas = np.linspace(-math.pi, math.pi, 20001)
    ok_density = True
    details = []
    for gam in FOUR_MODELS:
        coeffs = HoppingCoefficients(gam)
        b, _ = global_extrema(coeffs)
        rho = eigen_density_supercritical(gam, b, alphas)
        integral = float(np.trapezoid(rho, alphas))
        zeros = len(density_support_cuts(gam, b))
        n_cuts = edge_profile(coeffs).n_cuts
        ok_density &= abs(integral - 1.0) < 1e-8 and zeros == n_cuts
        details.append(f"g2={gam[1]:+.3f}:{zeros}={n_cuts}")

    worst_z = 0.0
    for _ in range(10):
        g = (1.0, float(rng.uniform(-0.5, 0.5)))
        th = float(rng.uniform(0.05, 1.0))
        for ell in (1, 2):
            worst_z = max(worst_z, abs(
                partition_function_toeplitz(g, th, ell)
                - partition_function_quadrature(g, th, ell)))

    res = metropolis_chain(TWO_CUT, 24.0 / 2.2, 24, 12000, seed=5)
    hist, edges = angle_histogram(res.samples, bins=48)
    centers = 0.5 * (edges[1:] + edges[:-1])
    chi_b = math.acos(3.0 / 8.0)
    dip = max(hist[np.argmin(np.abs(centers - (math.pi - chi_b)))],
              hist[np.argmin(np.abs(centers + (math.pi - chi_b)))])
    mid = hist[np.argmin(np.abs(centers))]
    dip_ratio = dip / mid
    ok = ok_density and worst_z < 1e-8 and dip_ratio < 0.5
    _verdict(10, "unitary matrix model", ok,
             f"zero-counts [{', '.join(details)}], Z diff {worst_z:.2e}, "
             f"dip ratio {dip_ratio:.3f} (<0.5)")
