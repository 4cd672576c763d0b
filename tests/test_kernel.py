"""Exact kernel: band construction, series vs quadrature, scaling limits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitsea.errors import UnsupportedEdge
from splitsea.kernel import (coefficient_band, edge_prediction, kernel_eval,
                             kernel_eval_quadrature, kernel_matrix,
                             local_sine_prediction, tail_trace)
from splitsea.potential import (HoppingCoefficients, edge_profile, fermi_sea,
                                global_extrema, limit_density)
from splitsea.schur import brute_correlation
from conftest import bessel_j


def test_band_is_bessel_for_nearest_neighbour():
    band = coefficient_band(HoppingCoefficients((1.0,), theta=1.0))
    for n in range(-10, 11):
        want = bessel_j(n, 2.0) * ((-1.0) ** n if n < 0 else 1.0)
        assert band[n] == pytest.approx(want, abs=1e-13)


def test_band_parseval_and_degenerate_coupling():
    for gammas, theta in [((1.0,), 1.0), ((1.0, -1.0 / 3.0), 3.0), ((0.5, 0.2, -0.1), 2.0)]:
        band = coefficient_band(HoppingCoefficients(gammas, theta=theta))
        assert float(np.dot(band.coeffs, band.coeffs)) == pytest.approx(1.0, abs=1e-12)
    band0 = coefficient_band(HoppingCoefficients((1.0,), theta=0.0))
    assert band0[0] == pytest.approx(1.0)
    assert band0[1] == pytest.approx(0.0, abs=1e-15)


def test_kernel_domain_wall_limits():
    band = coefficient_band(HoppingCoefficients((1.0,), theta=0.0))
    assert kernel_eval(band, -0.5, -0.5) == pytest.approx(1.0)
    assert kernel_eval(band, 0.5, 0.5) == pytest.approx(0.0, abs=1e-28)


def test_kernel_series_vs_quadrature(rng):
    for theta in (0.3, 0.5, 1.0):
        c = HoppingCoefficients((1.0, -1.0 / 3.0), theta=theta)
        band = coefficient_band(c)
        for _ in range(7):
            span = max(1, int(3 * theta))
            k = float(rng.integers(-span, span + 1)) + 0.5
            ell = float(rng.integers(-span, span + 1)) + 0.5
            assert kernel_eval(band, k, ell) == pytest.approx(
                kernel_eval_quadrature(c, k, ell), abs=1e-9)


def test_quadrature_bessel_identity():
    c = HoppingCoefficients((1.0,), theta=1.0)
    want = sum(bessel_j(n, 2.0) ** 2 for n in range(0, 40))
    assert kernel_eval_quadrature(c, -0.5, -0.5) == pytest.approx(want, abs=1e-10)
    # symmetry of the quadrature under argument swap
    a = kernel_eval_quadrature(c, 1.5, -2.5)
    b = kernel_eval_quadrature(c, -2.5, 1.5)
    assert a == pytest.approx(b, abs=1e-12)


def test_kernel_symmetry_and_diagonal_range(rng):
    band = coefficient_band(HoppingCoefficients((1.0, -1.0 / 3.0), theta=2.0))
    for _ in range(20):
        k = float(rng.integers(-12, 12)) + 0.5
        ell = float(rng.integers(-12, 12)) + 0.5
        assert kernel_eval(band, k, ell) == kernel_eval(band, ell, k)
        assert 0.0 <= kernel_eval(band, k, k) <= 1.0


def test_minor_matches_brute_correlation():
    c = HoppingCoefficients((1.0, -1.0 / 3.0), theta=0.5)
    band = coefficient_band(c)
    sites = (0.5, 1.5)
    det = float(np.linalg.det(kernel_matrix(band, sites)))
    assert det == pytest.approx(brute_correlation(c, sites, 22), abs=1e-7)


@given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3),
       st.floats(0.0, 80.0),
       st.lists(st.floats(-1.3, 1.3), min_size=1, max_size=10))
@settings(max_examples=40, deadline=None)
def test_hankel_matrix_matches_series(gammas, theta, fractions):
    band = coefficient_band(HoppingCoefficients(tuple(gammas), theta=theta))
    # sites in unsorted order, one repeated, some past either end of the band
    n = band.half_width
    sites = [math.floor(f * (n + 2)) + 0.5 for f in fractions]
    sites.append(sites[0])
    mat = kernel_matrix(band, sites)
    want = np.array([[kernel_eval(band, k, ell) for ell in sites]
                     for k in sites])
    assert mat.shape == want.shape
    assert np.max(np.abs(mat - want)) <= 1e-14


def test_tail_trace_is_the_dropped_diagonal():
    band = coefficient_band(HoppingCoefficients((1.0, -1.0 / 3.0), theta=3.0))
    n = band.half_width
    right = sum(kernel_eval(band, k + 0.5, k + 0.5) for k in range(4, n + 1))
    left = sum(1.0 - kernel_eval(band, k + 0.5, k + 0.5)
               for k in range(-n - 1, -6))
    assert tail_trace(band, 4) == pytest.approx(right, abs=1e-15)
    # the reference adds ~2n terms 1 - K(k, k), each rounded to ~1e-16
    assert tail_trace(band, 4, below=-6) == pytest.approx(right + left,
                                                          abs=1e-12)


def test_operator_contraction(rng):
    c = HoppingCoefficients((1.0, -1.0 / 3.0), theta=4.0)
    band = coefficient_band(c)
    for _ in range(5):
        size = int(rng.integers(5, 41))
        start = int(rng.integers(-30, 10))
        sites = [start + j + 0.5 for j in range(size)]
        eig = np.linalg.eigvalsh(kernel_matrix(band, sites))
        assert eig.min() >= -1e-10 and eig.max() <= 1.0 + 1e-10


def test_local_sine_prediction_forms():
    sea1 = fermi_sea(HoppingCoefficients((1.0,)), 1.0)
    chi2 = math.acos(0.5)
    for delta in (1, 2, 5):
        assert local_sine_prediction(sea1, delta) == pytest.approx(
            math.sin(chi2 * delta) / (math.pi * delta), abs=1e-12)
    c = HoppingCoefficients((1.0, -1.0 / 3.0))
    sea2 = fermi_sea(c, 1.6)
    chi_a, chi_b = sea2.boundaries
    assert local_sine_prediction(sea2, 1) == pytest.approx(
        (math.sin(chi_b) - math.sin(chi_a)) / math.pi, abs=1e-12)
    assert local_sine_prediction(sea2, 0) == pytest.approx(
        limit_density(c, 1.6), abs=1e-12)


def test_bulk_sine_convergence_rate():
    # RMS prediction error over a few offsets decays at least like theta^-0.4
    thetas = [50.0, 100.0, 200.0, 400.0]
    pairs = [(1, 0), (2, 0), (3, 1), (2, 1), (4, 2)]
    for x in (0.3, 1.2):
        errs = []
        for th in thetas:
            c = HoppingCoefficients((1.0, -1.0 / 3.0), theta=th)
            band = coefficient_band(c)
            sea = fermi_sea(c, x)
            base = math.floor(x * th)
            sq = 0.0
            for s, t in pairs:
                pred = local_sine_prediction(sea, s - t)
                sq += (kernel_eval(band, base + s - 0.5, base + t - 0.5) - pred) ** 2
            errs.append(math.sqrt(sq / len(pairs)))
        slope = -np.polyfit(np.log(thetas), np.log(errs), 1)[0]
        assert slope >= 0.4


def test_frozen_and_empty_limits():
    c = HoppingCoefficients((1.0, -1.0 / 3.0), theta=30.0)
    band = coefficient_band(c)
    b, bt = global_extrema(c)
    deep_left = math.floor(-(bt + 1.0) * 30) + 0.5
    assert kernel_eval(band, deep_left, deep_left) == pytest.approx(1.0, abs=1e-6)
    # empty region: diagonal decays at an exponential rate in the distance
    vals = [kernel_eval(band, math.floor(x * 30) + 0.5, math.floor(x * 30) + 0.5)
            for x in (1.9, 2.1, 2.3)]
    assert vals[1] < 0.1 * vals[0] and vals[2] < 0.1 * vals[1]


def test_edge_prediction_two_cut():
    c = HoppingCoefficients((1.0, -1.0 / 3.0), theta=200.0)
    profile = edge_profile(c)
    band = coefficient_band(c)
    mx = profile.principal
    scale = (mx.d * c.theta) ** (1.0 / 3.0)
    base = math.floor(profile.b * c.theta - 2.0 * scale) + 0.5
    thr = 0.2 / scale
    checked = 0
    for delta in range(9):
        k, ell = base + delta, base
        pred = edge_prediction(profile, c.theta, k, ell)
        exact = kernel_eval(band, k, ell)
        if abs(pred) > thr:
            checked += 1
            assert abs(exact - pred) / abs(pred) <= 0.10
        cosv = math.cos(mx.chi_b * delta)
        if abs(cosv) > 0.2:
            assert math.copysign(1.0, exact) == math.copysign(1.0, cosv)
    assert checked >= 6


def test_edge_prediction_diagonal_form():
    c = HoppingCoefficients((1.0, -1.0 / 3.0), theta=100.0)
    profile = edge_profile(c)
    mx = profile.principal
    scale = (mx.d * c.theta) ** (1.0 / 3.0)
    k = math.floor(profile.b * c.theta) + 0.5
    from splitsea.airy import airy_kernel
    x = (k - profile.b * c.theta) / scale
    assert edge_prediction(profile, c.theta, k, k) == pytest.approx(
        2.0 * airy_kernel(1, x, x) / scale, rel=1e-10)


def test_edge_prediction_unsupported():
    profile = edge_profile(HoppingCoefficients((1.0, 0.1)))
    with pytest.raises(UnsupportedEdge):
        edge_prediction(profile, 50.0, 120.5, 120.5)
