"""Edge distribution: symbol, Toeplitz/Fredholm routes, scaling studies."""

import math
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from splitsea.edge import (TRACE_TOL, _gap_table, exact_cdf,
                           fredholm_cdf_check, scaled_convergence_study,
                           symbol_coeffs, toeplitz_cdf)
from splitsea.errors import NotPositiveDefinite
from splitsea.kernel import coefficient_band, kernel_matrix, tail_trace
from splitsea.potential import HoppingCoefficients, edge_profile
from splitsea.schur import brute_cdf_first_part
from conftest import bessel_i, oscillation_average


def test_symbol_is_bessel_i_for_nearest_neighbour():
    f = symbol_coeffs(HoppingCoefficients((1.0,), theta=1.0), 8)
    for n in range(-8, 9):
        assert f[8 + n] == pytest.approx(bessel_i(n, 2.0), abs=1e-13)


def test_symbol_symmetry_and_degenerate():
    f = symbol_coeffs(HoppingCoefficients((1.0, -1.0 / 3.0), theta=0.9), 12)
    assert np.allclose(f, f[::-1], atol=1e-13)
    f0 = symbol_coeffs(HoppingCoefficients((1.0,), theta=0.0), 4)
    assert f0[4] == pytest.approx(1.0)
    assert np.max(np.abs(np.delete(f0, 4))) < 1e-15


def test_toeplitz_cdf_degenerate_and_monotone():
    c0 = HoppingCoefficients((1.0, 0.2), theta=0.0)
    for ell in (1, 3, 7):
        assert toeplitz_cdf(c0, ell) == pytest.approx(1.0, abs=1e-14)
    c = HoppingCoefficients((1.0, -1.0 / 3.0), theta=2.0)
    b = edge_profile(c).b
    vals = [toeplitz_cdf(c, ell) for ell in range(1, int(b * 2.0) + 21)]
    assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))
    assert vals[-1] > 1.0 - 1e-6


def test_triple_agreement_small_theta():
    c = HoppingCoefficients((1.0, -1.0 / 3.0), theta=0.5)
    for ell in (-3, -1, 0, 1, 2, 3):
        t = toeplitz_cdf(c, ell)
        assert t == pytest.approx(brute_cdf_first_part(c, ell, 22), abs=1e-8)
        assert t == pytest.approx(fredholm_cdf_check(c, ell), abs=1e-7)
    # the oracle counted the empty partition (lambda_1 = 0) below every ell
    below = [brute_cdf_first_part(c, ell, 22) for ell in (-3, -1)]
    assert below == [0.0, 0.0] == exact_cdf(c, np.array([-3, -1])).tolist()


def test_toeplitz_vs_fredholm_random(rng):
    for _ in range(20):
        theta = float(rng.uniform(0.05, 1.0))
        g2 = float(rng.uniform(-0.45, 0.45))
        ell = int(rng.integers(1, 11))
        c = HoppingCoefficients((1.0, g2), theta=theta)
        assert toeplitz_cdf(c, ell) == pytest.approx(
            fredholm_cdf_check(c, ell), abs=1e-7)


def test_exact_cdf_route_consistency():
    # both routes work up to moderate coupling; the dispatcher must agree
    for theta in (0.5, 2.0, 3.5):
        c = HoppingCoefficients((1.0, -1.0 / 3.0), theta=theta)
        for ell in (2, 5, 9):
            assert exact_cdf(c, ell) == pytest.approx(
                fredholm_cdf_check(c, ell), abs=1e-9)


def test_fredholm_first_order_tail():
    # far above b theta, 1 - P is the dropped trace to first order
    c = HoppingCoefficients((1.0,), theta=1.0)
    from splitsea.kernel import coefficient_band, kernel_eval
    band = coefficient_band(c)
    for ell in (4, 6):
        trace = sum(kernel_eval(band, k + 0.5, k + 0.5) for k in range(ell, ell + 60))
        p = fredholm_cdf_check(c, ell)
        assert 1.0 - p == pytest.approx(trace, rel=0.05)


def test_fredholm_window_is_capped_before_it_is_built(monkeypatch):
    # 0:5000 at theta = 20 used to factor a dense window of 5064 sites
    import splitsea.edge as edge_mod

    def unbuilt(*args):
        raise AssertionError("window matrix built past the cap")

    monkeypatch.setattr(edge_mod, "kernel_matrix", unbuilt)
    with pytest.raises(ValueError, match="Fredholm window of 4100 sites > 4096"):
        fredholm_cdf_check(HoppingCoefficients((1.0,), theta=20.0), np.array([0, 4100]))


@given(st.floats(-0.45, 0.45), st.sampled_from([10.0, 20.0, 40.0, 80.0, 200.0]))
@settings(max_examples=15, deadline=None)
def test_fredholm_table_matches_per_row_determinants(g2, theta):
    c = HoppingCoefficients((1.0, g2), theta=theta)
    profile = edge_profile(c)
    edge, scale = profile.b * theta, profile.scale(theta)
    ells = np.arange(max(1, math.floor(edge - 5.0 * scale)),
                     math.ceil(edge + 4.0 * scale))
    band = coefficient_band(c)
    # each row's own determinant runs to 64 sites past the top row (64 sites
    # above each row leave up to 5e-4 of trace at theta = 200); the table
    # moves a row by up to its dropped trace, held an order under the bound
    top = ells[-1] + 64
    ref = []
    for ell in ells:
        sites = ell + 0.5 + np.arange(top - ell)
        sign, logdet = np.linalg.slogdet(np.eye(len(sites))
                                         - kernel_matrix(band, sites))
        ref.append(sign * math.exp(logdet))
    table = fredholm_cdf_check(c, ells, trace_tol=1e-13)
    assert np.max(np.abs(table - ref)) < 1e-12


@given(st.floats(-0.45, 0.45), st.floats(0.5, 200.0),
       st.lists(st.integers(-3, 500), min_size=1, max_size=6))
@settings(max_examples=30, deadline=None)
def test_fredholm_window_is_the_least_certified_one(g2, theta, ells):
    c = HoppingCoefficients((1.0, g2), theta=theta)
    band = coefficient_band(c)
    rows = np.maximum(ells, 0)
    with mock.patch("splitsea.edge.kernel_matrix", wraps=kernel_matrix) as spy:
        fredholm_cdf_check(c, np.array(ells))
    (_, sites), = [call.args for call in spy.call_args_list]
    top = sites[0] + 0.5 if len(sites) else rows.max()
    assert np.array_equal(sites, top - 0.5 - np.arange(top - rows.min()))
    assert tail_trace(band, top) < TRACE_TOL
    assert top == rows.max() or tail_trace(band, top - 1) >= TRACE_TOL


def test_ell_past_int64_or_off_the_integers_is_refused():
    # the int64 cast wrapped 9.3e18 to a negative row and answered P = 0
    for theta in (2.0, 40.0):  # the Toeplitz and the Fredholm route
        c = HoppingCoefficients((1.0,), theta=theta)
        for table in (exact_cdf, fredholm_cdf_check, toeplitz_cdf):
            for bad in (9.3e18, -9.3e18, 1e20, 2.0 ** 63, 2.5, math.nan,
                        np.array([3, 2 ** 70], dtype=object)):
                with pytest.raises(ValueError, match="^ell="):
                    table(c, bad)
            assert table(c, 3.0) == table(c, 3)
            assert np.array_equal(table(c, np.array([2.0, 3.0])),
                                  table(c, np.array([2, 3])))
    with pytest.raises(ValueError, match=r"^ell=9\.3e\+18 is not an int64$"):
        exact_cdf(HoppingCoefficients((1.0,), theta=2.0), 9.3e18)


def test_empty_ell_gives_an_empty_table():
    for theta in (2.0, 40.0):  # the Toeplitz and the Fredholm route
        c = HoppingCoefficients((1.0, -1.0 / 3.0), theta=theta)
        for table in (exact_cdf, fredholm_cdf_check, toeplitz_cdf):
            p = table(c, np.array([], dtype=np.int64))
            assert p.shape == (0,) and p.dtype == float


def test_fredholm_trace_tol_must_be_positive_and_finite():
    c = HoppingCoefficients((1.0,), theta=20.0)
    for tol in (0.0, -1e-12, math.inf, math.nan):
        with pytest.raises(ValueError, match="trace_tol"):
            fredholm_cdf_check(c, 40, trace_tol=tol)


def test_gap_table_refuses_an_infinite_trace_tol():
    # the sampler's edge-window search reads the table directly; an infinite
    # bound made every cut certified and the table answered.  The one check
    # covers fredholm_cdf_check too, for an empty ell as well
    c = HoppingCoefficients((1.0, -1.0 / 3.0), theta=40.0)
    with pytest.raises(ValueError, match="trace_tol"):
        _gap_table(coefficient_band(c), np.arange(50, 60), math.inf)
    with pytest.raises(ValueError, match="trace_tol"):
        fredholm_cdf_check(c, np.array([], dtype=np.int64), trace_tol=math.inf)


@given(st.floats(-0.45, 0.45), st.floats(0.05, 3.0))
@settings(max_examples=15, deadline=None)
def test_toeplitz_table_matches_per_row_determinants(g2, theta):
    c = HoppingCoefficients((1.0, g2), theta=theta)
    ells = np.arange(1, 21)
    f = symbol_coeffs(c, 20)
    ref = [math.exp(np.linalg.slogdet(scipy.linalg.toeplitz(f[20:20 + ell]))[1]
                    - c.szego_constant()) for ell in ells]
    # both sides carry roundoff of order n eps cond(T) <= n eps max f / min f,
    # which passes 1e-11 near theta = 3 (at gamma2 = -0.4 the reference
    # itself is 5e-11 off a 40-digit determinant)
    log_f = c.log_symbol(np.linspace(0.0, math.pi, 2048))
    tol = max(1e-11, 20 * np.finfo(float).eps * math.exp(np.ptp(log_f)))
    assert np.max(np.abs(toeplitz_cdf(c, ells) - ref)) < tol


def test_scalar_ell_gives_float_and_array_gives_rows():
    c = HoppingCoefficients((1.0, -1.0 / 3.0), theta=12.0)
    table = exact_cdf(c, np.arange(18, 24))
    assert type(exact_cdf(c, 20)) is float
    assert exact_cdf(c, 20) == pytest.approx(table[2], abs=1e-15)


def test_deep_fredholm_rows_are_a_cdf():
    # far below the edge the pivots of I - K sink to roundoff
    c = HoppingCoefficients((1.0, -1.0 / 3.0), theta=40.0)
    p = fredholm_cdf_check(c, np.arange(1, 91))
    assert np.all(p >= 0.0) and np.all(np.diff(p) >= 0.0) and np.all(p <= 1.0)


def test_fredholm_window_numpy_refuses_is_a_zero_row():
    # np.linalg.cholesky refuses this 64-site window (least eigenvalue
    # -1.1e-16), where LAPACK's dpotrf fails at order 64: the row is 0 up to
    # roundoff, and it must not raise
    c = HoppingCoefficients((1.0, -0.3333333333), theta=11.86853280802323)
    assert 0.0 <= fredholm_cdf_check(c, 1) <= 1e-14


def test_fredholm_first_pivot_failure_raises(monkeypatch):
    monkeypatch.setattr("splitsea.edge.kernel_matrix",
                        lambda band, sites: 2.0 * np.eye(len(sites)))
    c = HoppingCoefficients((1.0, -1.0 / 3.0), theta=2.0)
    with pytest.raises(NotPositiveDefinite):
        fredholm_cdf_check(c, np.arange(1, 5))


def test_indefinite_toeplitz_symbol_raises(monkeypatch):
    # f(phi) = 1 + 4 cos(phi) is negative near pi: T_2 = [[1, 2], [2, 1]]
    # has a pivot of -3, and no tolerance certifies the rows past it
    def indefinite(coeffs, n_max):
        f = np.zeros(2 * n_max + 1)
        f[n_max - 1:n_max + 2] = (2.0, 1.0, 2.0)
        return f

    monkeypatch.setattr("splitsea.edge.symbol_coeffs", indefinite)
    c = HoppingCoefficients((1.0, -1.0 / 3.0), theta=2.0)
    with pytest.raises(NotPositiveDefinite, match="ell=2"):
        toeplitz_cdf(c, np.arange(0, 5))


def test_toeplitz_rows_at_and_below_zero():
    # k_max >= -1/2: P(k_max < 0) = exp(-theta^2 sum r gamma_r^2), and 0 below
    c = HoppingCoefficients((1.0, -1.0 / 3.0), theta=2.0)
    p = toeplitz_cdf(c, np.array([-2, -1, 0, 1]))
    assert p[0] == p[1] == toeplitz_cdf(c, -1) == 0.0
    assert p[2] == pytest.approx(math.exp(-c.szego_constant()), rel=1e-12)
    assert p[2:] == pytest.approx(fredholm_cdf_check(c, np.array([0, 1])),
                                  abs=1e-12)


def test_fredholm_rows_below_zero_match_toeplitz():
    # the pivot of I - K at site -1/2 is exactly 0 at small coupling; rows
    # below ell = 0 are 0 (k_max >= -1/2) and the window stops at site 1/2
    c = HoppingCoefficients((1.0, -1.0 / 3.0), theta=2.0)
    ells = np.arange(-2, 5)
    p = fredholm_cdf_check(c, ells)
    assert p[0] == p[1] == fredholm_cdf_check(c, -1) == 0.0
    assert np.max(np.abs(p - toeplitz_cdf(c, ells))) < 1e-11


def test_scaling_map_round_trips_the_lattice():
    profile = edge_profile(HoppingCoefficients((1.0, -1.0 / 3.0)))
    scale = profile.scale(2.0)
    ells = np.arange(3, 9)
    s = profile.s_of(ells, 2.0)
    assert s[0] == profile.s_of(3, 2.0) == (3 - 2.0 * profile.b) / scale
    assert np.diff(s) == pytest.approx(np.full(5, 1.0 / scale), rel=1e-12)
    back = profile.lattice_of(s, 2.0)
    assert back.dtype == np.int64 and list(back) == list(ells)
    assert type(profile.lattice_of(s[0], 2.0)) is int
    for theta in (0.0, -1.0, math.nan):  # no edge scaling without coupling
        with pytest.raises(ValueError, match="theta > 0"):
            profile.s_of(3, theta)
        with pytest.raises(ValueError, match="theta > 0"):
            profile.lattice_of(0.0, theta)


def test_scaled_law_steps_at_the_half_integer_atoms():
    gam, theta = (1.0, -1.0 / 3.0), 20.0
    c = HoppingCoefficients(gam, theta=theta)
    profile = edge_profile(c)
    assert profile.n_cuts == 2 and profile.principal.m == 1
    ells = np.arange(profile.lattice_of(-4.0, theta),
                     profile.lattice_of(3.0, theta) + 1)
    ps = exact_cdf(c, ells)
    assert np.all(ps >= 0.0) and np.all(ps <= 1.0)
    assert np.all(np.diff(ps) >= -1e-12)
    # the law at s is the row of lattice_of(s): it steps up at the image of
    # the half-integer atom ell - 1/2 from row ell - 1 to row ell
    scale = profile.scale(theta)
    for ell in ells[1:]:
        s_jump = profile.s_of(ell - 0.5, theta)
        assert profile.lattice_of(s_jump - 0.4 / scale, theta) == ell - 1
        assert profile.lattice_of(s_jump + 0.4 / scale, theta) == ell
    s_jump = profile.s_of(ells[5] - 0.5, theta)
    pair = profile.lattice_of([s_jump - 0.4 / scale, s_jump + 0.4 / scale], theta)
    # rows of tables over other ell ranges agree to roundoff
    assert exact_cdf(c, pair) == pytest.approx([ps[4], ps[5]], abs=1e-14)
    assert ps[5] - ps[4] > 1e-3
    # the study's law at each s of its grid is that row of the lattice law
    report = scaled_convergence_study(gam, [theta])[0]
    assert np.array_equal(report["cdf"], exact_cdf(
        c, profile.lattice_of(report["s"], theta)))


def test_convergence_study_two_cut():
    reports = scaled_convergence_study((1.0, -1.0 / 3.0), [20.0, 40.0])
    assert [r["power"] for r in reports] == [2, 2]
    assert reports[0]["sup_distance"] > reports[1]["sup_distance"]
    assert reports[1]["sup_distance"] < 0.08


def test_scaling_law_of_median_crossing():
    # |ell_1/2 - b theta| grows like theta^(1/3); fitted exponent within band
    gam = (1.0, -1.0 / 3.0)
    prof = edge_profile(HoppingCoefficients(gam))
    thetas = [20.0, 40.0, 80.0, 160.0, 320.0]
    drifts = []
    for th in thetas:
        c = HoppingCoefficients(gam, theta=th)
        bt = prof.b * th
        ell = max(2, math.floor(bt))
        while exact_cdf(c, ell) >= 0.5:
            ell -= 1
        while exact_cdf(c, ell) < 0.5:
            ell += 1
        p_hi, p_lo = exact_cdf(c, ell), exact_cdf(c, ell - 1)
        cross = (ell - 1) + (0.5 - p_lo) / (p_hi - p_lo)
        drifts.append(abs(cross - bt))
    slope = np.polyfit(np.log(thetas), np.log(drifts), 1)[0]
    assert 0.25 <= slope <= 0.42


def test_oscillation_averages():
    assert oscillation_average(2) == pytest.approx(0.5, abs=1e-10)
    assert oscillation_average(3) == pytest.approx(0.25, abs=1e-10)
    assert oscillation_average(4) == pytest.approx(0.125, abs=1e-10)
    # independence of the oscillation frequency
    assert oscillation_average(3, chi_b=0.7) == pytest.approx(
        oscillation_average(3, chi_b=2.3), abs=1e-10)
    with pytest.raises(ValueError):
        oscillation_average(5)
