"""Dispersion geometry: Fermi seas, edge data, densities, limit shape."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

import splitsea.potential as potential_mod
from splitsea.errors import DegenerateEdge, SolverFailure, UnsupportedEdge
from splitsea.potential import (FermiSea, HoppingCoefficients, _AngleGrid,
                                _cached_wave, _count_cuts, _critical_points,
                                _harmonics, _polish_root,
                                edge_profile, eval_dispersion, fermi_sea,
                                global_extrema, limit_density, limit_shape)
from conftest import central_derivative

GAMMA_SETS = [(1.0, 1.0 / 3.0), (1.0, 0.1), (1.0, -0.125), (1.0, -1.0 / 3.0)]
# D = -(8/15) s cos^3 phi: p' = -(8/5) s y^2 has a double root at y = 0, so
# D' vanishes at pi/2 without changing sign, and D there is 0 up to roundoff
INFLECTION = (-0.2, 0.0, -1.0 / 45.0)
INFLECTION_SCALES = np.linspace(0.5, 2.0, 61)


def _scan_critical_points(gammas):
    """Roots of D' on [0, pi], endpoints included, by a dense sign scan.

    4096 R cells, a sign change refined by brentq, an exact zero at a node
    kept as it is; refinements closer than 1e-12 are merged.  Independent of
    the Chebyshev colleague-matrix route in the library.
    """
    coeffs = HoppingCoefficients(gammas)
    if not coeffs.gammas:
        return (0.0, math.pi)
    grid = np.linspace(0.0, math.pi, 4096 * coeffs.degree + 1)
    sign = np.sign(eval_dispersion(coeffs, grid, order=1))
    pts = [0.0, math.pi] + [grid[i] for i in np.flatnonzero(sign[1:-1] == 0.0) + 1]
    for i in np.flatnonzero(sign[:-1] * sign[1:] < 0.0):
        pts.append(brentq(lambda t: eval_dispersion(coeffs, t, order=1),
                          grid[i], grid[i + 1], xtol=1e-15, rtol=8.9e-16))
    out = [0.0]
    for p in sorted(pts[1:]):
        if p - out[-1] > 1e-12:
            out.append(p)
    return tuple(out)


def _quad_limit_shape(coeffs, xs):
    """Omega at ascending levels xs by adaptive quadrature of the density.

    The density is integrated between consecutive levels up to b, with the
    critical values of D (where the sea changes shape) as breakpoints, and
    the pieces are summed from the top.
    """
    kinks = sorted(eval_dispersion(coeffs, c)
                   for c in _scan_critical_points(coeffs.gammas))
    edges = [min(float(x), kinks[-1]) for x in xs] + [kinks[-1]]
    pieces = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        inner = [v for v in kinks if lo < v < hi]
        val, _err = quad(lambda t: limit_density(coeffs, t), lo, hi,
                         points=inner or None, limit=200,
                         epsabs=1e-11, epsrel=1e-11)
        pieces.append(val)
    return np.asarray(xs) + 2.0 * np.cumsum(pieces[::-1])[::-1]


def test_package_exports_resolve():
    import splitsea

    for name in splitsea.__all__:
        assert getattr(splitsea, name) is not None, name


def test_log_symbol_and_szego_constant():
    c = HoppingCoefficients((1.0, -1.0 / 3.0, 0.2), theta=1.7)
    phis = np.linspace(-math.pi, math.pi, 9)
    want = [2.0 * 1.7 * sum((-1.0) ** (r - 1) * g * math.cos(r * p)
                            for r, g in enumerate(c.gammas, start=1))
            for p in phis]
    assert c.log_symbol(phis) == pytest.approx(want, abs=1e-13)
    assert isinstance(c.log_symbol(0.4), float)
    assert c.log_symbol(0.4) == c.log_symbol(np.array([0.4]))[0]
    # the Szego constant is sum_{r >= 1} r |(log f)_r|^2 over the Fourier
    # coefficients of the log-symbol
    n = 64
    hat = np.fft.rfft(c.log_symbol(2.0 * math.pi * np.arange(n) / n)) / n
    assert c.szego_constant() == pytest.approx(
        sum(r * abs(hat[r]) ** 2 for r in range(1, n // 2)), rel=1e-13)
    assert c.szego_constant() == pytest.approx(
        1.7 ** 2 * (1.0 + 2.0 / 9.0 + 3.0 * 0.04), rel=1e-14)


def test_dispersion_values():
    assert eval_dispersion(HoppingCoefficients((1.0,)), 0.0) == pytest.approx(2.0)
    # split point of the two-cut model sits at D(0) = 2/3
    c = HoppingCoefficients((1.0, -1.0 / 3.0))
    assert eval_dispersion(c, 0.0) == pytest.approx(2.0 / 3.0, abs=1e-14)
    # D = 2cos(phi) - cos(2phi)/2 has vanishing curvature at 0
    c8 = HoppingCoefficients((1.0, -0.125))
    assert eval_dispersion(c8, 0.0, order=2) == pytest.approx(0.0, abs=1e-14)


# d^p/dphi^p of cos(r phi), term by term, for p = -1 (antiderivative) .. 4
HARMONIC_TERMS = {-1: lambda r, t: math.sin(r * t) / r,
                  0: lambda r, t: math.cos(r * t),
                  1: lambda r, t: -r * math.sin(r * t),
                  2: lambda r, t: -r ** 2 * math.cos(r * t),
                  3: lambda r, t: r ** 3 * math.sin(r * t),
                  4: lambda r, t: r ** 4 * math.cos(r * t)}


@pytest.mark.parametrize("order", sorted(HARMONIC_TERMS))
def test_harmonics_match_the_per_term_sum(order):
    term = HARMONIC_TERMS[order]
    amps = (0.7, -1.3, 0.0, 2.1)
    scale = sum(abs(a) * r ** order for r, a in enumerate(amps, start=1))
    phis = np.linspace(-4.0, 4.0, 17)
    want = [sum(a * term(r, t) for r, a in enumerate(amps, start=1)) for t in phis]
    got = _harmonics(amps, phis, order)
    assert got.shape == phis.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * scale
    for t, w in zip(phis[::4], want[::4]):
        value = _harmonics(amps, float(t), order)
        assert isinstance(value, float)
        assert abs(value - w) <= 1e-14 * scale
    assert np.array_equal(_harmonics((), phis, order), np.zeros_like(phis))
    assert _harmonics((), 0.3, order) == 0.0


@pytest.mark.parametrize("grid", [_AngleGrid(2048, closed=True), _AngleGrid(256),
                                  _AngleGrid(4096)])
@pytest.mark.parametrize("order", [-1, 0, 1, 2, 3])
def test_harmonics_on_a_fixed_grid_match_its_angles(grid, order):
    amps = (0.7, -1.3, 0.0, 2.1)
    want = _harmonics(amps, grid.angles(), order)
    assert np.array_equal(_harmonics(amps, grid, order), want)
    assert np.array_equal(_harmonics(amps, grid, order), want)  # from the cache
    assert np.array_equal(_harmonics((), grid, order), np.zeros(grid.size))


def test_cached_waves_are_read_only():
    grid = _AngleGrid(512)
    for parity in (0, 1):
        _harmonics((1.0, 0.5), grid, parity)
        wave = _cached_wave(grid, 2, parity)
        assert wave.shape == (2, 512) and not wave.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            wave[0, 0] = 1.0


def test_waves_past_the_cache_bound_are_not_cached():
    _cached_wave.cache_clear()
    _harmonics((1.0,), _AngleGrid(potential_mod.WAVE_CACHE_ENTRIES), 0)
    assert _cached_wave.cache_info().currsize == 1
    # one more harmonic or twice the points: built afresh, equal all the same
    for amps, grid in [((1.0, 0.5), _AngleGrid(potential_mod.WAVE_CACHE_ENTRIES)),
                       ((1.0,), _AngleGrid(2 * potential_mod.WAVE_CACHE_ENTRIES))]:
        got = _harmonics(amps, grid, 0)
        assert got.flags.writeable
        assert np.array_equal(got, _harmonics(amps, grid.angles(), 0))
    assert _cached_wave.cache_info().currsize == 1


def test_dispersion_antiderivative():
    # order -1 is G = sum_r 2 gamma_r sin(r phi): G' = D and G(0) = 0
    c = HoppingCoefficients((1.0, -1.0 / 3.0, 0.2))
    assert eval_dispersion(c, 0.0, order=-1) == 0.0
    phis = np.linspace(0.3, 2.8, 7)
    slope = [central_derivative(lambda t: eval_dispersion(c, t, order=-1), t, 1, 1e-5)
             for t in phis]
    assert slope == pytest.approx(eval_dispersion(c, phis), rel=1e-8, abs=1e-8)
    with pytest.raises(ValueError, match="order"):
        eval_dispersion(c, 0.3, order=-2)


# step/tolerance per order: high-order central differences trade truncation
# against eps/h^order roundoff, so the workable steps grow with the order
FD_PLANS = {1: (1e-5, 1e-6, 1e-5), 2: (1e-4, 1e-6, 1e-5),
            3: (1e-2, 1e-4, 1e-4), 4: (2e-2, 1e-3, 1e-3)}


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_dispersion_derivatives_match_finite_differences(order, rng):
    h, rel, abs_tol = FD_PLANS[order]
    for _ in range(8):
        gammas = tuple(rng.uniform(-1.0, 1.0, size=rng.integers(1, 4)))
        c = HoppingCoefficients(gammas)
        phi = rng.uniform(0.3, 2.8)
        exact = eval_dispersion(c, phi, order=order)
        fn = lambda t: eval_dispersion(c, t)
        if order <= 2:
            approx = central_derivative(fn, phi, order, h)
        else:
            coarse = central_derivative(fn, phi, order, h)
            fine = central_derivative(fn, phi, order, 0.5 * h)
            approx = (4.0 * fine - coarse) / 3.0  # Richardson: cancel the h^2 term
        assert exact == pytest.approx(approx, rel=rel, abs=abs_tol)


@given(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4),
       st.floats(-10.0, 10.0))
@settings(max_examples=60, deadline=None)
def test_dispersion_even_and_periodic(gammas, phi):
    c = HoppingCoefficients(tuple(gammas))
    d = eval_dispersion(c, phi)
    assert eval_dispersion(c, -phi) == pytest.approx(d, abs=1e-10 * (1 + abs(d)))
    assert eval_dispersion(c, phi + 2 * math.pi) == pytest.approx(
        d, abs=1e-9 * (1 + abs(d)))


def test_global_extrema_known_constants():
    b, bt = global_extrema(HoppingCoefficients((1.0, -1.0 / 3.0)))
    assert b == pytest.approx(41.0 / 24.0, abs=1e-10)
    assert bt == pytest.approx(10.0 / 3.0, abs=1e-10)
    b1, bt1 = global_extrema(HoppingCoefficients((1.0,)))
    assert (b1, bt1) == (pytest.approx(2.0, abs=1e-12), pytest.approx(2.0, abs=1e-12))
    b8, _ = global_extrema(HoppingCoefficients((1.0, -0.125)))
    assert b8 == pytest.approx(1.5, abs=1e-10)


def test_fermi_sea_one_cut():
    sea = fermi_sea(HoppingCoefficients((1.0,)), 1.0)
    assert sea.cuts == 1
    assert sea.boundaries[0] == 0.0
    assert sea.boundaries[1] == pytest.approx(math.acos(0.5), abs=1e-12)


def test_fermi_sea_two_cut_closed_form():
    g = -1.0 / 3.0
    x = 1.6
    sea = fermi_sea(HoppingCoefficients((1.0, g)), x)
    disc = 1.0 + 8.0 * x * g + 32.0 * g * g
    chi1 = math.acos((-1.0 - math.sqrt(disc)) / (8.0 * g))
    chi2 = math.acos((-1.0 + math.sqrt(disc)) / (8.0 * g))
    assert sea.cuts == 2
    assert sea.boundaries == (pytest.approx(chi1, abs=1e-10),
                              pytest.approx(chi2, abs=1e-10))


def test_fermi_sea_empty_and_full():
    c = HoppingCoefficients((1.0, -1.0 / 3.0))
    assert fermi_sea(c, 4.0).is_empty
    assert fermi_sea(c, 4.0).cuts == 0
    assert fermi_sea(c, -5.0).is_full


def test_fermi_sea_sign_pattern():
    # D - x >= 0 on the intervals and < 0 strictly between them
    c = HoppingCoefficients((1.0, -1.0 / 3.0))
    for x in (-2.0, 0.1, 1.0, 1.65):
        sea = fermi_sea(c, x)
        for a, b in sea.intervals:
            for t in np.linspace(a, b, 7):
                assert eval_dispersion(c, t) - x >= -1e-9
        flat = [0.0] + list(sea.boundaries) + [math.pi]
        for lo, hi in zip(flat[:-1], flat[1:]):
            mid = 0.5 * (lo + hi)
            inside = any(a <= mid <= b for a, b in sea.intervals)
            if not inside and hi - lo > 1e-8:
                assert eval_dispersion(c, mid) - x < 0.0


def test_fermi_sea_crosses_at_an_inflection():
    # the level 0 crosses at pi/2, the inflection.  The crossing once fell
    # within 1e-10 of the (roundoff-split) critical pair, was dropped as
    # tangential and left an empty sea; then, at 25 of these 61 scales, a
    # pair split to +-3e-17 around the level gave a sign change between
    # them and a spurious root 1e-9 away (cuts = 3)
    for s in INFLECTION_SCALES:
        c = HoppingCoefficients(tuple(s * g for g in INFLECTION))
        sea = fermi_sea(c, 0.0)
        assert (sea.cuts, sea.tangential) == (1, ()), s
        assert sea.boundaries == (pytest.approx(math.pi / 2.0, abs=1e-8), math.pi), s
        rho = limit_density(c, 0.0)
        assert rho == pytest.approx(0.5, abs=1e-8), s
        for x in (-1e-12, 1e-12):
            assert limit_density(c, x) == pytest.approx(rho, abs=1e-4), (s, x)
            assert fermi_sea(c, x).cuts == 1, (s, x)


SOLVER_MODELS = [(1.0, -1.0 / 3.0), (1.0, 0.1), (1.0, -0.125), (-0.2, 0.0, -1.0 / 45.0)]


def _assert_boundaries_match_brentq(coeffs, x):
    """Every solved boundary of the sea at x against a brentq root (xtol 1e-15).

    The oracle brackets are the monotone segments between critical points.
    Boundaries at a critical point are not solved and are skipped.  The
    bound is 1e-14 plus the root's own conditioning: D is evaluated to
    about eps times its coefficient sum, so a root with slope D' is only
    defined to 4 eps scale / |D'|, which dominates within 1e-9 of a
    critical value.
    """
    crit, _ = _critical_points(coeffs.gammas)
    scale = sum(abs(2.0 * r * g) for r, g in enumerate(coeffs.gammas, start=1))
    for chi in fermi_sea(coeffs, x).boundaries:
        if chi in crit:
            continue
        i = int(np.searchsorted(crit, chi)) - 1
        want = brentq(lambda t: eval_dispersion(coeffs, t) - x, crit[i], crit[i + 1],
                      xtol=1e-15, rtol=8.9e-16)
        slack = 4.0 * np.finfo(float).eps * scale / abs(eval_dispersion(coeffs, want, order=1))
        assert abs(chi - want) <= 1e-14 + slack, (coeffs.gammas, x, chi, want)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_fermi_sea_boundaries_match_brentq(data):
    coeffs = HoppingCoefficients(data.draw(st.sampled_from(SOLVER_MODELS)))
    _, vals = _critical_points(coeffs.gammas)
    if data.draw(st.booleans()):
        x = data.draw(st.sampled_from(vals)) + data.draw(st.floats(-1e-9, 1e-9))
    else:
        x = data.draw(st.floats(min(vals), max(vals)))
    _assert_boundaries_match_brentq(coeffs, x)


# a strided grid of k for the weights 2^k gamma, from -999 (weights near
# 1e-301, still normal doubles) to 60
SCALING_POWERS = (*range(0, 61, 3), *range(-3, -61, -3), *range(-999, -60, 39))
SCALING_MODELS = SOLVER_MODELS + [(1.0, 1.0 / 3.0), (1.0, -0.2, 1.0 / 45.0), (1.0,),
                                  (0.0, 1.0), (1.0, -0.3)]


@pytest.mark.parametrize("gammas", SOLVER_MODELS)
def test_fermi_sea_is_exact_under_power_of_two_scaling(gammas):
    # D(2^k gamma) = 2^k D(gamma) exactly, so the sea of 2^k gamma at 2^k x
    # is the same bit for bit.  With an absolute 1e-12 residual gate, D's
    # own roundoff exceeded the gate from k = 12 on (SolverFailure); with
    # touch_tol floored at 1e-10 and a sign test by product, which
    # underflows, seas went wrong from k = -30 down
    for x in (-1.3, -0.2, 0.7, 1.5):
        want = fermi_sea(HoppingCoefficients(gammas), x)
        for k in SCALING_POWERS:
            s = 2.0 ** k
            got = fermi_sea(HoppingCoefficients(tuple(s * g for g in gammas)), s * x)
            assert (got.boundaries, got.cuts) == (want.boundaries, want.cuts), (x, k)


@pytest.mark.parametrize("k", [0, -40, -60])
def test_root_gate_is_exact_under_power_of_two_scaling(k):
    # [2.5, 3] holds no root of D = 0.7 for (1, -1/3), where D falls from
    # about -2.2: the polished end fails the residual gate.  At 2^-40 and
    # 2^-60 times the weights and the level, the absolute tangency slope
    # 1e-8 exceeded |D'| everywhere and the end came back as a root
    s = 2.0 ** k
    with pytest.raises(SolverFailure, match="boundary residual"):
        _polish_root(HoppingCoefficients((s, -s / 3.0)), 0.7 * s, 2.5, 3.0, False)


def test_model_checks_its_coupling_when_built():
    for theta in (math.nan, math.inf, -math.inf, -1.0):
        with pytest.raises(ValueError, match="theta must be a nonnegative real"):
            HoppingCoefficients((1.0,), theta=theta)
    assert HoppingCoefficients((1.0,), theta=0.0).theta == 0.0  # the domain wall


@pytest.mark.parametrize("gammas", [(math.nan,), (1.0, math.inf), (1e308,), (1e200, -1e308)])
def test_model_checks_its_weights_when_built(gammas):
    # 1e308 is finite, but D's amplitude 2 * 1e308 is not: density printed
    # nan and analyze misdiagnosed the maximizer
    with pytest.raises(ValueError, match="hopping weights must be finite"):
        HoppingCoefficients(gammas)


def test_fermi_sea_boundary_where_the_first_newton_step_leaves_the_bracket():
    # D = 2 cos phi + 0.6 cos 3 phi falls on all of [0, pi], but D'(pi/2) is
    # only -0.2: from the midpoint, Newton overshoots and the solver bisects
    c = HoppingCoefficients((1.0, 0.0, 0.1))
    assert _critical_points(c.gammas)[0] == (0.0, math.pi)
    x = 1.0
    mid = 0.5 * math.pi
    first = mid - (eval_dispersion(c, mid) - x) / eval_dispersion(c, mid, order=1)
    assert not 0.0 < first < math.pi
    assert len(fermi_sea(c, x).boundaries) == 2
    _assert_boundaries_match_brentq(c, x)


@pytest.mark.parametrize("gammas,chi_b,m,d,n_cuts", [
    ((1.0, -1.0 / 3.0), math.acos(3.0 / 8.0), 1, 55.0 / 24.0, 2),
    ((1.0, -0.125), 0.0, 2, 0.25, 1),
    ((1.0, 0.1), 0.0, 1, None, 1),
    ((1.0, 1.0 / 3.0), 0.0, 1, None, 1),
    # a roundoff split of the double root of p' at y = 1 must not add a
    # second maximizer near phi = 1.9e-4
    ((1.0, -0.2, 1.0 / 45.0), 0.0, 3, 1.0 / 15.0, 1),
])
def test_edge_profile_constants(gammas, chi_b, m, d, n_cuts):
    profile = edge_profile(HoppingCoefficients(gammas))
    assert len(profile.maximizers) == 1
    mx = profile.maximizers[0]
    assert mx.chi_b == pytest.approx(chi_b, abs=1e-10)
    assert mx.m == m
    if d is not None:
        assert mx.d == pytest.approx(d, abs=1e-10)
    assert profile.n_cuts == n_cuts
    # d from the moment formula 2(-1)^{m+1} sum r^{2m+1} gamma_r / (2m)! at chi_b = 0
    if chi_b == 0.0:
        moment = sum(r ** (2 * m + 1) * g for r, g in enumerate(gammas, start=1))
        d_formula = 2.0 * (-1.0) ** (m + 1) * moment / math.factorial(2 * m)
        assert mx.d == pytest.approx(d_formula, abs=1e-10)


@pytest.mark.parametrize("gammas", SCALING_MODELS)
def test_edge_profile_is_exact_under_power_of_two_scaling(gammas):
    # the maximizer test, the odd-derivative check and the cut count's sea
    # at b - 1e-6 max(1, b) were absolute below unit weights: at k = -20
    # (1, -1/3) counted one cut, and from k = -30 down 0 and pi both passed
    # as maximizers (SolverFailure)
    want = edge_profile(HoppingCoefficients(gammas))
    for k in SCALING_POWERS:
        s = 2.0 ** k
        got = edge_profile(HoppingCoefficients(tuple(s * g for g in gammas)))
        assert (got.b, got.b_tilde, got.n_cuts) == (s * want.b, s * want.b_tilde,
                                                     want.n_cuts), k
        assert [(mx.chi_b, mx.m, mx.d) for mx in got.maximizers] == \
            [(mx.chi_b, mx.m, s * mx.d) for mx in want.maximizers], k


@pytest.mark.parametrize("gammas", SCALING_MODELS + [(0.0, 0.0, 1.0)])
def test_cut_count_is_the_sea_just_below_the_edge(gammas):
    coeffs = HoppingCoefficients(gammas)
    profile = edge_profile(coeffs)
    for eps in (1e-6, 1e-9):
        assert fermi_sea(coeffs, profile.b * (1.0 - eps)).cuts == profile.n_cuts


def test_edge_profile_degenerate():
    with pytest.raises(DegenerateEdge):
        edge_profile(HoppingCoefficients((0.0, 0.0)))


def test_edge_profile_root_finding_runs_once_per_weight_sequence(monkeypatch):
    import splitsea.potential as potential

    calls = []
    global_extrema_ = potential.global_extrema
    monkeypatch.setattr(potential, "global_extrema",
                        lambda c: calls.append(c.gammas) or global_extrema_(c))
    potential._edge_profile.cache_clear()
    profiles = [edge_profile(HoppingCoefficients((1.0, -1.0 / 3.0), theta=t))
                for t in (0.5, 20.0, 40.0)]
    assert len(calls) == 1  # one profile computation, theta-free
    assert all(p is profiles[0] for p in profiles)
    edge_profile(HoppingCoefficients((1.0, 0.1), theta=20.0))
    assert len(calls) == 2


def test_limit_density_values():
    assert limit_density(HoppingCoefficients((1.0,)), 0.0) == pytest.approx(0.5)
    c = HoppingCoefficients((1.0, -1.0 / 3.0))
    profile = edge_profile(c)
    x = profile.b - 1e-3
    two_cut = (2.0 / math.pi) * math.sqrt((profile.b - x) / profile.principal.d)
    assert limit_density(c, x) == pytest.approx(two_cut, rel=2e-3)
    # closed-form coefficient (2/pi) sqrt(8 g / (1 - 64 g^2)) agrees with 1/sqrt(d)
    g = -1.0 / 3.0
    assert math.sqrt(8.0 * g / (1.0 - 64.0 * g * g)) == pytest.approx(
        1.0 / math.sqrt(profile.principal.d), abs=1e-12)
    cm = HoppingCoefficients((1.0, -0.125))
    assert limit_density(cm, 1.49) == pytest.approx(
        (math.sqrt(2.0) / math.pi) * 0.01 ** 0.25, rel=0.05)


def test_limit_density_range_and_tails():
    for gammas in GAMMA_SETS:
        c = HoppingCoefficients(gammas)
        b, bt = global_extrema(c)
        for x in np.linspace(-bt - 1.0, b + 1.0, 41):
            rho = limit_density(c, x)
            assert 0.0 <= rho <= 1.0
        assert limit_density(c, -bt - 0.5) == 1.0
        assert limit_density(c, b + 0.5) == 0.0


@pytest.mark.parametrize("gammas", GAMMA_SETS)
def test_density_edge_vanishing_exponent(gammas):
    c = HoppingCoefficients(gammas)
    profile = edge_profile(c)
    m = profile.principal.m
    dx = np.geomspace(1e-4, 1e-2, 10)
    rho = np.array([limit_density(c, profile.b - v) for v in dx])
    slope = np.polyfit(np.log(dx), np.log(rho), 1)[0]
    assert slope == pytest.approx(1.0 / (2 * m), rel=0.05)


@pytest.mark.parametrize("gammas", GAMMA_SETS)
def test_density_edge_continuity_bound(gammas):
    # |rho(x+h) - rho(x)| <= C h^(1/2m) with C from the local edge data
    c = HoppingCoefficients(gammas)
    profile = edge_profile(c)
    mx = profile.principal
    m = mx.m
    h = 1e-4
    bound = 2.0 * (profile.n_cuts / math.pi) * (h / mx.d) ** (1.0 / (2 * m))
    for x in np.linspace(profile.b - 0.01, profile.b + 0.005, 31):
        assert abs(limit_density(c, x + h) - limit_density(c, x)) <= bound


def test_limit_shape_values():
    c1 = HoppingCoefficients((1.0,))
    assert limit_shape(c1, 2.0) == 2.0
    assert limit_shape(c1, -2.0) == pytest.approx(2.0, abs=1e-8)
    c = HoppingCoefficients((1.0, -1.0 / 3.0))
    # frozen-edge identity: Omega(-b_tilde) = b_tilde forces the integral of
    # the density over the whole bulk to equal b_tilde
    assert limit_shape(c, -10.0 / 3.0) == pytest.approx(10.0 / 3.0, abs=1e-6)


def test_limit_shape_lipschitz():
    c = HoppingCoefficients((1.0, -1.0 / 3.0))
    xs = np.linspace(-3.8, 2.0, 30)
    vals = [limit_shape(c, float(x)) for x in xs]
    for (x1, v1), (x2, v2) in zip(zip(xs, vals), zip(xs[1:], vals[1:])):
        assert abs(v2 - v1) <= abs(x2 - x1) + 1e-9


@pytest.mark.parametrize("gammas", GAMMA_SETS + [(1.0,), (1.0, -1.0 / 3.0, 0.2)])
def test_limit_shape_closed_form_matches_quadrature(gammas):
    c = HoppingCoefficients(gammas)
    b, bt = global_extrema(c)
    xs = np.linspace(-bt - 0.5, b + 0.5, 40)
    want = _quad_limit_shape(c, xs)
    got = np.array([limit_shape(c, x) for x in xs])
    assert np.max(np.abs(got - want)) <= 1e-10


@given(st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=1, max_size=5))
@settings(max_examples=150, deadline=None)
def test_critical_points_match_sign_scan(gammas):
    c = HoppingCoefficients(tuple(gammas))
    crit, vals = _critical_points(c.gammas)
    want = _scan_critical_points(c.gammas)
    assert len(crit) == len(want)
    assert crit == pytest.approx(want, abs=1e-12)
    assert vals == tuple(eval_dispersion(c, np.array(crit)))


@pytest.mark.parametrize("gammas", [
    (1.0, -0.125),             # p' has its root exactly at y = 1
    (0.0, 1.0),                # a root at y = 0, phi = pi/2
    (1.0, 0.0, 1.0 / 27.0),    # p' has only complex roots
    (1.0, -0.2, 1.0 / 45.0),   # double root of p' at y = 1 (m = 3 at phi = 0)
])
def test_critical_points_fixed_cases(gammas):
    crit, _ = _critical_points(gammas)
    assert crit == pytest.approx(_scan_critical_points(gammas), abs=1e-12)


def test_critical_points_at_a_double_root_of_p_prime_are_critical():
    # at the double root both D' and D'' are roundoff; a Newton step by
    # their ratio once returned phi = 1.828 with D' = 0.055 (s = 0.55)
    for s in INFLECTION_SCALES:
        c = HoppingCoefficients(tuple(s * g for g in INFLECTION))
        crit, _ = _critical_points(c.gammas)
        scale = sum(abs(2.0 * r * r * g) for r, g in enumerate(c.gammas, start=1))
        slopes = np.abs(eval_dispersion(c, np.array(crit), order=1))
        assert np.max(slopes) <= 1e-8 * max(1.0, scale), (s, crit)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_level_is_rejected(x):
    # limit_density and limit_shape used to return nan, 0.0 or inf
    c = HoppingCoefficients((1.0, -1.0 / 3.0))
    for fn in (fermi_sea, limit_density, limit_shape):
        with pytest.raises(ValueError, match="must be finite"):
            fn(c, x)


def quadratic_fermi_sea_oracle(gamma2, x):
    """Closed-form Fermi sea for gamma = (1, gamma2), all higher weights zero.

    The boundaries are arccos of the roots of y -> 8 g y^2 + 2 y - 4 g - x,
    split into three regimes by g = +-1/8.  Serves as an independent oracle
    for :func:`fermi_sea` on this two-parameter family.
    """
    g = float(gamma2)
    x = float(x)

    def sea(intervals, tangential=()):
        bounds = tuple(v for ab in intervals for v in ab)
        return FermiSea(x=x, boundaries=bounds, cuts=_count_cuts(intervals),
                        tangential=tuple(tangential))

    if g == 0.0:
        if x < -2.0:
            return sea([(0.0, math.pi)])
        if x >= 2.0:
            return sea([], tangential=(0.0,) if x == 2.0 else ())
        return sea([(0.0, math.acos(x / 2.0))],
                   tangential=(math.pi,) if x == -2.0 else ())

    disc = max(1.0 + 8.0 * x * g + 32.0 * g * g, 0.0)

    def _acos(y):
        return math.acos(min(1.0, max(-1.0, y)))

    def y_plus():
        return (-1.0 + math.sqrt(disc)) / (8.0 * g)

    def y_minus():
        return (-1.0 - math.sqrt(disc)) / (8.0 * g)

    if -0.125 <= g <= 0.125:
        # single sea throughout the bulk [4g-2, 4g+2]
        if x < 4.0 * g - 2.0:
            return sea([(0.0, math.pi)])
        if x >= 4.0 * g + 2.0:
            return sea([], tangential=(0.0,) if x == 4.0 * g + 2.0 else ())
        tang = (math.pi,) if x == 4.0 * g - 2.0 else ()
        return sea([(0.0, _acos(y_plus()))], tangential=tang)

    if g < -0.125:
        # split at the right edge: two cuts on (4g+2, b), b = -(1+32g^2)/(8g)
        b = -(1.0 + 32.0 * g * g) / (8.0 * g)
        if x < 4.0 * g - 2.0:
            return sea([(0.0, math.pi)])
        if x >= b:
            chi_b = _acos(-1.0 / (8.0 * g))
            return sea([], tangential=(chi_b,) if x == b else ())
        if x <= 4.0 * g + 2.0:
            tang = []
            if x == 4.0 * g - 2.0:
                tang.append(math.pi)
            if x == 4.0 * g + 2.0:
                tang.append(0.0)
            return sea([(0.0, _acos(y_plus()))], tangential=tang)
        return sea([(_acos(y_minus()), _acos(y_plus()))])

    # g > 1/8: split at the left edge; two cuts on (min D, 4g-2)
    lo = -(1.0 + 32.0 * g * g) / (8.0 * g)
    if x <= lo:
        chi_min = _acos(-1.0 / (8.0 * g))
        return sea([(0.0, math.pi)], tangential=(chi_min,) if x == lo else ())
    if x >= 4.0 * g + 2.0:
        return sea([], tangential=(0.0,) if x == 4.0 * g + 2.0 else ())
    if x >= 4.0 * g - 2.0:
        tang = (math.pi,) if x == 4.0 * g - 2.0 else ()
        return sea([(0.0, _acos(y_plus()))], tangential=tang)
    return sea([(0.0, _acos(y_plus())), (_acos(y_minus()), math.pi)])


@pytest.mark.parametrize("gamma2", [1.0 / 3.0, 0.1, -0.125, -1.0 / 3.0, 0.0, 0.2, -0.6])
def test_quadratic_oracle_agreement(gamma2):
    c = HoppingCoefficients((1.0, gamma2))
    b, bt = global_extrema(c)
    for x in np.linspace(-bt - 0.5, b + 0.5, 61):
        got = fermi_sea(c, float(x))
        want = quadratic_fermi_sea_oracle(gamma2, float(x))
        assert got.cuts == want.cuts, f"x={x}"
        assert len(got.boundaries) == len(want.boundaries), f"x={x}"
        for a, w in zip(got.boundaries, want.boundaries):
            assert a == pytest.approx(w, abs=1e-10), f"x={x}"


def test_quadratic_oracle_regimes():
    # split-left model: two cuts strictly between min D and D(pi) = 4g - 2
    g = 1.0 / 3.0
    sea = quadratic_fermi_sea_oracle(g, -1.0)
    assert sea.cuts == 2
    assert sea.boundaries[0] == 0.0 and sea.boundaries[-1] == math.pi
    # and one cut above D(pi) (x = 0 lies in the one-cut phase)
    assert quadratic_fermi_sea_oracle(g, 0.0).cuts == 1
    # at the right edge the sea closes
    assert quadratic_fermi_sea_oracle(0.0, 2.0).is_empty
    # split-right: pinch at zero exactly at x = D(0)
    sea = quadratic_fermi_sea_oracle(-1.0 / 3.0, 4.0 * (-1.0 / 3.0) + 2.0)
    assert sea.cuts == 1 and 0.0 in sea.tangential


@pytest.mark.parametrize("gammas", [
    (Fraction(-3, 10), Fraction(1, 2), Fraction(1, 10)),
    (Fraction(581, 480), Fraction(-7, 20), Fraction(2, 25)),
])
def test_law_order_refuses_a_tie_of_unequal_curvature(gammas):
    # d = 6.4 and 1.6 at 0 and pi; d = 0.570 and 1.402 at 0 and +-1.34
    profile = edge_profile(HoppingCoefficients(gammas))
    assert [mx.m for mx in profile.maximizers] == [1, 1]
    ds = sorted(mx.d for mx in profile.maximizers)
    assert ds[1] / ds[0] > 2.0
    with pytest.raises(UnsupportedEdge, match="constants d"):
        profile.law_order


def test_law_order_of_one_maximizer_orbit():
    for gammas, m in (((1.0, -1.0 / 3.0), 1), ((1.0, 0.1), 1),
                      ((1.0, -0.125), 2)):
        assert edge_profile(HoppingCoefficients(gammas)).law_order == m
