"""Exact kernel: band construction, series vs quadrature, scaling limits."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splitsea.kernel as kernel_mod
import splitsea.potential as potential_mod
from splitsea.edge import exact_cdf
from splitsea.errors import BandTooNarrow, UnsupportedEdge
from splitsea.kernel import (BAND_SUPPORT_TOL, BAND_TAIL_TOL,
                             MAX_BAND_HALF_WIDTH, QUAD_EPS, CoefficientBand,
                             _contour_factors, _contour_sum, _fft_band,
                             _half_ints, _support_half_width,
                             coefficient_band, kernel_eval,
                             kernel_eval_quadrature, kernel_matrix, tail_trace)
from splitsea.potential import (HoppingCoefficients, _cached_wave,
                                edge_profile, eval_dispersion, fermi_sea,
                                global_extrema, limit_density)
from splitsea.sampler import windowed_kernel
from conftest import (airy_kernel, bessel_j, brute_correlation,
                      edge_prediction, full_window, left_trace,
                      local_sine_prediction)


def test_band_is_bessel_for_nearest_neighbour():
    band = coefficient_band(HoppingCoefficients((1.0,), theta=1.0))
    for n in range(-10, 11):
        want = bessel_j(n, 2.0) * ((-1.0) ** n if n < 0 else 1.0)
        assert band.coeffs[n + band.half_width] == pytest.approx(want, abs=1e-13)


def test_band_parseval_and_degenerate_coupling():
    for gammas, theta in [((1.0,), 1.0), ((1.0, -1.0 / 3.0), 3.0), ((0.5, 0.2, -0.1), 2.0)]:
        band = coefficient_band(HoppingCoefficients(gammas, theta=theta))
        assert float(np.dot(band.coeffs, band.coeffs)) == pytest.approx(1.0, abs=1e-12)
    band0 = coefficient_band(HoppingCoefficients((1.0,), theta=0.0))
    assert band0.coeffs[band0.half_width] == pytest.approx(1.0)
    assert band0.coeffs[band0.half_width + 1] == pytest.approx(0.0, abs=1e-15)


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


def _dense_contour_sum(coeffs, n1, n2, m):
    # reference: the double sum with the whole m x m Cauchy matrix
    omega, az, bw = _contour_factors(coeffs, n1, n2, m)
    cauchy = 1.0 / np.subtract.outer((1.0 + QUAD_EPS) * omega,
                                     (1.0 - QUAD_EPS) * omega)
    return float(np.real(az @ (cauchy @ bw))) / (m * m)


@pytest.mark.parametrize("gammas", [(1.0,), (1.0, -1.0 / 3.0), (1.0, 0.1)])
def test_fft_contour_sum_matches_the_dense_cauchy_sum(gammas):
    # the terms reach max|a| max|b| (2e8 at theta = 80 for (1, 0.1)), so
    # both sums carry roundoff of that size times eps; measured, the two
    # sums and the series agree to 1.3e-16 of it
    worst = 0.0
    for theta in (0.5, 5.0, 20.0, 80.0):
        c = HoppingCoefficients(gammas, theta=theta)
        band = coefficient_band(c)
        for k, ell in [(0.5, 1.5), (-2.5, 3.5),
                       (math.floor(1.5 * theta) + 0.5, math.floor(1.5 * theta) - 0.5)]:
            n1, n2 = round(0.5 - k), round(ell + 0.5)
            for m in (64, 256, 1024):
                _, az, bw = _contour_factors(c, n1, n2, m)
                scale = float(np.max(np.abs(az)) * np.max(np.abs(bw)))
                got = _contour_sum(c, n1, n2, m)
                worst = max(worst, abs(got - _dense_contour_sum(c, n1, n2, m)) / scale)
                if m == 1024:
                    worst = max(worst, abs(got - kernel_eval(band, k, ell)) / scale)
    assert worst < 1e-15


def test_kernel_symmetry_and_diagonal_range(rng):
    band = coefficient_band(HoppingCoefficients((1.0, -1.0 / 3.0), theta=2.0))
    for _ in range(20):
        k = float(rng.integers(-12, 12)) + 0.5
        ell = float(rng.integers(-12, 12)) + 0.5
        assert kernel_eval(band, k, ell) == kernel_eval(band, ell, k)
        assert 0.0 <= kernel_eval(band, k, k) <= 1.0


def _one_dot(band, k, ell):
    # the series of one pair: J_{k+i} J_{l+i} over the band, one dot product
    n, f, g = band.half_width, int(k + 0.5), int(ell + 0.5)
    t0, t1 = max(0, -n - f, -n - g), min(n - f, n - g)
    if t1 < t0:
        return 0.0
    return float(np.dot(band.coeffs[f + t0 + n:f + t1 + n + 1],
                        band.coeffs[g + t0 + n:g + t1 + n + 1]))


def test_kernel_eval_of_site_arrays_is_one_dot_per_pair():
    # kernel-profile parsed and evaluated each site in its own call
    band = coefficient_band(HoppingCoefficients((1.0, -1.0 / 3.0), theta=6.0))
    n = band.half_width
    ks = np.array([[-n - 3.5, -2.5, 0.5], [1.5, n + 0.5, 7.5]])
    ells = np.array([[0.5, -2.5, n + 4.5], [-0.5, n - 0.5, 2.5]])
    got = kernel_eval(band, ks, ells)
    assert got.shape == (2, 3) and got.dtype == float
    want = [_one_dot(band, k, ell) for k, ell in zip(ks.flat, ells.flat)]
    assert np.array_equal(got.reshape(-1), want)
    assert np.array_equal(got.reshape(-1), [kernel_eval(band, k, ell) for k, ell
                                            in zip(ks.flat, ells.flat)])
    one = kernel_eval(band, 1.5, -0.5)
    assert type(one) is float and one == _one_dot(band, 1.5, -0.5)
    assert kernel_eval(band, np.array([]), np.array([])).shape == (0,)
    with pytest.raises(ValueError, match="shape"):
        kernel_eval(band, ks, ells[0])
    with pytest.raises(ValueError, match=r"^k=1\.0 is not a half-integer"):
        kernel_eval(band, [0.5, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError, match=r"^ell=2\.0 is not a half-integer"):
        kernel_eval(band, 0.5, 2.0)


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


def _hankel_product(band, sites):
    # reference: the kernel block as one product H H^T, row i of H being
    # (J_{k_i + 1/2}, J_{k_i + 3/2}, ...) from the zero-padded band
    first = np.rint(np.asarray(sites, dtype=float) + 0.5).astype(np.int64)
    n = band.half_width
    low = int(first.min(initial=n + 1))
    width = max(n - low + 1, 1)
    pad = max(-n - low, 0)
    padded = np.concatenate([np.zeros(pad), band.coeffs, np.zeros(width)])
    rows = np.minimum(first, n + 1) + n + pad
    h = np.lib.stride_tricks.sliding_window_view(padded, width)[rows]
    return h @ h.T


@pytest.mark.parametrize("gammas,theta,full", [
    ((1.0, -1.0 / 3.0), 20.0, False), ((1.0, -1.0 / 3.0), 80.0, False),
    ((1.0, -0.125), 200.0, False), ((1.0, -1.0 / 3.0), 120.0, True)])
def test_kernel_matrix_matches_the_hankel_product(gammas, theta, full):
    # consecutive windows as the callers build them: the sampler's edge
    # window run 64 sites past its top (the Fredholm window's least margin),
    # or the tests' full window (``full_window``); both ascending and
    # descending
    c = HoppingCoefficients(gammas, theta=theta)
    band = coefficient_band(c)
    wk = full_window(c)[0] if full else windowed_kernel(c)
    lo, hi = wk.k_lo_int, wk.k_hi_int
    sites = np.arange(lo, hi + (1 if full else 65)) + 0.5
    for window in (sites, sites[::-1]):
        got = kernel_matrix(band, window)
        assert np.max(np.abs(got - _hankel_product(band, window))) <= 1e-14


def _scalar_half_int(k, name="index"):
    # the scalar parser that ``_half_ints`` replaced, verbatim: the reference
    v = float(k)
    twice = round(2.0 * v) if math.isfinite(2.0 * v) else 0  # even: refused below
    if abs(2.0 * v - twice) > 1e-9 or twice % 2 == 0:
        raise ValueError(f"{name}={k!r} is not a half-integer")
    return (twice - 1) // 2  # k = k_int + 1/2


def test_half_ints_is_the_scalar_rule_on_every_site():
    # finite half-integers and integers, the tolerance's edge on both sides,
    # values past 2^52 (all integers), the overflow of 2 k, inf and nan
    halves = [0.5, -0.5, 1.5, -7.5, 1e6 + 0.5, -(2.0 ** 51) - 0.5,
              2.0 ** 51 + 0.5]
    values = halves + [h + d for h in halves[:5]
                       for d in (1e-10, -1e-10, 4e-10, 1e-8, -1e-8)]
    values += [0.0, -0.0, 1.0, -3.0, 0.25, 1.75, 2.0 ** 52, 2.0 ** 52 + 1.0,
               2.0 ** 53 + 2.0, 1e300, 1e308, -1e308, math.inf, -math.inf,
               math.nan, 5e-324]
    good = []
    for v in values:
        try:
            want = _scalar_half_int(v, "site")
        except ValueError:
            with pytest.raises(ValueError, match=re.escape(
                    f"site={v!r} is not a half-integer")):
                _half_ints(v, "site")
            with pytest.raises(ValueError, match=re.escape(f"--k={v!r} is")):
                _half_ints([0.5, v, 1.0], "--k")  # the first bad site
            continue
        got = _half_ints(v, "site")
        assert got.dtype == np.int64 and got.shape == () and int(got) == want
        good.append((v, want))
    assert len(good) == 22
    sites, want = zip(*good)
    got = _half_ints(np.reshape(sites, (2, 11)), "site")
    assert got.shape == (2, 11) and got.ravel().tolist() == list(want)
    assert _half_ints([], "site").shape == (0,)


def test_kernel_matrix_names_a_site_that_is_not_a_half_integer():
    band = coefficient_band(HoppingCoefficients((1.0, -1.0 / 3.0), theta=2.0))
    for bad in (2.0, 1.25, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"site={bad!r} is not a half-integer"):
            kernel_matrix(band, [0.5, -3.5, bad, 7.5])
    assert kernel_matrix(band, []).shape == (0, 0)


def test_kernel_matrix_memory_stays_near_one_matrix():
    # the 4064-site Fredholm window of cdf --gamma 1 --theta 20
    # --ell-range 0:4000; index arrays the size of the matrix would pass 3x
    band = coefficient_band(HoppingCoefficients((1.0,), theta=20.0))
    size = 4064
    sites = size - 0.5 - np.arange(size)
    tracemalloc.start()
    try:
        mat = kernel_matrix(band, sites)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mat.shape == (size, size)
    assert peak <= 3 * size * size * 8
    assert mat[-1, -1] == pytest.approx(kernel_eval(band, 0.5, 0.5), abs=1e-14)


def _cauchy_log_bound(theta, gammas, n, t):
    # log of Cauchy's estimate of |J_n| on the circles |z| = e^{+-t}
    return sum(2.0 * theta * abs(g) * np.sinh(r * t)
               for r, g in enumerate(gammas, start=1)) - abs(n) * t


@given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3),
       st.floats(0.0, 200.0))
@settings(max_examples=40, deadline=None)
def test_support_half_width_is_the_least_certified_index(gammas, theta):
    n = _support_half_width(theta, tuple(gammas))
    assert n >= 1
    if n > 1:
        # one index less: no circle puts the estimate under the tolerance
        ts = np.geomspace(1e-4, 700.0 / len(gammas), 20001)
        assert np.min(_cauchy_log_bound(theta, gammas, n - 1, ts)) \
            >= math.log(BAND_SUPPORT_TOL) - 1e-9


def _reference_support_half_width(theta, gammas):
    # the bisection as first written: generator sums, all 60 steps
    terms = [(r, 2.0 * theta * abs(g)) for r, g in enumerate(gammas, start=1)
             if g != 0.0]
    c = -math.log(BAND_SUPPORT_TOL)
    if theta == 0.0 or not terms:
        return 1
    t_max = 700.0 / terms[-1][0]
    h = lambda t: sum(a * math.sinh(r * t) for r, a in terms)
    excess = lambda t: sum(a * (r * t * math.cosh(r * t) - math.sinh(r * t))
                           for r, a in terms) - c
    lo, t = 0.0, min(1.0, t_max)
    while excess(t) < 0.0 and t < t_max:
        lo, t = t, min(2.0 * t, t_max)
    for _ in range(60):
        mid = 0.5 * (lo + t)
        if excess(mid) < 0.0:
            lo = mid
        else:
            t = mid
    width = (h(t) + c) / t
    return math.floor(width) + 1 if math.isfinite(width) else math.inf


def test_support_half_width_matches_the_reference_bisection():
    rng = np.random.default_rng(20261020)
    cases = [(1.45e-89, (0.0, 0.0, 1.0)), (1.0, (3.9e-140,)), (0.0, (1.0,)),
             (3.0, ()), (1150.0, (1.0,) * 12), (40.0, (1.0, -1.0 / 3.0))]
    for _ in range(3000):
        size = int(rng.integers(1, 13))
        kind = rng.integers(0, 3, size=size)
        weights = np.where(kind == 0, 0.0, rng.uniform(-1.0, 1.0, size))
        weights = np.where(kind == 2, np.sign(weights) * 10.0 ** rng.uniform(
            -150.0, 2.0, size), weights)
        cases.append((float(10.0 ** rng.uniform(-90.0, 5.0)),
                      tuple(weights.tolist())))
    for theta, gammas in cases:
        assert _support_half_width(theta, gammas) == \
            _reference_support_half_width(theta, gammas), (theta, gammas)
    # 2 theta |gamma_1| overflows: no band is certified
    assert _support_half_width(1e308, (1.0,)) == math.inf
    assert _reference_support_half_width(1e308, (1.0,)) == math.inf


@pytest.mark.parametrize("gammas,theta", [
    ((1.0, -1.0 / 3.0), 0.7), ((1.0, -1.0 / 3.0), 2.9), ((1.0, -1.0 / 3.0), 41.3),
    ((1.0, 0.1), 79.0), ((1.0, -0.125), 201.0), ((0.5, 0.2, -0.1), 6.0),
    ((1.0,), 4.0), ((1.0,), 30.0), ((0.0, 0.0, 1.0), 30.0)])
def test_cached_waves_give_the_uncached_tables(monkeypatch, gammas, theta):
    c = HoppingCoefficients(gammas, theta=theta)
    ells = np.arange(0, int(3 * theta) + 8)
    cached = (coefficient_band(c).coeffs, exact_cdf(c, ells))
    monkeypatch.setattr(potential_mod, "WAVE_CACHE_ENTRIES", 0)
    uncached = (coefficient_band(c).coeffs, exact_cdf(c, ells))
    assert np.array_equal(cached[0], uncached[0])
    assert np.array_equal(cached[1], uncached[1])


def test_band_past_the_wave_cache_bound_leaves_the_cache_as_it_was():
    c = HoppingCoefficients((1.0,), theta=8200.0)
    n = _support_half_width(c.theta, c.gammas)
    assert 1 << (4 * n + 3).bit_length() > potential_mod.WAVE_CACHE_ENTRIES
    before = _cached_wave.cache_info().currsize
    band = coefficient_band(c)
    assert band.half_width == n
    assert _cached_wave.cache_info().currsize == before


@pytest.mark.parametrize("theta", [20.0, 120.0])
def test_trimmed_band_is_bessel_and_certified(theta):
    # gamma = (1,): F(z) = exp(theta (z - 1/z)), so J_n = J_n(2 theta)
    mp = pytest.importorskip("mpmath")
    band = coefficient_band(HoppingCoefficients((1.0,), theta=theta))
    n = band.half_width
    want = np.array([float(mp.besselj(i, 2.0 * theta)) for i in range(n + 1)])
    noise = BAND_TAIL_TOL * 2.0 * theta  # the FFT's phase roundoff scale
    assert np.max(np.abs(band.coeffs[n:] - want)) <= noise
    assert np.max(np.abs(band.coeffs[n::-1] - want * (-1.0) ** np.arange(n + 1))) \
        <= noise
    beyond = [abs(float(mp.besselj(i, 2.0 * theta))) for i in range(n, n + 40)]
    assert max(beyond) < BAND_SUPPORT_TOL


@given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3),
       st.floats(0.0, 80.0), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_band_trim_drops_only_roundoff(gammas, theta, seed):
    c = HoppingCoefficients(tuple(gammas), theta=theta)
    log_f = lambda phi: 1j * c.theta * eval_dispersion(c, phi, order=-1)
    n = _support_half_width(c.theta, c.gammas)
    # the band's one grid: the least power of two >= max(256, 4 (N + 1))
    size = max(256, 2 ** math.ceil(math.log2(4 * (n + 1))))
    fft, _ = _fft_band(log_f, size, "untrimmed band")
    half = size // 2
    dropped = np.concatenate([fft[:half - n], fft[half + n + 1:]])
    scale = max(1.0, 2.0 * c.theta * sum(abs(g) for g in c.gammas))
    if np.max(np.abs(dropped)) >= BAND_TAIL_TOL * scale:
        with pytest.raises(BandTooNarrow):
            coefficient_band(c)
        return
    band = coefficient_band(c)
    assert band.half_width == n
    assert np.array_equal(band.coeffs, fft[half - n:half + n + 1])
    assert float(np.dot(band.coeffs, band.coeffs)) == pytest.approx(1.0, abs=1e-12)
    # the untrimmed band moves a kernel value by at most its dropped part
    # (Cauchy-Schwarz, sum J^2 = 1) plus rounding; tail traces stay within
    # rounding of their size
    full = CoefficientBand(half_width=half - 1, coeffs=fft[1:])
    eps = float(np.linalg.norm(dropped))
    rng = np.random.default_rng(seed)
    for k, ell in rng.integers(-n - 3, n + 3, size=(20, 2)) + 0.5:
        assert abs(kernel_eval(band, k, ell) - kernel_eval(full, k, ell)) \
            <= 2.0 * eps + eps * eps + 1e-15
    for above in rng.integers(-n - 3, n + 3, size=5):
        for trace, cut in ((tail_trace, above), (left_trace, above - 5)):
            want = trace(full, cut)
            assert abs(trace(band, cut) - want) <= 1e-15 * max(1.0, want)


def test_band_refuses_a_support_it_cannot_certify(monkeypatch):
    c = HoppingCoefficients((1.0, -1.0 / 3.0), theta=20.0)
    # too narrow: the FFT values dropped past N = 40 are not roundoff
    monkeypatch.setattr(kernel_mod, "_support_half_width", lambda *a: 40)
    with pytest.raises(BandTooNarrow, match="beyond the certified support 40"):
        coefficient_band(c)


def test_band_past_the_desk_bound_is_refused_before_any_fft(monkeypatch):
    # theta = 3e5 ran a 2^22-point FFT only to raise BandTooNarrow, 1e9 asked
    # for 64 GiB, and 1e308 overflowed the support estimate
    def unbuilt(*args):
        raise AssertionError("FFT run past the desk bound")

    monkeypatch.setattr(kernel_mod, "_fft_band", unbuilt)
    for theta in (3e5, 1e9, 1e300, 1e308):
        with pytest.raises(ValueError, match=re.escape(f"theta={theta!r}")):
            coefficient_band(HoppingCoefficients((1.0,), theta=theta))
    # the widest band measured to build (twelve equal weights) stays under it
    assert _support_half_width(1150.0, (1.0,) * 12) <= MAX_BAND_HALF_WIDTH


@pytest.mark.parametrize("gammas,theta", [((1.0,), 2.5e4), ((0.0,) * 7 + (1.0,), 1000.0)])
def test_band_at_large_coupling_is_not_refused_for_fft_roundoff(gammas, theta):
    # the imaginary residue is phase roundoff, 1.0-1.8e-13 here; held to an
    # absolute 1e-13, these raised BandTooNarrow
    band = coefficient_band(HoppingCoefficients(gammas, theta=theta))
    assert band.half_width == _support_half_width(theta, gammas)
    assert float(np.dot(band.coeffs, band.coeffs)) == pytest.approx(1.0, abs=1e-12)


def test_tail_trace_is_the_dropped_diagonal():
    band = coefficient_band(HoppingCoefficients((1.0, -1.0 / 3.0), theta=3.0))
    n = band.half_width
    right = sum(kernel_eval(band, k + 0.5, k + 0.5) for k in range(4, n + 1))
    left = sum(1.0 - kernel_eval(band, k + 0.5, k + 0.5)
               for k in range(-n - 1, -6))
    assert tail_trace(band, 4) == pytest.approx(right, abs=1e-15)
    # the reference adds ~2n terms 1 - K(k, k), each rounded to ~1e-16
    assert left_trace(band, -6) == pytest.approx(left, abs=1e-12)
    # arrays of cuts, past both ends of the band too, give the per-cut sums,
    # and nothing is dropped from the band's end N up
    i = np.arange(-n, n + 1)
    squares = band.coeffs * band.coeffs
    cuts = np.arange(-n - 4, n + 5)
    right = [np.dot(np.maximum(i - a, 0), squares) for a in cuts]
    assert tail_trace(band, cuts) == pytest.approx(right, rel=1e-14, abs=0.0)
    assert not np.any(tail_trace(band, cuts[cuts >= n]))
    for below in (cuts - 7, np.full(cuts.shape, n + 3)):
        left = [np.dot(np.maximum(b - i, 0), squares) for b in below]
        assert left_trace(band, below) == pytest.approx(left, rel=1e-14,
                                                        abs=0.0)


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
    x = (k - profile.b * c.theta) / scale
    assert edge_prediction(profile, c.theta, k, k) == pytest.approx(
        2.0 * airy_kernel(1, x, x) / scale, rel=1e-10)


def test_edge_prediction_unsupported():
    profile = edge_profile(HoppingCoefficients((1.0, 0.1)))
    with pytest.raises(UnsupportedEdge):
        edge_prediction(profile, 50.0, 120.5, 120.5)
