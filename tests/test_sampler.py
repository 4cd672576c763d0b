"""Determinantal sampler: exactness, marginals, reproducibility, shapes."""

import itertools
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitsea import edge as edge_mod
from splitsea.edge import TRACE_TOL, _gap_table, fredholm_cdf_check
from splitsea.errors import LeakageTooLarge
from splitsea.kernel import coefficient_band, kernel_matrix, tail_trace
from splitsea.potential import (HoppingCoefficients, edge_profile,
                                global_extrema, limit_shape)
from splitsea import sampler as sampler_mod
from splitsea.sampler import (WindowedKernel, _philox_state, _rng_for,
                              _sample_batch, _selections, empirical_edge_law,
                              sample, sample_many, windowed_kernel)
from conftest import full_window, left_trace


def _projection_toy(seed=5, sites=6, rank=2):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(sites, rank)))
    return WindowedKernel(k_lo_int=0, k_hi_int=sites - 1, matrix=q @ q.T,
                          eigenvalues=np.ones(rank), eigenvectors=q,
                          leakage=0.0)


def test_projection_toy_distribution():
    wk = _projection_toy()
    k = wk.matrix
    exact = {s: float(np.linalg.det(k[np.ix_(s, s)]))
             for s in itertools.combinations(range(6), 2)}
    assert sum(exact.values()) == pytest.approx(1.0, abs=1e-12)
    n = 30000
    counts = {}
    for conf in sample_many(wk, n, 7):
        key = tuple(int(v - 0.5) for v in conf)
        counts[key] = counts.get(key, 0) + 1
    tv = 0.5 * sum(abs(counts.get(s, 0) / n - p) for s, p in exact.items())
    assert tv < 0.02


def test_windowed_kernel_properties():
    c = HoppingCoefficients((1.0, -1.0 / 3.0), theta=6.0)
    wk, leakage = full_window(c)
    assert leakage < 1e-6
    assert np.allclose(wk.matrix, wk.matrix.T, atol=1e-12)
    assert wk.eigenvalues.min() >= 0.0 and wk.eigenvalues.max() <= 1.0
    # trace = expected particle count; compare to the limit-shape prediction
    # theta * integral of the density above the window floor (O(1) corrections)
    from splitsea.potential import limit_shape
    x_lo = wk.k_lo_int / c.theta
    predicted = c.theta * 0.5 * (limit_shape(c, x_lo) - x_lo)
    assert float(np.trace(wk.matrix)) == pytest.approx(predicted, abs=2.0)
    # the least window, found one scalar trace at a time: the top is the
    # least cut whose right trace is under half the bound, the bottom the
    # largest cut whose left trace is
    band, half, n = wk.band, 0.5e-6, wk.band.half_width
    top = next(a for a in range(n + 1) if tail_trace(band, a) < half)
    bottom = next(b for b in range(0, -n - 1, -1)
                  if left_trace(band, b) < half)
    assert (wk.k_lo_int, wk.k_hi_int) == (bottom, top - 1)


def test_windowed_kernel_leakage_guard():
    c = HoppingCoefficients((1.0,), theta=4.0)
    with pytest.raises(LeakageTooLarge):
        # a window that truncates straight through the bulk leaks badly
        windowed_kernel(c, window=None, leakage_tol=1e-30)


def test_caller_given_window_meets_the_leakage_bound():
    # five sites through the bulk drop 2.84 expected particles, against the
    # default bound of 1e-6; the bound used to hold for automatic windows only
    c = HoppingCoefficients((1.0,), theta=4.0)
    with pytest.raises(LeakageTooLarge, match="window"):
        windowed_kernel(c, window=(-2, 2))


def _loop_projection(vectors, rng):
    """Reference: one projection-DPP draw as a per-site loop on one frame."""
    v = vectors
    n, rank = v.shape
    c = np.zeros((n, rank))
    norms2 = np.sum(v * v, axis=1)
    cdf = np.empty(n)
    chosen = np.empty(rank, dtype=np.int64)
    for it in range(rank):
        np.maximum(norms2, 0.0, out=cdf)
        cdf.cumsum(out=cdf)
        cdf /= cdf[-1]
        site = int(cdf.searchsorted(rng.random(), side="right"))
        chosen[it] = site
        denom = math.sqrt(max(norms2[site], 1e-300))
        c[:, it] = (v @ v[site] - c[:, :it] @ c[site, :it]) / denom
        norms2 -= c[:, it] ** 2
        norms2[site] = 0.0
    return chosen


def _stream(seed, index):
    """The keyed stream of draw (seed, index), built independently: each key
    word modulo 2^64, in a uint64 array (a key list mixing a word past 2^63
    with a smaller one would pass through float64)."""
    key = np.array([seed % 2 ** 64, index % 2 ** 64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _loop_sample(wk, seed, index):
    """Reference: the draw (seed, index) taken on its own by the loop above."""
    rng = _stream(seed, index)
    keep = rng.random(len(wk.eigenvalues)) < wk.eigenvalues
    idx = _loop_projection(wk.eigenvectors[:, keep], rng)
    return wk.k_lo_int + 0.5 + np.sort(idx)


def _choice_projection(vectors, rng):
    """Reference: the projection sampler drawing each site with rng.choice."""
    n, rank = vectors.shape
    c = np.zeros((n, rank))
    norms2 = np.sum(vectors * vectors, axis=1)
    avail = np.ones(n, dtype=bool)
    chosen = []
    for it in range(rank):
        probs = np.maximum(norms2 * avail, 0.0)
        site = int(rng.choice(n, p=probs / probs.sum()))
        chosen.append(site)
        avail[site] = False
        proj = vectors @ vectors[site] - c[:, :it] @ c[site, :it]
        c[:, it] = proj / math.sqrt(max(norms2[site], 1e-300))
        norms2 = norms2 - c[:, it] ** 2
    return chosen


def test_projection_draw_matches_choice_reference():
    # one uniform located in the cumulative weights is what rng.choice does;
    # the sums differ only in rounding, so the drawn sites agree
    wk, _ = full_window(HoppingCoefficients((1.0, -1.0 / 3.0), theta=8.0))
    drawn = _sample_batch(wk, 3, range(200))
    for i in range(200):
        rng = _stream(3, i)
        keep = rng.random(len(wk.eigenvalues)) < wk.eigenvalues
        want = sorted(_choice_projection(wk.eigenvectors[:, keep], rng))
        assert list(drawn[i] - wk.k_lo_int - 0.5) == want


@pytest.mark.parametrize("case,n", [("toy", 5000), ("edge-window", 100),
                                    ("full-window", 300),
                                    ("full-window-40", 20)])
def test_batched_draws_equal_the_per_draw_loop(case, n):
    if case == "toy":
        wk = _projection_toy()
    elif case == "edge-window":
        wk = windowed_kernel(HoppingCoefficients((1.0, -1.0 / 3.0), theta=40.3))
    elif case == "full-window":
        wk, _ = full_window(HoppingCoefficients((1.0,), theta=12.0))
    else:  # 237 sites, rank about 152: seven draws per chunk
        wk, _ = full_window(HoppingCoefficients((1.0, -1.0 / 3.0), theta=40.0))
    batched = sample_many(wk, n, 7)
    assert len(batched) == n
    for i, conf in enumerate(batched):
        assert np.array_equal(conf, _loop_sample(wk, 7, i))


def test_batched_draws_ignore_chunks_order_and_threads(monkeypatch):
    wk, _ = full_window(HoppingCoefficients((1.0,), theta=12.0))
    want = sample_many(wk, 60, 4)
    shuffled = np.random.default_rng(1).permutation(60)
    got = _sample_batch(wk, 4, shuffled)
    assert all(np.array_equal(got[j], want[i]) for j, i in enumerate(shuffled))
    for budget in (1, 50_000, 2 ** 30):  # one draw per chunk up to one chunk
        monkeypatch.setattr(sampler_mod, "FRAME_BUDGET", budget)
        got = sample_many(wk, 60, 4)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    monkeypatch.undo()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(_sample_batch, wk, 4, range(lo, lo + 15))
                       for lo in (0, 15, 30, 45) * 2]
            drawn = [d for f in futures for d in f.result(timeout=120)]
    finally:
        sys.setswitchinterval(switch)
    assert all(np.array_equal(a, b) for a, b in zip(drawn, want * 2))


def _gap(band, lo, hi):
    """det(I - K) over the sites lo + 1/2 .. hi + 1/2: none of them occupied."""
    mat = kernel_matrix(band, np.arange(lo, hi + 1) + 0.5)
    return float(np.linalg.det(np.eye(len(mat)) - mat))


@pytest.mark.parametrize("gammas,theta", [
    ((1.0, -1.0 / 3.0), 4.0), ((1.0, -1.0 / 3.0), 20.0),
    ((1.0, -1.0 / 3.0), 40.3), ((1.0, -1.0 / 3.0), 80.0),
    ((1.0, 0.1), 40.0), ((1.0, -0.125), 40.0),
    # near the m = 2 crossover gamma_2 -> -1/8, where the edge spreads far
    # past b theta - 8 (d theta)^(1/3): these were refused (LeakageTooLarge)
    ((1.0, -0.1265), 24.5), ((1.0, -0.1159), 13.69), ((1.0, -0.124), 30.0)])
def test_edge_window_is_the_least_meeting_each_half_of_the_bound(gammas, theta):
    c = HoppingCoefficients(gammas, theta=theta)
    band = coefficient_band(c)
    wk = windowed_kernel(c)
    lo, hi = wk.k_lo_int, wk.k_hi_int
    full, _ = full_window(c)  # the same top, inside the full window
    assert full.k_lo_int <= lo <= hi == full.k_hi_int
    assert wk.leakage < 1e-6
    half = 0.5e-6  # each side's share of the default leakage_tol
    assert tail_trace(band, hi + 1) < half and _gap(band, lo, hi) < half
    # one site inward on either side breaks that side's half
    assert tail_trace(band, hi) >= half
    assert _gap(band, lo + 1, hi) >= half


@pytest.mark.parametrize("gammas,theta", [
    ((1.0,), 4.0), ((1.0,), 12.0), ((1.0, -1.0 / 3.0), 6.0),
    ((1.0, -1.0 / 3.0), 40.0), ((1.0, 0.1), 40.0), ((1.0, -0.1265), 24.5),
    # every site is frozen or empty to within 2.4e-8: the window is empty
    ((1.0, -1.0 / 3.0), 1e-4)])
def test_full_window_is_the_least_meeting_each_half_of_the_bound(gammas, theta):
    c = HoppingCoefficients(gammas, theta=theta)
    band = coefficient_band(c)
    wk, leakage = full_window(c)
    lo, hi = wk.k_lo_int, wk.k_hi_int
    half = 0.5e-6
    # the right trace past the top, the left trace (holes) below the bottom
    assert tail_trace(band, hi + 1) < half <= tail_trace(band, hi)
    assert left_trace(band, lo) < half <= left_trace(band, lo + 1)
    assert leakage == tail_trace(band, hi + 1) + left_trace(band, lo) < 1e-6
    assert all(np.isin(conf, wk.sites).all() for conf in sample_many(wk, 3, 1))


def test_full_window_helper_gives_the_least_full_windows():
    # the full windows windowed_kernel built itself before it kept only
    # edge windows, each leaking under the bound
    for theta, window, sites, leakage in (
            (40.0, (-152, 84), 237, 8.323283740030058e-07),
            (120.0, (-427, 228), 656, 7.593440293002768e-07)):
        wk, leak = full_window(HoppingCoefficients((1.0, -1.0 / 3.0), theta=theta))
        assert (wk.k_lo_int, wk.k_hi_int) == window
        assert len(wk.sites) == sites
        assert leak == pytest.approx(leakage, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("theta", [20.0, 40.0])
def test_edge_window_leakage_is_exact_gap_probability(theta):
    c = HoppingCoefficients((1.0, -1.0 / 3.0), theta=theta)
    wk = windowed_kernel(c)
    band = coefficient_band(c)
    ell_min, top = wk.k_lo_int, wk.k_hi_int
    full, _ = full_window(c)
    assert full.k_lo_int < ell_min <= top == full.k_hi_int
    gap = float(np.linalg.det(np.eye(len(wk.sites)) - wk.matrix))
    right = tail_trace(band, top + 1)
    assert gap < 0.5e-6 <= _gap(band, ell_min + 1, top)
    assert right < 0.5e-6 <= tail_trace(band, top)
    # an empty window: k_max left of it, or particles right of it only
    diff = gap - fredholm_cdf_check(c, ell_min)
    assert -1e-12 <= diff <= right + 1e-12
    assert wk.leakage == pytest.approx(gap + right, abs=1e-12)
    assert wk.leakage < 1e-6
    # a window starting at the edge misses k_max with probability ~0.94;
    # its top is the full window's at a bound of 1e-20, so the right trace
    # it drops stays under the tolerance below
    hi = full_window(c, leakage_tol=1e-20)[0].k_hi_int
    ell = round(global_extrema(c)[0] * theta)
    near = windowed_kernel(c, window=(ell, hi), leakage_tol=2.0)
    assert near.leakage - tail_trace(band, hi + 1) == pytest.approx(
        fredholm_cdf_check(c, ell), abs=1e-12)


def test_edge_window_leakage_guard():
    c = HoppingCoefficients((1.0, -1.0 / 3.0), theta=20.0)
    wk = windowed_kernel(c)
    assert wk.leakage > 1e-300
    with pytest.raises(LeakageTooLarge):
        windowed_kernel(c, leakage_tol=1e-300)
    # the bound is exclusive: leakage == tol fails
    with pytest.raises(LeakageTooLarge):
        windowed_kernel(c, window=(wk.k_lo_int, wk.k_hi_int),
                        leakage_tol=wk.leakage)


def test_tolerance_under_the_band_roundoff_floor_is_refused():
    # over the whole band the exact traces are 0.0, and a table or window
    # at 1e-300 reported them as met; the band's own FFT roundoff carries
    # about 2e-25 of trace here
    c = HoppingCoefficients((1.0, -1.0 / 3.0), theta=40.0)
    band = coefficient_band(c)
    assert 1e-26 < band.trace_floor < 1e-24
    with pytest.raises(ValueError, match="trace_tol"):
        fredholm_cdf_check(c, 60, trace_tol=1e-300)
    n = band.half_width
    with pytest.raises(LeakageTooLarge, match="leakage_tol"):
        windowed_kernel(c, window=(-n, n), leakage_tol=1e-300)
    assert windowed_kernel(c, window=(-n, n)).leakage == 0.0


def test_infinite_leakage_tolerance_is_refused():
    # an infinite bound certified any window: at theta = 40 an automatic
    # edge window leaking 29.9 was reported as meeting it
    c = HoppingCoefficients((1.0, -1.0 / 3.0), theta=40.0)
    for window in (None, (20, 30)):
        with pytest.raises(LeakageTooLarge, match="leakage_tol"):
            windowed_kernel(c, window=window, leakage_tol=math.inf)


def _block_reads_equal_separate_builds(coeffs):
    """The automatic window of ``coeffs``, after checking that its window
    matrix, its search's rows and ``ks_exact``'s rows, all read from its one
    block, equal separate ``kernel_matrix`` and ``_gap_table`` builds."""
    wk = windowed_kernel(coeffs)
    band, gaps = wk.band, wk.gaps
    lo, hi = wk.k_lo_int, wk.k_hi_int
    assert np.array_equal(wk.matrix, kernel_matrix(band, wk.sites))
    # the last search's rows start at the block's bottom (or below ell = -1,
    # whose rows are 0); k_max runs over the window, so ks_exact's rows over
    # lo..hi + 2, and from lo - 1 when a draw is empty
    search = np.arange(gaps.top - len(gaps.kernel), hi + 1)
    ks = np.arange(lo, hi + 3)
    with mock.patch.object(edge_mod, "kernel_matrix", wraps=kernel_matrix) as built:
        search_rows = _gap_table(band, search, 0.5e-6, gaps)
        ks_rows = _gap_table(band, ks, TRACE_TOL, gaps)
    assert built.call_count == 0  # both read off the block
    assert np.array_equal(search_rows, _gap_table(band, search, 0.5e-6))
    assert np.array_equal(ks_rows, _gap_table(band, ks, TRACE_TOL))
    assert np.array_equal(_gap_table(band, ks - 1, TRACE_TOL, gaps),
                          _gap_table(band, ks - 1, TRACE_TOL))
    # the window's bottom is the search's largest row under half the bound
    at = lo - search[0]
    assert search_rows[at] < 0.5e-6 <= search_rows[at + 1:].min(initial=1.0)
    return wk


@given(st.floats(-0.45, 0.45), st.floats(0.5, 60.0))
@settings(max_examples=25, deadline=None)
def test_one_block_gives_the_window_and_both_tables(g2, theta):
    _block_reads_equal_separate_builds(HoppingCoefficients((1.0, g2), theta=theta))


@pytest.mark.parametrize("gammas,theta", [
    ((1.0, -0.1265), 24.5), ((1.0, -0.1159), 13.69), ((1.0, -0.124), 30.0),
    ((1.0,), 0.5)])
def test_one_block_near_the_crossover_and_below_ell_zero(gammas, theta):
    # the crossover models' searches extend once below their first guess,
    # and (1,) at 0.5 has its window's bottom at ell = -1
    c = HoppingCoefficients(gammas, theta=theta)
    wk = _block_reads_equal_separate_builds(c)
    guess = edge_profile(c).lattice_of(-8.0, theta)
    bottom = wk.gaps.top - len(wk.gaps.kernel)
    if theta == 0.5:
        assert wk.k_lo_int == bottom == -1
    else:
        assert bottom == max(2 * guess - wk.k_hi_int - 1, -1) < guess


def test_selections_give_the_keyed_philox_streams():
    # one state dict per call, re-keyed per draw: each row is the stream of
    # a fresh Philox(key=[seed mod 2^64, index mod 2^64]), also for key
    # words at and past 2^63
    wk = windowed_kernel(HoppingCoefficients((1.0, -1.0 / 3.0), theta=20.0))
    n = len(wk.eigenvalues)
    width = n + np.count_nonzero(wk.eigenvalues > 0.0)
    indices = [0, 1, 2 ** 63, 2 ** 63 + 7, 2 ** 64 - 1]
    for seed in (-1, 0, 2 ** 64 - 1):
        keep, uniforms = _selections(wk, seed, indices)
        for row, index in enumerate(indices):
            ref = _stream(seed, index).random(width)
            assert np.array_equal(keep[row], ref[:n] < wk.eigenvalues)
            assert np.array_equal(uniforms[row], ref[n:])
    # one dict re-keyed across seeds and indices, never one of the module
    state = _philox_state()
    rng = np.random.Generator(np.random.Philox(0))
    for seed, index in ((-1, 2 ** 63), (2 ** 64 - 1, -1), (0, 2 ** 64 + 3)):
        got = _rng_for(seed, index, rng, state).random(6)
        assert np.array_equal(got, _stream(seed, index).random(6))
    assert _philox_state() is not _philox_state()
    assert not [name for name, v in vars(sampler_mod).items()
                if isinstance(v, dict) and "bit_generator" in v]


def test_edge_law_draws_are_deterministic_per_seed():
    c = HoppingCoefficients((1.0, -1.0 / 3.0), theta=40.0)
    a = empirical_edge_law(c, 200, seed=4).k_max
    b = empirical_edge_law(c, 200, seed=4).k_max
    assert np.array_equal(a, b)
    assert not np.array_equal(a, empirical_edge_law(c, 200, seed=5).k_max)


def test_degenerate_coupling_is_domain_wall():
    c = HoppingCoefficients((1.0,), theta=0.0)
    wk = windowed_kernel(c, window=(-4, 3))
    for i in range(5):
        conf = sample(wk, 3, i)
        assert list(conf) == [-3.5, -2.5, -1.5, -0.5]


def test_sampler_marginals_match_diagonal():
    c = HoppingCoefficients((1.0,), theta=12.0)
    wk, _ = full_window(c)
    n = 8000
    occ = np.zeros(len(wk.sites))
    for conf in sample_many(wk, n, 11):
        occ += np.isin(wk.sites, conf)
    emp = occ / n
    diag = np.diag(wk.matrix)
    se = np.sqrt(np.maximum(diag * (1.0 - diag), 1e-12) / n)
    frac_ok = np.mean(np.abs(emp - diag) <= 3.0 * se + 1e-9)
    assert frac_ok >= 0.95


def test_pair_correlation_matches_minor():
    c = HoppingCoefficients((1.0,), theta=3.0)
    wk, _ = full_window(c)
    sites = wk.sites
    i, j = np.searchsorted(sites, 0.5), np.searchsorted(sites, 1.5)
    want = float(np.linalg.det(wk.matrix[np.ix_([i, j], [i, j])]))
    n = 12000
    hits = 0
    for conf in sample_many(wk, n, 19):
        hits += (0.5 in conf) and (1.5 in conf)
    emp = hits / n
    se = math.sqrt(want * (1 - want) / n)
    assert abs(emp - want) <= 4.0 * se


def test_number_variance_bounded_by_mean():
    c = HoppingCoefficients((1.0, -1.0 / 3.0), theta=8.0)
    wk, _ = full_window(c)
    n = 3000
    counts = np.array([np.sum(conf > 0.5) for conf in sample_many(wk, n, 21)])
    mean, var = float(np.mean(counts)), float(np.var(counts, ddof=1))
    se_var = var * math.sqrt(2.0 / (n - 1))
    assert var <= mean + 4.0 * se_var


def test_determinism_bitwise():
    c = HoppingCoefficients((1.0, -1.0 / 3.0), theta=5.0)
    wk, _ = full_window(c)
    a = sample_many(wk, 10, seed=42)
    b = sample_many(wk, 10, seed=42)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not all(np.array_equal(x, y)
                   for x, y in zip(a, sample_many(wk, 10, seed=43)))


def test_keyed_streams_survive_interleaving_and_threads():
    # sample() re-keys one Generator per thread: each draw is the stream of
    # a new Philox(key=[seed, index]), however seeds and threads interleave
    wk, _ = full_window(HoppingCoefficients((1.0, -1.0 / 3.0), theta=8.0))
    shared = _stream(5, 5)
    for seed, index in itertools.product((0, 2, -1, 2 ** 64 - 1),
                                         (0, 3, 2 ** 40, 2 ** 63 + 7)):
        shared.integers(0, 2 ** 31, dtype=np.uint32)  # leaves half a word
        fresh = np.random.Generator(np.random.Philox(0))
        for rng in (_rng_for(seed, index, fresh),
                    _rng_for(seed, index, shared)):
            ref = _stream(seed, index)
            assert np.array_equal(rng.integers(0, 2 ** 31, 5, dtype=np.uint32),
                                  ref.integers(0, 2 ** 31, 5, dtype=np.uint32))
            assert np.array_equal(rng.random(9), ref.random(9))
    keys = [(seed, i) for i in range(12) for seed in (1, 2)]
    apart = {(seed, i): sample(wk, seed, i)
             for seed in (1, 2) for i in range(12)}
    assert all(np.array_equal(sample(wk, *k), apart[k]) for k in keys)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(sample, wk, *k) for k in keys * 4]
            drawn = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(switch)
    assert all(np.array_equal(d, apart[k]) for d, k in zip(drawn, keys * 4))


def test_empirical_edge_law_small():
    c = HoppingCoefficients((1.0, -1.0 / 3.0), theta=10.0)
    rep = empirical_edge_law(c, 600, seed=2)
    # KS against the exact law at the 1% level
    assert rep.ks_exact < 1.63 / math.sqrt(600)


def test_limit_table_is_built_once_per_law_and_read_only(monkeypatch):
    # every sample command evaluated F_{2m+1}^n on its 201-point grid anew;
    # the table depends on (m, n, points) only, and its row is the law
    # file's stack
    calls = []
    table = edge_mod.limiting_cdf
    monkeypatch.setattr(edge_mod, "limiting_cdf",
                        lambda *a: calls.append(a[:2]) or table(*a))
    edge_mod._desk_law.cache_clear()
    s_grid, limit = edge_mod._desk_law(1, 2, 201)
    assert edge_mod._desk_law(1, 2, 201)[1] is limit
    edge_mod._desk_law(1, 1, 201)
    assert calls == [(1, 2), (1, 1)]
    assert np.array_equal(s_grid, np.linspace(-6.0, 4.0, 201))
    assert np.array_equal(limit, table(1, 2, np.linspace(-6.0, 4.0, 201)))
    with pytest.raises(ValueError):
        limit[0] = 0.0
    with pytest.raises(ValueError):
        s_grid[0] = 0.0
    c = HoppingCoefficients((1.0, -1.0 / 3.0), theta=10.0)
    assert empirical_edge_law(c, 50, seed=1).ks_limit == \
        empirical_edge_law(c, 50, seed=1).ks_limit
    assert calls == [(1, 2), (1, 1)]  # (1, -1/3) has m = 1 and two cuts
    edge_mod._desk_law.cache_clear()


def test_edge_law_ks_convergence_trend():
    # deterministic seeded run: the scaled empirical law moves towards F_3^2
    ks = {}
    for th in (20.0, 80.0):
        c = HoppingCoefficients((1.0, -1.0 / 3.0), theta=th)
        rep = empirical_edge_law(c, 1200, seed=123)
        ks[th] = rep.ks_limit
    assert ks[80.0] < ks[20.0]


def limit_shape_deviation(coeffs, n_samples, seed):
    """Empirical sup-distance between N(x theta)/theta and its limit.

    For each sampled configuration the count of occupied sites above every
    window lattice point k, over theta, is compared with its limit
    int_{k/theta}^b rho = (Omega(k/theta) - k/theta)/2, exact from the closed
    form of :func:`limit_shape`; returns the 90th percentile of the
    per-sample sup and the window's leakage.
    """
    wk, leakage = full_window(coeffs)
    theta = coeffs.theta
    sites = wk.sites
    tail = np.array([0.5 * (limit_shape(coeffs, k / theta) - k / theta)
                     for k in sites])
    sups = np.empty(int(n_samples))
    for i, conf in enumerate(sample_many(wk, n_samples, seed)):
        # conf is sorted: count its sites above each k
        counts = len(conf) - np.searchsorted(conf, sites, side="right")
        sups[i] = float(np.max(np.abs(counts / theta - tail)))
    return float(np.percentile(sups, 90.0)), leakage


def test_limit_shape_deviation_shrinks():
    c_small = HoppingCoefficients((1.0, -1.0 / 3.0), theta=30.0)
    c_large = HoppingCoefficients((1.0, -1.0 / 3.0), theta=120.0)
    p90_small, leak_small = limit_shape_deviation(c_small, 30, seed=9)
    p90_large, leak_large = limit_shape_deviation(c_large, 30, seed=9)
    assert p90_large < p90_small
    assert leak_small < 1e-6 and leak_large < 1e-6
