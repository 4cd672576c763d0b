"""Determinantal sampler: exactness, marginals, reproducibility, shapes."""

import itertools
import math

import numpy as np
import pytest

from splitsea.edge import fredholm_cdf_check
from splitsea.errors import LeakageTooLarge
from splitsea.kernel import coefficient_band, tail_trace
from splitsea.potential import HoppingCoefficients, global_extrema
from splitsea.sampler import (WindowedKernel, _rng_for, _sample_projection,
                              auto_window, empirical_edge_law,
                              limit_shape_deviation, sample, sample_many,
                              windowed_kernel)


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
    for i in range(n):
        conf = tuple(int(v - 0.5) for v in sample(wk, 7, i))
        counts[conf] = counts.get(conf, 0) + 1
    tv = 0.5 * sum(abs(counts.get(s, 0) / n - p) for s, p in exact.items())
    assert tv < 0.02


def test_windowed_kernel_properties():
    c = HoppingCoefficients((1.0, -1.0 / 3.0), theta=6.0)
    wk = windowed_kernel(c)
    assert wk.leakage < 1e-6
    assert np.allclose(wk.matrix, wk.matrix.T, atol=1e-12)
    assert wk.eigenvalues.min() >= 0.0 and wk.eigenvalues.max() <= 1.0
    # trace = expected particle count; compare to the limit-shape prediction
    # theta * integral of the density above the window floor (O(1) corrections)
    from splitsea.potential import limit_shape
    x_lo = wk.k_lo_int / c.theta
    predicted = c.theta * 0.5 * (limit_shape(c, x_lo) - x_lo)
    assert float(np.trace(wk.matrix)) == pytest.approx(predicted, abs=2.0)
    lo, hi = auto_window(c)
    assert (wk.k_lo_int, wk.k_hi_int) == (lo, hi)


def test_windowed_kernel_leakage_guard():
    c = HoppingCoefficients((1.0,), theta=4.0)
    with pytest.raises(LeakageTooLarge):
        # a window that truncates straight through the bulk leaks badly
        windowed_kernel(c, window=None, leakage_tol=1e-30)


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
    wk = windowed_kernel(HoppingCoefficients((1.0, -1.0 / 3.0), theta=8.0))
    for i in range(200):
        rng = _rng_for(3, i)
        keep = rng.random(len(wk.eigenvalues)) < wk.eigenvalues
        ref_rng = _rng_for(3, i)
        ref_rng.random(len(wk.eigenvalues))
        vectors = wk.eigenvectors[:, keep]
        assert list(_sample_projection(vectors, rng)) == \
            _choice_projection(vectors, ref_rng)


@pytest.mark.parametrize("theta", [20.0, 40.0])
def test_edge_window_leakage_is_exact_gap_probability(theta):
    c = HoppingCoefficients((1.0, -1.0 / 3.0), theta=theta)
    wk = windowed_kernel(c, edge=True)
    ell_min = wk.k_lo_int
    assert (ell_min, wk.k_hi_int) == auto_window(c, edge=True)
    lo, hi = auto_window(c)
    assert lo < ell_min and wk.k_hi_int == hi
    gap = float(np.linalg.det(np.eye(len(wk.sites)) - wk.matrix))
    assert gap == pytest.approx(fredholm_cdf_check(c, ell_min), abs=1e-12)
    right = tail_trace(coefficient_band(c), hi + 1)
    assert wk.leakage == pytest.approx(gap + right, abs=1e-12)
    assert wk.leakage < 1e-6
    # a window starting at the edge misses k_max with probability ~0.94
    ell = round(global_extrema(c)[0] * theta)
    near = windowed_kernel(c, window=(ell, hi), leakage_tol=2.0, edge=True)
    assert near.leakage - right == pytest.approx(fredholm_cdf_check(c, ell),
                                                 abs=1e-12)


def test_edge_window_leakage_guard():
    c = HoppingCoefficients((1.0, -1.0 / 3.0), theta=20.0)
    leak = windowed_kernel(c, edge=True).leakage
    assert leak > 1e-300
    for tol in (1e-300, leak):  # the bound is exclusive: leakage == tol fails
        with pytest.raises(LeakageTooLarge):
            windowed_kernel(c, leakage_tol=tol, edge=True)


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
    wk = windowed_kernel(c)
    n = 8000
    occ = np.zeros(len(wk.sites))
    for i in range(n):
        occ += np.isin(wk.sites, sample(wk, 11, i))
    emp = occ / n
    diag = np.diag(wk.matrix)
    se = np.sqrt(np.maximum(diag * (1.0 - diag), 1e-12) / n)
    frac_ok = np.mean(np.abs(emp - diag) <= 3.0 * se + 1e-9)
    assert frac_ok >= 0.95


def test_pair_correlation_matches_minor():
    c = HoppingCoefficients((1.0,), theta=3.0)
    wk = windowed_kernel(c)
    sites = wk.sites
    i, j = np.searchsorted(sites, 0.5), np.searchsorted(sites, 1.5)
    want = float(np.linalg.det(wk.matrix[np.ix_([i, j], [i, j])]))
    n = 12000
    hits = 0
    for t in range(n):
        conf = sample(wk, 19, t)
        hits += (0.5 in conf) and (1.5 in conf)
    emp = hits / n
    se = math.sqrt(want * (1 - want) / n)
    assert abs(emp - want) <= 4.0 * se


def test_number_variance_bounded_by_mean():
    c = HoppingCoefficients((1.0, -1.0 / 3.0), theta=8.0)
    wk = windowed_kernel(c)
    n = 3000
    counts = np.array([np.sum(sample(wk, 21, i) > 0.5) for i in range(n)])
    mean, var = float(np.mean(counts)), float(np.var(counts, ddof=1))
    se_var = var * math.sqrt(2.0 / (n - 1))
    assert var <= mean + 4.0 * se_var


def test_determinism_bitwise():
    c = HoppingCoefficients((1.0, -1.0 / 3.0), theta=5.0)
    wk = windowed_kernel(c)
    a = sample_many(wk, 10, seed=42)
    b = sample_many(wk, 10, seed=42)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not all(np.array_equal(x, y)
                   for x, y in zip(a, sample_many(wk, 10, seed=43)))


def test_empirical_edge_law_small():
    from splitsea.edge import exact_cdf
    c = HoppingCoefficients((1.0, -1.0 / 3.0), theta=10.0)
    rep = empirical_edge_law(c, 600, seed=2,
                             exact_cdf_fn=lambda ell: exact_cdf(c, ell))
    # KS against the exact law at the 1% level
    assert rep.ks_exact < 1.63 / math.sqrt(600)


def test_edge_law_ks_convergence_trend():
    # deterministic seeded run: the scaled empirical law moves towards F_3^2
    from splitsea.airy import limiting_cdf
    ks = {}
    for th in (20.0, 80.0):
        c = HoppingCoefficients((1.0, -1.0 / 3.0), theta=th)
        rep = empirical_edge_law(c, 1200, seed=123,
                                 limit_cdf_fn=lambda s: limiting_cdf(1, 2, s))
        ks[th] = rep.ks_limit
    assert ks[80.0] < ks[20.0]


def test_limit_shape_deviation_shrinks():
    c_small = HoppingCoefficients((1.0, -1.0 / 3.0), theta=30.0)
    c_large = HoppingCoefficients((1.0, -1.0 / 3.0), theta=120.0)
    r_small = limit_shape_deviation(c_small, 30, seed=9)
    r_large = limit_shape_deviation(c_large, 30, seed=9)
    assert r_large.percentile_90 < r_small.percentile_90
    assert r_small.leakage < 1e-6 and r_large.leakage < 1e-6
