"""Airy stack: contour values vs series, kernels, Fredholm determinants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitsea.airy import (FredholmConfig, airy_fn, airy_kernel,
                           airy_kernel_matrix, airy_values, fredholm_F,
                           limiting_cdf)
from splitsea import airy as airy_mod
from splitsea.airy import (KERNEL_FACTOR_FLOOR, TABLE_TOL, _airy_cached,
                           _fredholm_once, _gauss_legendre, _kernel_factor,
                           _law_nodes, _leading_minors, _log_minors,
                           _v_quadrature)
from splitsea.errors import NoConvergence, NodeCountInsufficient
from conftest import airy_series


def test_classical_airy_against_series():
    assert airy_fn(1, 0.0) == pytest.approx(0.3550280538878172, abs=1e-12)
    for x in (-3.0, -1.0, 0.0, 1.0, 3.0):
        assert airy_fn(1, x) == pytest.approx(airy_series(x), abs=1e-9)


def test_airy_value_above_its_roundoff_target_raises():
    # on Re z = 1 the m = 4 integrand peaks near e^241, so the doubling test
    # accepted -5.7e88 at x = 0.3
    for x in (0.3, 10.0):
        with pytest.raises(NoConvergence, match="roundoff floor"):
            airy_fn(4, x)


def test_airy_values_and_spline_against_scipy():
    # independent oracle on the whole domain of the Chebyshev cache, which
    # must stay within 1e-10 of it
    from scipy.special import airy

    xs = np.linspace(-14.5, 52.0, 1331)
    assert np.max(np.abs(airy_values(1, xs) - airy(xs)[0])) < 1e-10
    fine = np.linspace(-14.5, 52.0, 66501)
    assert np.max(np.abs(_airy_cached(1, fine) - airy(fine)[0])) < 1e-10
    assert airy_values(1, 0.5).shape == ()
    assert airy_fn(1, 0.5) == float(airy_values(1, 0.5))


def test_higher_order_airy_against_mpmath():
    # an independent 30-digit quadrature of the contour integral on
    # Re z = 1; at m = 3 that line once left the evaluator 1.4e-7 off near
    # x = -14, because of the exp(|x| sigma) cancellation bump
    mp = pytest.importorskip("mpmath")

    def reference(m, x):
        k, sign = 2 * m + 1, (-1) ** (m - 1)

        def integrand(t):
            z = mp.mpc(1, t)
            return mp.re(mp.exp(sign * z ** k / k - mp.mpf(x) * z))

        with mp.workdps(30):
            return float(mp.quad(integrand, mp.linspace(0, 3, 7) + [mp.inf]) / mp.pi)

    xs = np.array([-14.4, -13.97, -13.9659, -10.3, -6.2, -2.5])
    for m in (2, 3):
        ref = np.array([reference(m, x) for x in xs])
        assert np.max(np.abs(airy_values(m, xs) - ref)) < 1e-13
        assert np.max(np.abs(_airy_cached(m, xs) - ref)) < 1e-13
    assert airy_values(3, -13.9659) == pytest.approx(0.0512257449, abs=1e-10)


def test_airy_order_guard():
    with pytest.raises(ValueError):
        airy_fn(1, 41.0)
    with pytest.raises(ValueError):
        airy_fn(0, 0.3)
    with pytest.raises(ValueError):
        airy_fn(1.5, 0.3)
    with pytest.raises(ValueError):
        airy_fn(0, 0.0)


def test_airy_batch_raises_beyond_node_budget(monkeypatch):
    monkeypatch.setattr(airy_mod, "AIRY_NODE_BUDGET", 1024)
    with pytest.raises(NoConvergence):
        airy_values(1, np.array([-3.0, 0.0, 2.0]))


@pytest.mark.parametrize("m,h", [(1, 1e-3), (2, 0.03)])
@pytest.mark.parametrize("xv", [(0.3, 0.2), (-0.5, 0.8), (0.0, 1.1)])
def test_eigenfunction_identity(m, h, xv):
    # (x + (-1)^m d^{2m}/dx^{2m}) Ai(x+v) = -v Ai(x+v), derivative by stencil
    x, v = xv
    if m == 1:
        stencil, offs = [1.0, -2.0, 1.0], [-1, 0, 1]
    else:
        stencil, offs = [1.0, -4.0, 6.0, -4.0, 1.0], [-2, -1, 0, 1, 2]
    der = sum(cc * airy_fn(m, x + v + o * h)
              for cc, o in zip(stencil, offs)) / h ** (2 * m)
    resid = x * airy_fn(m, x + v) + (-1) ** m * der + v * airy_fn(m, x + v)
    assert abs(resid) < 1e-4


def test_airy_kernel_value_and_symmetry():
    aip0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)
    assert airy_kernel(1, 0.0, 0.0) == pytest.approx(aip0 ** 2, abs=1e-9)
    assert airy_kernel(1, 0.4, -1.3) == pytest.approx(
        airy_kernel(1, -1.3, 0.4), abs=1e-14)
    assert abs(airy_kernel(1, 8.0, 8.0)) < 1e-12


def test_airy_kernel_below_spline_domain_raises():
    with pytest.raises(ValueError):
        airy_kernel(1, -20.0, 0.0)


def test_airy_kernel_vs_series_quadrature():
    # independent route: Simpson v-integral of the series Airy; the series is
    # only reliable below ~7 (cancellation), and the dropped tail is ~Ai(7)^2
    from scipy.integrate import simpson
    vs = np.linspace(0.0, 6.5, 4001)
    for x, y in [(0.0, 0.0), (-1.0, 0.5), (0.7, 0.7)]:
        vals = np.array([airy_series(x + v) * airy_series(y + v) for v in vs])
        want = float(simpson(vals, x=vs))
        assert airy_kernel(1, x, y) == pytest.approx(want, abs=1e-8)


def test_fredholm_limits_and_monotonicity():
    assert fredholm_F(1, None, 10.0) == pytest.approx(1.0, abs=1e-8)
    grid = np.linspace(-6.0, 4.0, 21)
    vals = [fredholm_F(1, None, float(s), check=False) for s in grid]
    assert all(a <= b + 1e-10 for a, b in zip(vals, vals[1:]))
    assert vals[0] < 1e-6 and vals[-1] > 1.0 - 1e-6


def test_fredholm_node_doubling_stability():
    cfg = FredholmConfig(n_nodes=64)
    for s in (-4.0, -1.1, 0.0, 2.0):
        a = _fredholm_once(1, s, cfg.cut_for(1), 64)
        b = _fredholm_once(1, s, cfg.cut_for(1), 128)
        assert abs(a - b) < 1e-8
    # the checking wrapper enforces the same invariant
    assert fredholm_F(1, cfg, -1.1) == pytest.approx(
        _fredholm_once(1, -1.1, cfg.cut_for(1), 128), abs=1e-12)


def test_fredholm_nonpositive_determinant_raises(monkeypatch):
    # a rank-one kernel of trace L > 1 makes det(1 - A) = 1 - L negative
    monkeypatch.setattr(airy_mod, "airy_kernel_matrix",
                        lambda m, x: np.ones((len(x), len(x))))
    with pytest.raises(NodeCountInsufficient):
        _fredholm_once(1, 0.0, 14.0, 64)


def test_fredholm_clenshaw_curtis_cross_family():
    # Nystrom with a Clenshaw-Curtis rule as an independent quadrature family
    def cc_rule(n):
        k = np.arange(n + 1)
        x = np.cos(math.pi * k / n)
        w = np.zeros(n + 1)
        for i in range(n + 1):
            acc = 1.0
            for j in range(1, n // 2 + 1):
                b = 2.0 if j < n / 2 else 1.0
                acc -= b * math.cos(2.0 * j * math.pi * i / n) / (4.0 * j * j - 1.0)
            w[i] = 2.0 * acc / n
        w[0] *= 0.5
        w[-1] *= 0.5
        return x[::-1], w[::-1]

    s, L = -1.1, 14.0
    xs, ws = cc_rule(96)
    nodes = s + 0.5 * L * (xs + 1.0)
    weights = 0.5 * L * ws
    a = airy_kernel_matrix(1, nodes)
    sw = np.sqrt(weights)
    det = float(np.linalg.det(np.eye(len(nodes)) - sw[:, None] * a * sw[None, :]))
    assert fredholm_F(1, None, s) == pytest.approx(det, abs=1e-8)


def test_fredholm_m2_tail():
    # deep in the tail 1 - F equals the kernel trace to leading order; the
    # m = 2 trace at s = 5 is ~4.4e-7 (the slower x^{5/4} decay), and the
    # 1e-8 closeness point sits near s = 7
    xs = np.linspace(5.0, 15.0, 2001)
    diag = np.array([airy_kernel(2, float(x), float(x)) for x in xs])
    trace = float(np.trapezoid(diag, xs))
    f5 = fredholm_F(2, None, 5.0, check=False)
    assert (1.0 - f5) == pytest.approx(trace, rel=1e-3)
    assert fredholm_F(2, None, 7.0, check=False) == pytest.approx(1.0, abs=1e-8)


def test_log_F_dominated_by_first_trace_term():
    # -log F(s) >= integral_s^inf A(x,x) dx at sampled s
    for s in (-1.0, 0.0, 1.0):
        xs = np.linspace(s, s + 14.0, 401)
        diag = np.array([airy_kernel(1, float(x), float(x)) for x in xs])
        trace = float(np.trapezoid(diag, xs))
        f = fredholm_F(1, None, s, check=False)
        assert -math.log(f) >= trace - 1e-10


def test_limiting_cdf_powers():
    f = fredholm_F(1, None, -0.5, check=False)
    assert limiting_cdf(1, 1, -0.5) == pytest.approx(f, abs=1e-10)
    assert limiting_cdf(1, 2, -0.5) == pytest.approx(f * f, abs=1e-10)
    assert limiting_cdf(1, 3, 8.0) == pytest.approx(1.0, abs=1e-7)
    with pytest.raises(ValueError):
        limiting_cdf(1, 0, 0.0)


@settings(max_examples=12, deadline=None)
@given(m=st.sampled_from([1, 2]), n=st.integers(1, 3),
       grid=st.lists(st.floats(-8.0, 6.0), min_size=1, max_size=6, unique=True))
def test_limit_table_matches_per_point_fredholm(m, n, grid):
    # one certified table against the independent per-point oracle, each
    # value from node doubling on a single [s, s + L] panel
    s = np.sort(np.array(grid))
    table = limiting_cdf(m, n, s)
    ref = np.array([fredholm_F(m, None, float(v), check=True) ** n for v in s])
    assert table.shape == s.shape
    assert np.max(np.abs(table - ref)) < 1e-12


def test_limit_table_scalar_and_array_forms_agree():
    grid = np.linspace(-6.0, 4.0, 101)
    table = limiting_cdf(1, 2, grid)
    assert isinstance(limiting_cdf(1, 2, -4.0), float)
    for i in (0, 20, 47, 100):
        assert abs(limiting_cdf(1, 2, float(grid[i])) - table[i]) < 1e-13
    # any shape, repeated and unsorted values, and the saturated right tail
    s = np.array([[0.5, -1.0], [0.5, 60.0]])
    got = limiting_cdf(1, 1, s)
    assert got.shape == (2, 2) and got[0, 0] == got[1, 0] and got[1, 1] == 1.0
    assert got[0, 1] == pytest.approx(limiting_cdf(1, 1, -1.0), abs=1e-13)
    for bad in (-12.5, float("nan"), [0.0, float("inf")], []):
        with pytest.raises(ValueError):
            limiting_cdf(1, 1, bad)


def test_m2_table_uses_the_certifying_cut():
    # L = 10 is 1.6e-8 off at s = -4; the table and the oracle share L = 20
    assert FredholmConfig().cut_for(2) == 20.0
    for s in (-4.3, -4.0):
        coarse_cut = _fredholm_once(2, s, 10.0, 128)
        assert abs(limiting_cdf(2, 1, s) - coarse_cut) > 1e-8
        assert limiting_cdf(2, 1, s) == pytest.approx(fredholm_F(2, None, s),
                                                      abs=1e-12)


def _dense_law_table(m, s):
    # reference: leading minors of one Cholesky factor of the N x N matrix
    # I - W^1/2 A W^1/2 on the refined table's nodes, from the top down
    top = s[-1] + 2 * FredholmConfig().cut_for(m)
    x, w, above = _law_nodes(np.concatenate(([top], s[::-1])), 2)
    factor = _kernel_factor(m, x) * np.sqrt(w)[:, None]
    chol = np.linalg.cholesky(np.eye(len(x)) - factor @ factor.T)
    logs = 2.0 * np.log(np.diag(chol))
    return np.exp(np.concatenate(([0.0], np.cumsum(logs)))[above[::-1]])


@pytest.mark.parametrize("m,points", [(1, 201), (1, 101), (2, 101), (3, 101)])
def test_rank_compressed_table_matches_dense_cholesky(m, points):
    s = np.linspace(-6.0, 4.0, points)
    assert np.max(np.abs(limiting_cdf(m, 1, s) - _dense_law_table(m, s))) < 1e-13


@pytest.fixture
def cold_law_cache():
    # a law block filled by an earlier test would serve the call below
    # without building a table
    airy_mod._law_block.cache_clear()
    yield
    airy_mod._law_block.cache_clear()


def test_limit_table_refuses_a_lossy_compression(monkeypatch, cold_law_cache):
    # keeping only eigenvalues above 1e-3 lambda_max drops far more than the
    # 1e-12 of kernel trace a table may lose
    monkeypatch.setattr(airy_mod, "RANK_RTOL", 1e-3)
    with pytest.raises(NodeCountInsufficient, match="drops"):
        limiting_cdf(1, 1, np.linspace(-3.0, 2.0, 11))


def test_leading_minors_past_a_failed_pivot():
    # rows past a minor that is not positive definite are 0.0 when the last
    # positive minor, node by node, is under TABLE_TOL, and raise otherwise
    with pytest.raises(NodeCountInsufficient):
        _leading_minors(np.full((3, 1), 0.6), [1, 3])  # 0.64, 0.28, -0.08
    p = np.array([[math.sqrt(1.0 - 1e-10)], [1e-3], [0.5]])
    got = _leading_minors(p, [1, 2, 3])
    assert got[0] == pytest.approx(1e-10, rel=1e-5)
    assert list(got[1:]) == [0.0, 0.0]
    # the failing block holds a minor of 1e-10 between the breakpoints
    p = np.array([[0.5], [math.sqrt(0.75 - 1e-10)], [1e-3]])
    got = _leading_minors(p, [1, 3])
    assert got[0] == pytest.approx(0.75, abs=1e-15) and got[1] == 0.0


def test_leading_minors_stacked_and_past_a_failed_first_block():
    # the stacked Cholesky agrees with minors taken one by one, and a failure
    # in the first block is resolved node by node from the identity
    p = np.random.default_rng(2).normal(size=(30, 4)) * 0.1
    above = [3, 10, 11, 30]
    want = [np.linalg.det(np.eye(30)[:k, :k] - p[:k] @ p[:k].T) for k in above]
    assert np.max(np.abs(_leading_minors(p, above) - want)) < 1e-14
    with pytest.raises(NodeCountInsufficient):
        _leading_minors(np.full((3, 1), 0.6), [3])
    got = _leading_minors(np.array([[math.sqrt(1.0 - 1e-10)], [1e-3]]), [2])
    assert list(got) == [0.0]


def test_log_minors_of_a_positive_definite_matrix():
    a = np.random.default_rng(3).normal(size=(12, 12))
    mat = a @ a.T + 12.0 * np.eye(12)
    orders = np.array([0, 1, 5, 12, 5])
    want = [np.linalg.slogdet(mat[:k, :k])[1] for k in orders]
    got, info = _log_minors(mat.copy(), orders, TABLE_TOL)
    assert info == 0 and np.max(np.abs(got - want)) < 1e-12


def test_log_minors_past_a_failed_pivot():
    # minors 1e-10, then 1e-10 - 1e-6 < 0 at order 2: the orders past it
    # are -inf under a tolerance above 1e-10 and uncertified below it
    p = np.array([math.sqrt(1.0 - 1e-10), 1e-3, 0.5])
    orders = np.array([3, 0, 1, 2])
    got, info = _log_minors(np.eye(3) - np.outer(p, p), orders, 1e-8)
    assert info == 2 and list(got[[0, 1, 3]]) == [-np.inf, 0.0, -np.inf]
    assert math.exp(got[2]) == pytest.approx(1e-10, rel=1e-5)
    assert _log_minors(np.eye(3) - np.outer(p, p), orders, 1e-12) == (None, 2)
    # orders before the failed pivot need no tolerance
    got, info = _log_minors(np.eye(3) - np.outer(p, p), [0, 1], 1.0)
    assert info == 2 and got[0] == 0.0


def test_log_minors_at_zero_tolerance_with_positive_logs():
    # log minors up to 921 (a Toeplitz table's run up to its Szego constant)
    # neither overflow nor certify the rows past a failed pivot
    big = np.diag([1e200, 1e200, -1.0])
    assert _log_minors(big.copy(), [3, 1], 0.0) == (None, 3)
    got, info = _log_minors(big.copy(), [2, 1], 0.0)
    assert info == 3
    assert list(got) == pytest.approx([4.0 * 100 * math.log(10.0),
                                       2.0 * 100 * math.log(10.0)], rel=1e-15)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_airy_cache_ends_at_the_decay_point(m):
    decay = airy_mod._decay_point(m)
    assert airy_mod._airy_cache(m).shape[1] == math.ceil(decay + 14.5)
    xs = np.array([decay - 0.5, decay, np.nextafter(decay, np.inf),
                   decay + 0.5, decay + 40.0])
    got = _airy_cached(m, xs)
    assert got[0] != 0.0 and abs(got[1]) < KERNEL_FACTOR_FLOOR
    assert list(got[2:]) == [0.0, 0.0, 0.0]


def test_limit_table_below_roundoff_is_zero_not_an_error():
    # F(-10.4583) is about 1e-41: the coarse table's last pivot fails there,
    # which used to raise although the rows above are certified
    s = np.array([-10.4583, -4.646, -3.5816])
    got = limiting_cdf(1, 1, s)
    assert 0.0 <= got[0] < TABLE_TOL
    for i in (1, 2):
        assert got[i] == pytest.approx(fredholm_F(1, None, float(s[i])), abs=1e-12)


def test_limit_table_makes_two_kernel_assemblies(monkeypatch, cold_law_cache):
    calls = []
    factor = airy_mod._kernel_factor
    monkeypatch.setattr(airy_mod, "_kernel_factor",
                        lambda m, xs: calls.append(len(xs)) or factor(m, xs))
    grid = np.linspace(-6.0, 4.0, 201)
    airy_mod._law_table(1, grid)
    assert len(calls) == 2  # the table and its refinement
    calls.clear()
    airy_mod._law_block(1, 2)
    assert len(calls) == 2  # a block is filled by one table
    limiting_cdf(1, 2, grid)
    assert len(calls) == 6  # the two other blocks of [-6, 4], one table each
    calls.clear()
    limiting_cdf(1, 2, grid)
    assert calls == []  # the warm blocks serve the whole grid


def test_limit_table_refuses_an_uncertified_table(monkeypatch, cold_law_cache):
    # one node per panel leaves the coarse table far from the refined one;
    # on the law cache's grid, down to -9, it is not even positive definite
    monkeypatch.setattr(airy_mod, "_panel_nodes", lambda width: 1)
    with pytest.raises(NodeCountInsufficient, match="moved by"):
        airy_mod._law_table(1, np.linspace(-3.0, 2.0, 11))
    with pytest.raises(NodeCountInsufficient):
        limiting_cdf(1, 1, np.linspace(-3.0, 2.0, 11))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_law_cache_matches_tables_and_per_point_fredholm(m):
    # the interpolant against a direct certified table and against the
    # independent per-point oracle, off the cache's nodes and check points
    s = np.sort(np.random.default_rng(10 + m).uniform(-9.0, 6.0, 40))
    got = limiting_cdf(m, 1, s)
    assert np.max(np.abs(got - airy_mod._law_table(m, s))) < 1e-13
    ref = np.array([fredholm_F(m, None, float(v), check=True) for v in s[::4]])
    assert np.max(np.abs(got[::4] - ref)) < 1e-12


def test_limit_law_outside_the_cache_domain_is_the_direct_table():
    # outside [-9, 6], once served by tables, the blocks agree with a direct
    # table, and a value does not depend on the other s asked with it
    s = np.array([-10.4583, -9.0 - 1e-9, 6.0 + 1e-9, 8.0])
    got = limiting_cdf(1, 1, np.concatenate((s, [0.5])))
    assert np.max(np.abs(got[:4] - airy_mod._law_table(1, s))) < 1e-13
    assert list(got) == [limiting_cdf(1, 1, float(v)) for v in s] + \
        [limiting_cdf(1, 1, 0.5)]


def test_law_cache_refuses_a_low_degree(monkeypatch, cold_law_cache):
    # degree 4 on unit panels leaves coefficients far above the chopping
    # tolerance and misses the check points by far more than 1e-12
    airy_mod._airy_cache(1)  # built at degree 16 before the patch
    monkeypatch.setattr(airy_mod, "_CHEB_DEGREE", 4)
    with pytest.raises(NodeCountInsufficient, match="coefficients end"):
        limiting_cdf(1, 1, 0.0)
    monkeypatch.setattr(airy_mod, "LAW_TAIL_TOL", 1.0)
    with pytest.raises(NodeCountInsufficient, match="check points"):
        limiting_cdf(1, 1, 0.0)


def test_law_cache_is_read_only_and_built_once():
    coef = airy_mod._law_block(2, 1)
    assert airy_mod._law_block(2, 1) is coef
    assert coef.shape == (airy_mod._CHEB_DEGREE + 1, 5)
    with pytest.raises(ValueError):
        coef[0, 0] = 0.0


@pytest.mark.parametrize("m", [1, 2, 3])
def test_limit_law_blocks_match_tables_and_fredholm_over_the_desk_range(m):
    # the desk range [-12, decay point]: its floor, both sides of every
    # block boundary, random s, and s at and above the decay point
    decay = airy_mod._decay_point(m)
    edges = np.arange(-7.0, decay, 5.0)
    s = np.sort(np.concatenate((
        [-12.0], edges - 1e-12, edges + 1e-12,
        np.random.default_rng(20 + m).uniform(-12.0, decay, 12), [decay, decay + 3.0])))
    got = limiting_cdf(m, 1, s)
    assert got[-1] == got[-2]  # an s above the decay point is taken there
    assert np.max(np.abs(got[:-1] - airy_mod._law_table(m, s[:-1]))) < 1e-13
    ref = np.array([fredholm_F(m, None, float(v), check=True) for v in s])
    assert np.max(np.abs(got - ref)) < 1e-12


def test_low_grid_builds_one_law_block(cold_law_cache):
    # the grid of `airy --s=-12:-9.01:0.001` once ran as 32 certified tables
    limiting_cdf(1, 1, np.linspace(-12.0, -9.01, 2991))
    assert airy_mod._law_block.cache_info().misses == 1


def test_gauss_legendre_cache_is_exact_and_read_only():
    for n in (24, 64, 128):
        nodes, weights = _gauss_legendre(n)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
        assert np.array_equal(nodes, ref_nodes)
        assert np.array_equal(weights, ref_weights)
        assert _gauss_legendre(n)[0] is nodes
        with pytest.raises(ValueError):
            nodes[0] = 0.0
