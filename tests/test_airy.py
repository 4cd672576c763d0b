"""Airy stack: contour values vs series, kernels, Fredholm determinants."""

import math
import os
import sys
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitsea.airy import (FredholmConfig, airy_kernel_matrix, airy_values,
                           fredholm_F, limiting_cdf)
from splitsea import airy as airy_mod
from splitsea.airy import (KERNEL_FACTOR_FLOOR, TABLE_TOL, _airy_cached,
                           _fredholm_once, _gauss_legendre, _kernel_factor,
                           _log_minors, _v_quadrature)
from splitsea.errors import LawDataError, NoConvergence, NodeCountInsufficient
from conftest import airy_kernel, airy_series

# the reference builder of the shipped law blocks lives outside the package
sys.path.append(os.path.join(os.path.dirname(__file__), os.pardir, "tools"))
import law_builder  # noqa: E402
from law_builder import _law_nodes, _leading_minors  # noqa: E402


def test_classical_airy_against_series():
    assert airy_values(1, 0.0) == pytest.approx(0.3550280538878172, abs=1e-12)
    for x in (-3.0, -1.0, 0.0, 1.0, 3.0):
        assert airy_values(1, x) == pytest.approx(airy_series(x), abs=1e-9)


def test_airy_value_above_its_roundoff_target_raises():
    # on Re z = 1 the m = 4 integrand peaks near e^241, so the doubling test
    # accepted -5.7e88 at x = 0.3
    for x in (0.3, 10.0):
        with pytest.raises(NoConvergence, match="roundoff floor"):
            airy_values(4, x)


def test_airy_values_and_spline_against_scipy():
    # independent oracle on the whole domain of the Chebyshev cache, which
    # must stay within 1e-10 of it
    from scipy.special import airy

    xs = np.linspace(-14.5, 52.0, 1331)
    assert np.max(np.abs(airy_values(1, xs) - airy(xs)[0])) < 1e-10
    fine = np.linspace(-14.5, 52.0, 66501)
    assert np.max(np.abs(_airy_cached(1, fine) - airy(fine)[0])) < 1e-10
    assert airy_values(1, 0.5).shape == ()


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
        airy_values(0, 0.3)
    with pytest.raises(ValueError):
        airy_values(1.5, 0.3)
    with pytest.raises(ValueError):
        airy_values(0, 0.0)


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
    der = sum(cc * airy_values(m, x + v + o * h)
              for cc, o in zip(stencil, offs)) / h ** (2 * m)
    resid = (x * airy_values(m, x + v) + (-1) ** m * der
             + v * airy_values(m, x + v))
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


def test_limit_table_refuses_a_lossy_compression(monkeypatch):
    # keeping only eigenvalues above 1e-3 lambda_max drops far more than the
    # 1e-12 of kernel trace a table may lose
    monkeypatch.setattr(law_builder, "RANK_RTOL", 1e-3)
    with pytest.raises(NodeCountInsufficient, match="drops"):
        law_builder._build_law_block(1, 2)


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


def _planted_pivot_cases():
    block = airy_mod._CHOLESKY_BLOCK
    for n in (1, 2, block - 1, block, block + 1, 600):
        for order in [None] + sorted({o for o in (1, block, block + 1, n)
                                      if o <= n}):
            yield n, order


@pytest.mark.parametrize("n,order", list(_planted_pivot_cases()))
def test_log_minors_match_lapack_dpotrf(n, order):
    # A = L L^T with pivots L_jj^2 in [1, 4]; lowering A_pp by L_pp^2 + 1
    # plants a pivot of -1 at order p and leaves the pivots before it alone
    from scipy.linalg.lapack import dpotrf

    rng = np.random.default_rng(n)
    low = np.tril(rng.normal(size=(n, n)), -1) * (0.5 / math.sqrt(n))
    low.flat[::n + 1] = rng.uniform(1.0, 2.0, size=n)
    mat = low @ low.T
    if order is not None:
        mat[order - 1, order - 1] -= low[order - 1, order - 1] ** 2 + 1.0
    chol, want_info = dpotrf(mat, lower=1)
    assert want_info == (order or 0)
    top = order - 1 if order else n
    want = np.concatenate(([0.0], np.cumsum(2.0 * np.log(np.diag(chol)[:top]))))
    orders = np.arange(n + 1)
    got, info = _log_minors(mat.copy(), orders, 0.0)
    if order is None:
        assert info == 0 and np.max(np.abs(got - want)) < 1e-12
        return
    assert info == want_info and got is None
    last = math.exp(min(want[-1], 0.0))
    got, info = _log_minors(mat.copy(), orders, 2.0 * last)
    assert info == want_info
    assert np.max(np.abs(got[:order] - want)) < 1e-12
    assert np.all(got[order:] == -np.inf)
    assert _log_minors(mat.copy(), orders, 0.5 * last) == (None, want_info)


def test_log_minors_keep_a_block_numpy_refuses_but_the_sweep_factors():
    # OpenBLAS takes l_21 = b * (1/5), rounding its pivot c - l_21^2 to 0;
    # dividing gives a pivot of 5.6e-17, and the factor goes on to the
    # identity block after it
    b, c = 1.9772810662190627, 0.15638561659313577
    block = airy_mod._CHOLESKY_BLOCK
    mat = np.eye(block + 4)
    mat[block - 2:block, block - 2:block] = [[25.0, b], [b, c]]
    try:
        np.linalg.cholesky(mat[:block, :block])
    except np.linalg.LinAlgError:
        pass
    else:
        pytest.skip("this LAPACK factors the block")
    got, info = _log_minors(mat.copy(), np.arange(block + 5), 0.0)
    assert info == 0 and np.all(np.isfinite(got))
    assert np.all(got[:block - 1] == 0.0)
    assert got[block - 1] == pytest.approx(math.log(25.0), rel=1e-15)
    assert np.all(got[block:] == got[block]) and got[block] < -30.0


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


def test_limit_table_makes_two_kernel_assemblies(monkeypatch):
    calls = []
    factor = airy_mod._kernel_factor
    spy = lambda m, xs: calls.append(len(xs)) or factor(m, xs)
    for module in (airy_mod, law_builder):
        monkeypatch.setattr(module, "_kernel_factor", spy)
    grid = np.linspace(-6.0, 4.0, 201)
    law_builder._law_table(1, grid)
    assert len(calls) == 2  # the table and its refinement
    calls.clear()
    law_builder._build_law_block(1, 2)
    assert len(calls) == 2  # a block is filled by one table
    calls.clear()
    limiting_cdf(1, 2, grid)
    assert calls == []  # the shipped blocks serve the whole grid


def test_limit_table_refuses_an_uncertified_table(monkeypatch):
    # one node per panel leaves the coarse table far from the refined one;
    # on the grid of a law block it is not even positive definite
    monkeypatch.setattr(law_builder, "_panel_nodes", lambda width: 1)
    with pytest.raises(NodeCountInsufficient, match="moved by"):
        law_builder._law_table(1, np.linspace(-3.0, 2.0, 11))
    with pytest.raises(NodeCountInsufficient):
        law_builder._build_law_block(1, 1)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_law_cache_matches_tables_and_per_point_fredholm(m):
    # the interpolant against a direct certified table and against the
    # independent per-point oracle, off the cache's nodes and check points
    s = np.sort(np.random.default_rng(10 + m).uniform(-9.0, 6.0, 40))
    got = limiting_cdf(m, 1, s)
    assert np.max(np.abs(got - law_builder._law_table(m, s))) < 1e-13
    ref = np.array([fredholm_F(m, None, float(v), check=True) for v in s[::4]])
    assert np.max(np.abs(got[::4] - ref)) < 1e-12


def test_limit_law_outside_the_cache_domain_is_the_direct_table():
    # outside [-9, 6], once served by tables, the blocks agree with a direct
    # table, and a value does not depend on the other s asked with it
    s = np.array([-10.4583, -9.0 - 1e-9, 6.0 + 1e-9, 8.0])
    got = limiting_cdf(1, 1, np.concatenate((s, [0.5])))
    assert np.max(np.abs(got[:4] - law_builder._law_table(1, s))) < 1e-13
    assert list(got) == [limiting_cdf(1, 1, float(v)) for v in s] + \
        [limiting_cdf(1, 1, 0.5)]


def test_law_cache_refuses_a_low_degree(monkeypatch):
    # degree 4 on unit panels leaves coefficients far above the chopping
    # tolerance and misses the check points by far more than 1e-12
    airy_mod._airy_cache(1)  # built at degree 16 before the patch
    monkeypatch.setattr(airy_mod, "_CHEB_DEGREE", 4)
    with pytest.raises(NodeCountInsufficient, match="coefficients end"):
        law_builder._build_law_block(1, 2)
    monkeypatch.setattr(law_builder, "LAW_TAIL_TOL", 1.0)
    with pytest.raises(NodeCountInsufficient, match="check points"):
        law_builder._build_law_block(1, 2)


def test_law_cache_is_read_only_and_built_once():
    # one stacked row of unit panels per order, which limiting_cdf reads
    row = airy_mod._shipped_laws()[2][1]
    assert airy_mod._shipped_laws()[2][1] is row
    assert row.shape == (airy_mod._CHEB_DEGREE + 1, 8 * 5)
    with pytest.raises(ValueError):
        row[1, 0] = 0.0


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
    assert np.max(np.abs(got[:-1] - law_builder._law_table(m, s[:-1]))) < 1e-13
    ref = np.array([fredholm_F(m, None, float(v), check=True) for v in s])
    assert np.max(np.abs(got - ref)) < 1e-12


def test_gauss_legendre_cache_is_exact_and_read_only():
    for n in (24, 64, 128):
        nodes, weights = _gauss_legendre(n)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
        assert np.array_equal(nodes, ref_nodes)
        assert np.array_equal(weights, ref_weights)
        assert _gauss_legendre(n)[0] is nodes
        with pytest.raises(ValueError):
            nodes[0] = 0.0


@pytest.fixture(scope="module")
def reference_laws():
    # every desk-range law block of m = 1, 2, 3, built once by the reference
    # builder (about 2 s of CPU)
    return {m: law_builder._build_laws(m) for m in (1, 2, 3)}


@pytest.mark.parametrize("m", [1, 2, 3])
def test_shipped_law_blocks_match_the_reference_builder(reference_laws, m):
    decay, blocks = reference_laws[m]
    shipped_decay, shipped = airy_mod._shipped_laws()[m]
    assert shipped_decay == decay == airy_mod._decay_point(m)
    assert blocks.shape == ({1: 6, 2: 8, 3: 11}[m], 17, 5)
    # the shipped row stacks the blocks: column 5 k + p is panel p of block k
    assert shipped.shape == (17, 5 * len(blocks))
    assert np.max(np.abs(shipped - np.hstack(blocks))) < 1e-13
    assert not shipped.flags.writeable


def _law_path():
    return resources.files("splitsea") / airy_mod._LAW_FILE


def test_law_file_ships_as_package_data():
    tomllib = pytest.importorskip("tomllib")
    path = _law_path()
    assert path.is_file()
    assert sorted(airy_mod._load_laws(path)) == sorted(airy_mod._shipped_laws())
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        package_data = tomllib.load(fh)["tool"]["setuptools"]["package-data"]
    assert airy_mod._LAW_FILE in package_data["splitsea"]


def _law_arrays():
    with _law_path().open("rb") as fh, np.load(fh) as data:
        return {name: data[name].copy() for name in data.files}


def _open_join(arrays):
    arrays["m1"][2, 0, 3] += 1e-9  # lifts one panel off both neighbours
    return arrays


def _nan_block(arrays):
    arrays["m3"][10, 16, 4] = np.nan
    return arrays


@pytest.mark.parametrize("edit,message", [
    (lambda a: {**a, "degree": np.int64(15)}, "layout"),
    (lambda a: {**a, "floor": np.float64(-11.0)}, "layout"),
    (lambda a: {**a, "panels": np.int64(4)}, "layout"),
    (lambda a: {**a, "m2": a["m2"][:-1]}, "law blocks of m=2"),
    (lambda a: {**a, "m2": a["m2"][:, :16]}, "law blocks of m=2"),
    (lambda a: {**a, "decay": a["decay"] + 5.0}, "law blocks of m=1"),
    (lambda a: {k: v for k, v in a.items() if k != "m3"}, "unreadable"),
    (lambda a: {k: v for k, v in a.items() if k != "degree"}, "unreadable"),
    (lambda a: {**a, "orders": np.int64(1)}, "unreadable"),
    (_nan_block, "law blocks of m=3"),
    (_open_join, "law panels of m=1 miss each other by 1.00e-09"),
], ids=["degree", "floor", "panels", "block-missing", "degree-short",
        "decay-moved", "order-missing", "layout-missing", "orders-scalar", "nan",
        "open-join"])
def test_law_file_with_a_wrong_layout_or_an_open_join_is_refused(tmp_path, edit,
                                                                  message):
    np.savez(tmp_path / "good.npz", **_law_arrays())
    assert sorted(airy_mod._load_laws(tmp_path / "good.npz")) == [1, 2, 3]
    np.savez(tmp_path / "bad.npz", **edit(_law_arrays()))
    with pytest.raises(LawDataError, match=message):
        airy_mod._load_laws(tmp_path / "bad.npz")


def test_law_file_that_is_no_archive_is_refused(tmp_path, monkeypatch):
    (tmp_path / "bad.npz").write_bytes(b"PK\x03\x04 not a zip archive")
    with pytest.raises(LawDataError, match="unreadable"):
        airy_mod._load_laws(tmp_path / "bad.npz")
    with pytest.raises(LawDataError, match="unreadable"):
        airy_mod._load_laws(tmp_path / "missing.npz")
    # the shipped file is refused by a module of another degree
    monkeypatch.setattr(airy_mod, "_CHEB_DEGREE", 15)
    with pytest.raises(LawDataError, match="layout"):
        airy_mod._load_laws(_law_path())


def test_orders_without_shipped_blocks_still_raise():
    assert 4 not in airy_mod._shipped_laws()
    with pytest.raises(NoConvergence, match=r"F_9 law blocks for m=4; "
                                            r"the law file holds m in \[1, 2, 3\]"):
        limiting_cdf(4, 1, 0.0)


@pytest.mark.parametrize("m", [4, 5])
def test_unshipped_orders_raise_without_an_airy_value(monkeypatch, m):
    # the refusal comes from the law file, not from the contour evaluator
    def refuse(*args):
        raise AssertionError("airy_values called")

    monkeypatch.setattr(airy_mod, "airy_values", refuse)
    with pytest.raises(NoConvergence, match=f"m={m}"):
        limiting_cdf(m, 1, 0.0)
