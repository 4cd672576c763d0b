"""Airy stack: contour values vs series, kernels, Fredholm determinants."""

import math

import numpy as np
import pytest

from splitsea.airy import (AiryOrder, FredholmConfig, airy_fn, airy_kernel,
                           airy_kernel_matrix, airy_values, fredholm_F,
                           limiting_cdf)
from splitsea.airy import _fredholm_once, _gauss_legendre, _v_quadrature
from splitsea.errors import NodeCountInsufficient
from conftest import airy_series


def test_classical_airy_against_series():
    assert airy_fn(1, 0.0) == pytest.approx(0.3550280538878172, abs=1e-12)
    for x in (-3.0, -1.0, 0.0, 1.0, 3.0):
        assert airy_fn(1, x) == pytest.approx(airy_series(x), abs=1e-9)


def test_airy_batch_matches_scalar():
    xs = np.array([-5.0, -1.2, 0.0, 2.4, 7.5])
    batch = airy_values(1, xs)
    for x, v in zip(xs, batch):
        assert v == pytest.approx(airy_fn(1, float(x)), abs=1e-11)


def test_airy_order_guard():
    with pytest.raises(ValueError):
        airy_fn(1, 41.0)
    with pytest.raises(ValueError):
        AiryOrder(0)
    order = AiryOrder(2)
    assert order.t_max > 0.0


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


def test_gauss_legendre_cache_is_exact_and_read_only():
    for n in (24, 64, 128):
        nodes, weights = _gauss_legendre(n)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
        assert np.array_equal(nodes, ref_nodes)
        assert np.array_equal(weights, ref_weights)
        assert _gauss_legendre(n)[0] is nodes
        with pytest.raises(ValueError):
            nodes[0] = 0.0
