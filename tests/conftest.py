"""Helpers shared across the test suite.

The independent oracles (``airy_series``, ``bessel_j``, ``bessel_i``,
``central_derivative``) are built from scratch by power series and finite
differences, so no test checks a module against its own machinery.

The scaling-limit predictions and brute-force oracles after them came out of
the package, since no command runs them; they are kept verbatim and call
library code: ``airy_kernel`` and ``edge_prediction`` read
``airy_kernel_matrix``, ``brute_correlation`` reads ``measure_weight``, and
``density_support_cuts`` reads ``eigen_density_supercritical``.
``oscillation_average``, ``local_sine_prediction`` and
``partition_function_quadrature`` are direct quadratures or closed forms;
``partition_function_toeplitz`` reads ``exact_cdf``.

The sampler only builds edge windows; tests that need whole configurations
draw them from ``full_window``, the least window whose right trace and whose
left trace (``left_trace``, the holes below it) each stay under half the
bound, built by ``windowed_kernel`` over that window.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from splitsea.airy import airy_kernel_matrix
from splitsea.edge import exact_cdf
from splitsea.errors import UnsupportedEdge
from splitsea.kernel import (_least_cut, coefficient_band, right_traces,
                             tail_trace)
from splitsea.potential import FermiSea, HoppingCoefficients
from splitsea.sampler import windowed_kernel
from splitsea.schur import measure_weight, partitions_upto
from splitsea.unitary import eigen_density_supercritical


def airy_series(x, nterms=160):
    """Classical Airy function by its Maclaurin series (good for |x| <= 6)."""
    c1 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    c2 = 3.0 ** (-1.0 / 3.0) / math.gamma(1.0 / 3.0)
    f = g = 0.0
    tf, tg = 1.0, x
    for k in range(nterms):
        f += tf
        g += tg
        tf *= x ** 3 / ((3 * k + 2) * (3 * k + 3))
        tg *= x ** 3 / ((3 * k + 3) * (3 * k + 4))
    return c1 * f - c2 * g


def bessel_j(n, x, terms=80):
    """Bessel J_n by its power series."""
    n = abs(int(n))
    acc, term = 0.0, (0.5 * x) ** n / math.factorial(n)
    for k in range(terms):
        acc += term
        term *= -(0.5 * x) ** 2 / ((k + 1) * (n + k + 1))
    return acc


def bessel_i(n, x, terms=80):
    """Modified Bessel I_n by its power series."""
    n = abs(int(n))
    acc, term = 0.0, (0.5 * x) ** n / math.factorial(n)
    for k in range(terms):
        acc += term
        term *= (0.5 * x) ** 2 / ((k + 1) * (n + k + 1))
    return acc


def central_derivative(fn, x, order, h):
    """Central finite differences for derivative orders 1..4."""
    stencils = {
        1: ([-0.5, 0.5], [-1, 1]),
        2: ([1.0, -2.0, 1.0], [-1, 0, 1]),
        3: ([-0.5, 1.0, -1.0, 0.5], [-2, -1, 1, 2]),
        4: ([1.0, -4.0, 6.0, -4.0, 1.0], [-2, -1, 0, 1, 2]),
    }
    coeffs, offsets = stencils[order]
    return sum(c * fn(x + o * h) for c, o in zip(coeffs, offsets)) / h ** order


def airy_kernel(order, x, y):
    """Order-m Airy kernel A_{2m+1}(x, y); symmetric in its arguments."""
    mat = airy_kernel_matrix(order, np.array([float(x), float(y)]))
    return float(mat[0, 1]) if x != y else float(mat[0, 0])


def local_sine_prediction(sea, delta):
    """Extended-sine bulk prediction at integer offset delta = s - t.

    delta = 0 returns the limit density (the diagonal value).
    """
    if not isinstance(sea, FermiSea):
        raise TypeError("expected a FermiSea")
    d = int(delta)
    if d == 0:
        return sum(b - a for a, b in sea.intervals) / math.pi
    return sum(math.sin(b * d) - math.sin(a * d)
               for a, b in sea.intervals) / (math.pi * d)


def edge_prediction(profile, theta, k, ell):
    """Oscillating-edge prediction for K(k, l) near b*theta in the two-cut case.

    Requires a unique interior maximizer; the phase of the oscillation is
    chi_b * (k - l) exactly, because (d theta)^(1/(2m+1)) (x - y) = k - l.
    """
    interior = [mx for mx in profile.maximizers if mx.interior]
    if len(profile.maximizers) != 1 or not interior:
        raise UnsupportedEdge(
            "prediction implemented for a unique interior maximizer only "
            "(at 0/pi the oscillating factor degenerates to a constant 2)")
    mx = interior[0]
    x, y = profile.s_of(float(k), theta), profile.s_of(float(ell), theta)
    if abs(x) > 6.0 or abs(y) > 6.0:
        raise ValueError("edge variables out of the calibrated window |x|,|y| <= 6")
    osc = 2.0 * math.cos(mx.chi_b * (float(k) - float(ell)))
    return osc * airy_kernel(mx.m, x, y) / profile.scale(theta)


def oscillation_average(n, chi_b=1.0):
    """Average of the cyclic product of n cosines over one oscillation period.

    The product cos(chi(x_1 - x_2)) ... cos(chi(x_n - x_1)) averaged over the
    period box equals tr(T^n) for the rank-two integral operator with kernel
    (chi/2 pi) cos(chi (x - y)); the periodic trapezoid discretisation of that
    trace is the full tensor-product quadrature reorganised, and is exact up
    to roundoff for trigonometric polynomials (256 nodes).  Independent of
    chi_b.
    """
    nodes = 256
    n = int(n)
    if not 2 <= n <= 4:
        raise ValueError("supported for 2 <= n <= 4")
    period = 2.0 * math.pi / chi_b
    xs = period * np.arange(nodes) / nodes
    t = np.cos(chi_b * (xs[:, None] - xs[None, :])) * (chi_b / (2.0 * math.pi)) \
        * (period / nodes)
    return float(np.trace(np.linalg.matrix_power(t, n)))


def site_occupied(parts, site):
    """Whether half-integer ``site`` is occupied by the configuration of lambda."""
    if abs(2 * site - round(2 * site)) > 1e-9 or round(2 * site) % 2 == 0:
        raise ValueError(f"site {site!r} is not a half-integer")
    parts = tuple(parts)
    if site <= -len(parts) - 0.5:
        return True  # below every displaced particle: domain-wall filled
    return any(site == (parts[i - 1] if i <= len(parts) else 0) - i + 0.5
               for i in range(1, len(parts) + 1))


def brute_correlation(coeffs, sites, size_cap):
    """P(all given half-integer sites occupied), truncated to |lambda| <= cap."""
    sites = tuple(sites)
    acc = 0.0
    for lam in partitions_upto(size_cap):
        if all(site_occupied(lam, s) for s in sites):
            acc += measure_weight(lam, coeffs)
    return acc


def density_support_cuts(gammas, x):
    """Intervals of [-pi, pi] where the supercritical density is near zero.

    A "cut" is a maximal arc of the 4096-point grid with rho < 1e-3 max(rho);
    arcs wrapping +-pi are counted once.
    """
    grid = 4096
    alphas = np.linspace(-math.pi, math.pi, grid, endpoint=False)
    rho = eigen_density_supercritical(gammas, x, alphas)
    low = rho < 1e-3 * float(np.max(rho))
    if not np.any(low):
        return []
    # group circularly contiguous low runs
    idx = np.nonzero(low)[0]
    runs = []
    start = prev = idx[0]
    for i in idx[1:]:
        if i == prev + 1:
            prev = i
            continue
        runs.append((start, prev))
        start = prev = i
    runs.append((start, prev))
    if len(runs) > 1 and runs[0][0] == 0 and runs[-1][1] == grid - 1:
        first = runs.pop(0)
        runs[-1] = (runs[-1][0], first[1] + grid)
    return [(float(alphas[a % grid]), float(alphas[b % grid])) for a, b in runs]


def partition_function_quadrature(gammas, theta, ell):
    """Z_ell by direct angular quadrature (oracle; ell <= 2 practical).

    512-node periodic trapezoid over the ell-torus of the Weyl-measure integrand
    prod_j w(alpha_j) prod_{j<k} |e^{i a_j} - e^{i a_k}|^2 / ((2 pi)^ell ell!).
    """
    coeffs = HoppingCoefficients(gammas, theta=theta)
    ell = int(ell)
    if ell not in (1, 2):
        raise ValueError("direct quadrature oracle supports ell in {1, 2}")
    nodes = 512
    alphas = 2.0 * math.pi * np.arange(nodes) / nodes - math.pi
    w = np.exp(coeffs.log_symbol(alphas))
    h = 2.0 * math.pi / nodes
    if ell == 1:
        return float(np.sum(w) * h / (2.0 * math.pi))
    pair = 2.0 - 2.0 * np.cos(alphas[:, None] - alphas[None, :])
    z = float(w @ pair @ w) * h * h
    return z / ((2.0 * math.pi) ** 2 * 2.0)


def partition_function_toeplitz(gammas, theta, ell):
    """Z_ell = exp(theta^2 sum r gamma_r^2) P(k_max < ell), via the edge CDF."""
    coeffs = HoppingCoefficients(gammas, theta=theta)
    return math.exp(coeffs.szego_constant()) * exact_cdf(coeffs, ell)


def left_trace(band, below):
    """sum_{k < below} (1 - K(k, k)), the holes dropped left of a window
    from ``below`` up (a cut or an array of them): the mirrored band's right
    trace at -below."""
    return tail_trace(replace(band, coeffs=band.coeffs[::-1]), np.negative(below))


def full_window(coeffs, leakage_tol=1e-6):
    """The least window holding whole configurations, and its leakage.

    Its top is the least cut whose right trace is under ``leakage_tol / 2``,
    its bottom the largest cut whose left trace is; the leakage is the two
    traces summed.  The kernel is ``windowed_kernel`` over that window at a
    bound of 2, which its edge leakage (det(I - K) over the window, 1 for an
    empty one, plus the right trace) always meets.
    """
    band = coefficient_band(coeffs)
    half = 0.5 * leakage_tol
    lo = -_least_cut(right_traces(replace(band, coeffs=band.coeffs[::-1])), half)
    hi = _least_cut(right_traces(band), half) - 1
    wk = windowed_kernel(coeffs, window=(lo, hi), leakage_tol=2.0)
    return wk, tail_trace(band, hi + 1) + left_trace(band, lo)


@pytest.fixture()
def rng():
    # fresh per test: results must not depend on which tests ran before
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    # the CLI runs numpy's OpenBLAS on one thread from its first main call;
    # pinning at the start keeps the whole session on the BLAS the CLI uses,
    # instead of switching partway through at the first in-process CLI test
    from splitsea.cli import pin_blas_threads
    pin_blas_threads()
