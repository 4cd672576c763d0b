"""Exact edge distribution of the rightmost particle and its scaling limits.

P(k_max < ell) for integer ell is exp(-theta^2 sum_r r gamma_r^2) times the
ell x ell Toeplitz determinant of the positive symbol

    f(phi) = exp(2 theta sum_r (-1)^(r-1) gamma_r cos(r phi)),

whose log is ``HoppingCoefficients.log_symbol`` and whose Fourier
coefficients f_n are real and even in n.  The symbol is strictly positive, so
the Toeplitz matrix is symmetric positive definite and the determinant is
computed stably through its Cholesky factor; the strong Szego limit of the
log-determinant is exactly theta^2 sum_r r gamma_r^2
(``HoppingCoefficients.szego_constant``), which the normaliser cancels,
making P -> 1 as ell grows.

The same law is the discrete Fredholm determinant det(I - K) over the sites
{ell + 1/2, ...} (with a certified dropped trace), the large-coupling route.
Either route gets a whole table of ell from one Cholesky factor's minors.

The edge scaling is one affine map on ``EdgeProfile``: ``s_of`` sends ell
to s = (ell - b theta) / (d theta)^(1/(2m+1)), and ``lattice_of`` sends s
back to the lattice point whose row is the law of the scaled maximum at s
(a step function in s: k_max is lattice valued).  The scaled study reads
those rows from one ``exact_cdf`` table per theta and compares them with the
limiting law F_{2m+1}^n at the cut count n of the sea just below the edge.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .airy import limiting_cdf
from .errors import NotPositiveDefinite, WindowTooSmall
from .kernel import (_fourier_band, coefficient_band, kernel_matrix,
                     tail_trace)
from .potential import HoppingCoefficients, edge_profile

MAX_TABLE_DIM = 4096  # desk-scale cap on a Toeplitz or Fredholm matrix's order


def symbol_coeffs(coeffs, n_max):
    """Fourier coefficients f_{-n_max}..f_{n_max} of the Toeplitz symbol."""
    coeffs.require_theta()
    width = 2.0 * coeffs.theta * sum(r * abs(g) for r, g in
                                     enumerate(coeffs.gammas, start=1))
    band, half = _fourier_band(coeffs.log_symbol, width, "Toeplitz symbol")
    n_max = int(n_max)
    out = np.zeros(2 * n_max + 1)
    lo = max(-n_max, -half)
    hi = min(n_max, half - 1)
    out[lo + n_max:hi + n_max + 1] = band[lo + half:hi + half + 1]
    return out


def _log_minors(mat):
    """Log leading minors of orders 0, 1, ... up to the first pivot <= 0.

    ``mat`` is symmetric and is factored in place: its transpose is the
    Fortran-ordered array LAPACK overwrites.
    """
    chol, info = scipy.linalg.lapack.dpotrf(mat.T, lower=1, overwrite_a=1)
    n = len(mat) if info == 0 else info - 1
    return np.concatenate(([0.0], np.cumsum(2.0 * np.log(np.diag(chol)[:n]))))


def toeplitz_cdf(coeffs, ell):
    """P(k_max < ell) from the first ell log-pivots of one Cholesky factor.

    ``ell`` is an integer or array; one factor of T_max(ell) serves them all.
    det T_0 = 1, and P = 0 for ell < 0 because k_max >= -1/2.
    """
    ells = np.atleast_1d(ell).astype(np.int64)
    top = max(int(ells.max()), 0)
    if top > MAX_TABLE_DIM:
        raise ValueError(f"ell capped at {MAX_TABLE_DIM} at desk scale")
    f = symbol_coeffs(coeffs, top)
    logdet = _log_minors(scipy.linalg.toeplitz(f[top:2 * top]))  # f_0 .. f_{top-1}
    if len(logdet) <= top:
        raise NotPositiveDefinite(f"T_ell not positive definite at ell={len(logdet)}")
    p = np.exp(logdet[np.maximum(ells, 0)] - coeffs.szego_constant())
    p[ells < 0] = 0.0
    if np.max(p) > 1.0 + 1e-9:
        raise NotPositiveDefinite(
            f"P={float(np.max(p))!r} overshoots 1 beyond tolerance")
    p = np.minimum(p, 1.0)
    return float(p[0]) if np.ndim(ell) == 0 else p


def fredholm_cdf_check(coeffs, ell, trace_tol=1e-12, max_window=512):
    """P(k_max < ell) as det(I - K) on the sites above ell (integer or array).

    The large-coupling route and the Toeplitz oracle.  The window [min ell,
    top = max ell + W) grows W until the exact tail trace above top is under
    ``trace_tol``; with sites ordered down from top, each row is a leading
    minor of one Cholesky factor of I - K, whose pivots are <= 1 - K(k, k)
    <= 1.  Rows past a pivot <= 0 (roundoff deep below the edge) lie in
    [0, last minor] and are 0.0 when that minor is under ``trace_tol``.
    P = 0 for ell < 0 because k_max >= -1/2; the window stops at site 1/2.
    A window of more than MAX_TABLE_DIM sites is a ValueError.
    """
    ells = np.atleast_1d(ell).astype(np.int64)
    rows = np.maximum(ells, 0)
    band = coefficient_band(coeffs)
    w = 64
    while w <= max_window and tail_trace(band, int(rows.max()) + w) >= trace_tol:
        w *= 2
    if w > max_window:
        raise WindowTooSmall(
            f"tail trace above ell+{max_window} still exceeds {trace_tol}")
    top = int(rows.max()) + w
    size = top - int(rows.min())
    if size > MAX_TABLE_DIM:
        raise ValueError(f"Fredholm window of {size} sites > {MAX_TABLE_DIM}")
    sites = top - 0.5 - np.arange(size)
    i_minus_k = kernel_matrix(band, sites)
    np.negative(i_minus_k, out=i_minus_k)
    i_minus_k.flat[::size + 1] += 1.0
    logdet = _log_minors(i_minus_k)
    order = np.minimum(top - rows, len(logdet))
    if np.max(order) == len(logdet) and math.exp(logdet[-1]) >= trace_tol:
        raise NotPositiveDefinite(f"I - K pivot <= 0 at site {top - len(logdet) + 0.5}")
    p = np.exp(np.append(logdet, -np.inf)[order])  # uncertified rows: 0.0
    p[ells < 0] = 0.0
    return float(p[0]) if np.ndim(ell) == 0 else p


def exact_cdf(coeffs, ell):
    """P(k_max < ell) by the numerically appropriate exact route (once per call).

    Toeplitz while the symbol's dynamic range fits in double precision, then
    Fredholm.  The Toeplitz rows drift already below the switch: 3e-12 from
    the Fredholm ones at theta = 2.9, over 1e-9 from theta near 4.4.
    """
    if np.max(coeffs.log_symbol(np.linspace(0.0, math.pi, 2048))) <= 25.0:
        return toeplitz_cdf(coeffs, ell)
    return fredholm_cdf_check(coeffs, ell)


def scaled_convergence_study(gammas, theta_list, s_grid=None, n_cuts=None,
                             limit=None):
    """Sup-distance between the scaled lattice CDF and its limiting edge law.

    Per-theta reports {theta, sup_distance, power, m, cdf, limit}, the last
    two on ``s_grid``: the lattice law at each s is one ``exact_cdf`` row,
    P(k_max < ``EdgeProfile.lattice_of(s, theta)``).  The limit law's power
    defaults to the sea's cut count.  ``limit`` is that law on ``s_grid``
    when the caller already has it (one ``limiting_cdf`` table otherwise).
    """
    if s_grid is None:
        s_grid = np.linspace(-6.0, 4.0, 101)
    s_grid = np.asarray(s_grid, dtype=float)
    profile = edge_profile(HoppingCoefficients(gammas))
    mx = profile.principal
    power = int(n_cuts) if n_cuts is not None else profile.n_cuts
    limit_vals = limiting_cdf(mx.m, power, s_grid) if limit is None else limit

    reports = []
    for theta in theta_list:
        lattice_vals = exact_cdf(HoppingCoefficients(gammas, theta=theta),
                                 profile.lattice_of(s_grid, theta))
        sup = float(np.max(np.abs(lattice_vals - limit_vals)))
        reports.append({"theta": float(theta), "sup_distance": sup,
                        "power": power, "m": mx.m,
                        "cdf": lattice_vals, "limit": limit_vals})
    return reports


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
