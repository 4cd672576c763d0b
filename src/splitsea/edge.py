"""Exact edge distribution of the rightmost particle and its scaling limits.

P(k_max < ell) for integer ell is exp(-theta^2 sum_r r gamma_r^2) times the
ell x ell Toeplitz determinant of the positive symbol

    f(phi) = exp(-2 theta sum_r (-1)^r gamma_r cos(r phi)),

whose Fourier coefficients f_n are real and even in n.  The symbol is
strictly positive, so the Toeplitz matrix is symmetric positive definite and
the determinant is computed stably through its Cholesky factor; the strong
Szego limit of the log-determinant is exactly theta^2 sum_r r gamma_r^2,
which the normaliser cancels, making P -> 1 as ell grows.

Two independent exact routes cross-check it: the brute Schur sum (schur
module) and a discrete Fredholm determinant det(I - K) over the window
{ell + 1/2, ...} with a certified dropped-trace bound.

The scaled study maps ell to s = (ell - b theta) / (d theta)^(1/(2m+1)) and
compares the lattice CDF (a left-continuous step function: k_max is lattice
valued) against the limiting law F_{2m+1}^n at the cut count n of the sea
just below the edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .airy import limiting_cdf
from .errors import NotPositiveDefinite, WindowTooSmall
from .kernel import (_fourier_band, coefficient_band, kernel_matrix,
                     tail_trace)
from .potential import HoppingCoefficients, edge_profile

MAX_TOEPLITZ_DIM = 4096


def symbol_coeffs(coeffs, n_max):
    """Fourier coefficients f_{-n_max}..f_{n_max} of the Toeplitz symbol."""
    coeffs.require_theta()
    gam = coeffs.gammas
    theta = coeffs.theta

    def log_f(phi):
        acc = np.zeros_like(phi, dtype=complex)
        for r, g in enumerate(gam, start=1):
            if g != 0.0:
                acc = acc - 2.0 * (-1.0) ** r * theta * g * np.cos(r * phi)
        return acc

    width = 2.0 * theta * sum(r * abs(g) for r, g in enumerate(gam, start=1))
    band, half = _fourier_band(log_f, width, "Toeplitz symbol")
    n_max = int(n_max)
    out = np.zeros(2 * n_max + 1)
    lo = max(-n_max, -half)
    hi = min(n_max, half - 1)
    out[lo + n_max:hi + n_max + 1] = band[lo + half:hi + half + 1]
    return out


def _szego_normalizer(coeffs):
    return sum(r * (coeffs.theta * g) ** 2
               for r, g in enumerate(coeffs.gammas, start=1))


def toeplitz_cdf(coeffs, ell):
    """P(k_max < ell) via the Cholesky log-determinant of the Toeplitz matrix."""
    ell = int(ell)
    if ell < 1:
        raise ValueError("ell must be a positive integer")
    if ell > MAX_TOEPLITZ_DIM:
        raise ValueError(f"ell capped at {MAX_TOEPLITZ_DIM} at desk scale")
    f = symbol_coeffs(coeffs, ell)
    col = f[ell:2 * ell]  # f_0 .. f_{ell-1}
    mat = scipy.linalg.toeplitz(col)
    try:
        chol = scipy.linalg.cholesky(mat, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"Toeplitz matrix at ell={ell}: {exc}") from exc
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    p = math.exp(logdet - _szego_normalizer(coeffs))
    if p > 1.0 + 1e-9:
        raise NotPositiveDefinite(f"P={p!r} overshoots 1 beyond tolerance")
    return min(p, 1.0)


def fredholm_cdf_check(coeffs, ell, trace_tol=1e-12, max_window=512):
    """P(k_max < ell) as det(I - K) on the sites above ell (oracle route).

    The window width W doubles until the dropped tail trace
    sum_{k > ell + W} K(k, k) falls under ``trace_tol``; that trace is
    computed exactly from the coefficient band.
    """
    ell = int(ell)
    band = coefficient_band(coeffs)
    w = 64
    while w <= max_window:
        if tail_trace(band, ell + w) < trace_tol:
            mat = kernel_matrix(band, ell + 0.5 + np.arange(w))
            sign, logdet = np.linalg.slogdet(np.eye(w) - mat)
            return float(sign * math.exp(logdet))
        w *= 2
    raise WindowTooSmall(
        f"tail trace above ell+{max_window} still exceeds {trace_tol}")


def _symbol_log_range(coeffs):
    """theta * max of the symbol's log over the circle (its dynamic range)."""
    phi = np.linspace(0.0, math.pi, 2048)
    h = np.zeros_like(phi)
    for r, g in enumerate(coeffs.gammas, start=1):
        h -= 2.0 * (-1.0) ** r * g * np.cos(r * phi)
    return coeffs.theta * float(np.max(h))


def exact_cdf(coeffs, ell):
    """P(k_max < ell) by the numerically appropriate exact route.

    The Toeplitz Cholesky route is exact while the symbol's dynamic range
    fits in double precision (pivots decay from the symbol maximum to its
    geometric mean 1); beyond that the equivalent discrete Fredholm
    determinant takes over - it works with a contraction kernel and has no
    conditioning issue.  The two routes agree to 1e-15 wherever both run.
    """
    if _symbol_log_range(coeffs) <= 25.0:
        return toeplitz_cdf(coeffs, ell)
    return min(max(fredholm_cdf_check(coeffs, ell), 0.0), 1.0)


@dataclass(frozen=True)
class CdfTable:
    """Lattice CDF rows with the edge-scaling data used to rescale them."""

    theta: float
    gammas: tuple
    rows: tuple          # (ell, P(k_max < ell)) pairs, nondecreasing in ell
    b: float
    d: float
    m: int
    n_cuts: int

    @property
    def fluct_scale(self):
        return (self.d * self.theta) ** (1.0 / (2 * self.m + 1))

    def s_of_ell(self, ell):
        return (ell - self.b * self.theta) / self.fluct_scale

    def cdf_at(self, s):
        """Exact law of the scaled maximum as a step function in s.

        The maximum sits on the half-integer lattice, so its CDF at s is
        P(k_max <= h) for the largest half-integer h below the s-image; that
        is the tabulated P(k_max < ell) with ell = h + 1/2 the nearest
        lattice point, i.e. floor(b theta + s scale + 1/2).
        """
        target = self.b * self.theta + s * self.fluct_scale
        ell_star = math.floor(target + 0.5)
        first_ell = self.rows[0][0]
        if ell_star < first_ell:
            return 0.0
        idx = min(ell_star - first_ell, len(self.rows) - 1)
        return self.rows[idx][1]


def cdf_table(coeffs, ell_lo, ell_hi):
    """Tabulate P(k_max < ell) for ell in [ell_lo, ell_hi] with scaling data."""
    profile = edge_profile(coeffs)
    mx = profile.principal
    rows = tuple((ell, exact_cdf(coeffs, ell))
                 for ell in range(int(ell_lo), int(ell_hi) + 1))
    return CdfTable(theta=coeffs.theta, gammas=coeffs.gammas, rows=rows,
                    b=profile.b, d=mx.d, m=mx.m, n_cuts=profile.n_cuts)


def table_for_srange(coeffs, s_min=-6.0, s_max=4.0):
    """CdfTable covering the image of [s_min, s_max] on the lattice."""
    profile = edge_profile(coeffs)
    mx = profile.principal
    scale = (mx.d * coeffs.theta) ** (1.0 / (2 * mx.m + 1))
    ell_lo = max(1, math.floor(profile.b * coeffs.theta + s_min * scale) - 1)
    ell_hi = math.ceil(profile.b * coeffs.theta + s_max * scale) + 1
    return cdf_table(coeffs, ell_lo, ell_hi)


def scaled_convergence_study(gammas, theta_list, s_grid=None, n_cuts=None):
    """Sup-distance between the scaled lattice CDF and its limiting edge law.

    Returns a list of per-theta reports {theta, sup_distance, table}; the
    power of the limit law defaults to the cut count of the sea at the edge.
    """
    if s_grid is None:
        s_grid = np.linspace(-6.0, 4.0, 101)
    s_grid = np.asarray(s_grid, dtype=float)
    profile = edge_profile(HoppingCoefficients(gammas))
    mx = profile.principal
    power = int(n_cuts) if n_cuts is not None else profile.n_cuts
    limit_vals = np.array([limiting_cdf(mx.m, power, s) for s in s_grid])

    reports = []
    for theta in theta_list:
        table = table_for_srange(HoppingCoefficients(gammas, theta=theta),
                                 float(s_grid[0]), float(s_grid[-1]))
        lattice_vals = np.array([table.cdf_at(s) for s in s_grid])
        sup = float(np.max(np.abs(lattice_vals - limit_vals)))
        reports.append({"theta": float(theta), "sup_distance": sup,
                        "power": power, "m": mx.m, "table": table})
    return reports


def oscillation_average(n, chi_b=1.0, nodes=256):
    """Average of the cyclic product of n cosines over one oscillation period.

    The product cos(chi(x_1 - x_2)) ... cos(chi(x_n - x_1)) averaged over the
    period box equals tr(T^n) for the rank-two integral operator with kernel
    (chi/2 pi) cos(chi (x - y)); the periodic trapezoid discretisation of that
    trace is the full tensor-product quadrature reorganised, and is exact up
    to roundoff for trigonometric polynomials.  Independent of chi_b.
    """
    n = int(n)
    if not 2 <= n <= 4:
        raise ValueError("supported for 2 <= n <= 4")
    period = 2.0 * math.pi / chi_b
    xs = period * np.arange(nodes) / nodes
    t = np.cos(chi_b * (xs[:, None] - xs[None, :])) * (chi_b / (2.0 * math.pi)) \
        * (period / nodes)
    return float(np.trace(np.linalg.matrix_power(t, n)))
