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
{ell + 1/2, ...} up to the least certified cut, the large-coupling route.
Either route's whole table of ell is one Cholesky factor's minors (``_log_minors``).
Each table is cut by the band's ``right_traces``; the sampler's edge window
and its ``ks_exact`` read the same ``_gap_table``, both from one GapBlock.

The edge scaling is one affine map on ``EdgeProfile``: ``s_of`` sends ell
to s = (ell - b theta) / (d theta)^(1/(2m+1)), and ``lattice_of`` sends s
back to the lattice point whose row is the law of the scaled maximum at s
(a step function in s: k_max is lattice valued).  The scaled study reads
those rows from one ``exact_cdf`` table per theta and compares them with the
limit law F_{2m+1}^n at the sea's cut count n, from ``_desk_law`` like ``ks_limit``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .airy import limiting_cdf
from .errors import NotPositiveDefinite
from .kernel import _fourier_band, _least_cut, coefficient_band, kernel_matrix
from .potential import HoppingCoefficients, _AngleGrid, edge_profile

MAX_TABLE_DIM = 4096  # desk-scale cap on a Toeplitz or Fredholm matrix's order
ROUTE_SCAN = _AngleGrid(2048, closed=True)  # where exact_cdf reads the symbol
TRACE_TOL = 1e-12  # right trace a Fredholm table may drop past its cut
_CHOLESKY_BLOCK = 256  # columns per np.linalg.cholesky call in _log_minors


def _ell_array(ell):
    """``ell`` as an int64 array of at least one dimension; ValueError naming
    ``ell=`` and the first value that an int64 does not hold exactly."""
    values = np.atleast_1d(ell)
    if values.dtype.kind != "i":  # floats, or Python ints past int64
        try:
            values = values.astype(float)
        except OverflowError:  # an int past the float range: inf or -inf
            values = np.array([v if abs(v) <= sys.float_info.max else
                               (math.inf if v > 0 else -math.inf)
                               for v in values.flat], dtype=float)
        bad = (np.floor(values) != values) | (values < -2.0 ** 63) | (values >= 2.0 ** 63)
        if np.any(bad):
            raise ValueError(f"ell={float(values.flat[np.argmax(bad)])!r} is not an int64")
    return values.astype(np.int64)


def _swept_factor(block):
    """Column-by-column Cholesky factor of the symmetric ``block`` (its lower
    triangle), and the index of its first pivot <= 0 (None if there is none).

    The fallback for a block ``np.linalg.cholesky`` refuses, which does not
    say where.  A pivot that is all roundoff can take either sign: OpenBLAS
    scales each column by the reciprocal of its pivot's root where this
    sweep divides by it, and refuses some blocks whose sweep ends on a
    pivot of 5.6e-17.  The sweep decides.
    """
    low = np.tril(block)
    for j in range(len(low)):
        pivot = low[j, j] - low[j, :j] @ low[j, :j]
        if not pivot > 0.0:
            return low, j
        low[j, j] = root = math.sqrt(pivot)
        low[j + 1:, j] -= low[j + 1:, :j] @ low[j, :j]
        low[j + 1:, j] /= root
    return low, None


def _log_minors(mat, orders, tol):
    """Log leading minors of the symmetric ``mat`` at ``orders``, from one
    Cholesky factor, and the order of its first pivot <= 0 (0 if there is
    none).

    The factor is left-looking by blocks of _CHOLESKY_BLOCK columns, each
    diagonal block one ``np.linalg.cholesky`` (``_swept_factor`` where that
    refuses); a table of at most that order is one call.  A larger ``mat``
    is the factor's scratch, so the only temporaries are one block column
    and one diagonal block.  Past the first pivot <= 0 the minors
    are -inf when the last minor before it is under ``tol``; otherwise the
    log minors are None and the caller raises.  The minor is compared as
    exp(min(log, 0)), so log minors above 0 (a Toeplitz table's run up to
    the Szego constant) cannot overflow.
    """
    size = len(mat)
    diag = np.empty(size)
    info = 0
    for k0 in range(0, size, _CHOLESKY_BLOCK):
        k1 = min(k0 + _CHOLESKY_BLOCK, size)
        if k0:
            mat[k0:, k0:k1] -= mat[k0:, :k0] @ mat[k0:k1, :k0].T
        try:
            low = np.linalg.cholesky(mat[k0:k1, k0:k1])
        except np.linalg.LinAlgError:
            low, failed = _swept_factor(mat[k0:k1, k0:k1])
            if failed is not None:
                info = k0 + failed + 1
                diag[k0:info - 1] = low.diagonal()[:failed]
                break
        diag[k0:k1] = low.diagonal()
        if k1 < size:
            # L21 = A21 L11^-T; numpy has no triangular solve, and its pivoted
            # one took twice the time of this inverse on 4 064 sites
            mat[k1:, k0:k1] = mat[k1:, k0:k1] @ np.linalg.inv(low).T
    n = info - 1 if info else size
    logdet = np.concatenate(([0.0], np.cumsum(2.0 * np.log(diag[:n]))))
    orders = np.minimum(orders, n + 1)
    if np.max(orders) > n and math.exp(min(logdet[-1], 0.0)) >= tol:
        return None, info
    return np.append(logdet, -np.inf)[orders], info


def symbol_coeffs(coeffs, n_max):
    """Fourier coefficients f_{-n_max}..f_{n_max} of the Toeplitz symbol."""
    width = 2.0 * (coeffs.theta * sum(r * abs(g) for r, g in
                                      enumerate(coeffs.gammas, start=1)))
    band, half = _fourier_band(coeffs.log_symbol, width, "Toeplitz symbol")
    n_max = int(n_max)
    out = np.zeros(2 * n_max + 1)
    lo = max(-n_max, -half)
    hi = min(n_max, half - 1)
    out[lo + n_max:hi + n_max + 1] = band[lo + half:hi + half + 1]
    return out


def toeplitz_cdf(coeffs, ell):
    """P(k_max < ell) from the first ell log-pivots of one Cholesky factor.

    ``ell`` is an integer or array; one factor of T_max(ell) serves them all
    (an empty array gives an empty table).  det T_0 = 1, and P = 0 for
    ell < 0 because k_max >= -1/2.
    """
    ells = _ell_array(ell)
    if ells.size == 0:
        return np.zeros(ells.shape)
    top = max(int(ells.max()), 0)
    if top > MAX_TABLE_DIM:
        raise ValueError(f"ell capped at {MAX_TABLE_DIM} at desk scale")
    f = symbol_coeffs(coeffs, top)
    # T_ij = f_{|i - j|}: row i is the window of f_{|k|}, |k| < top, from
    # k = -i; the slice leaves T 0 x 0 at top = 0
    line = f[top + np.abs(np.arange(1 - top, top))]
    windows = np.lib.stride_tricks.sliding_window_view(line, top)[::-1]
    logdet, failed = _log_minors(windows[:top].copy(), np.maximum(ells, 0), 0.0)
    if logdet is None:
        raise NotPositiveDefinite(f"T_ell not positive definite at ell={failed}")
    p = np.exp(logdet - coeffs.szego_constant())
    p[ells < 0] = 0.0
    if np.max(p) > 1.0 + 1e-9:
        raise NotPositiveDefinite(
            f"P={float(np.max(p))!r} overshoots 1 beyond tolerance")
    p = np.minimum(p, 1.0)
    return float(p[0]) if np.ndim(ell) == 0 else p


def fredholm_cdf_check(coeffs, ell, trace_tol=TRACE_TOL):
    """P(k_max < ell) as det(I - K) on the sites above ell (integer or array):
    the large-coupling route and the Toeplitz oracle, ``_gap_table`` on the
    model's band, whose ``trace_tol`` check it shares (an empty ell gives an
    empty table).
    """
    p = _gap_table(coefficient_band(coeffs), _ell_array(ell), trace_tol)
    return float(p[0]) if np.ndim(ell) == 0 else p


@dataclass(frozen=True)
class GapBlock:
    """K over the sites top - 1/2, top - 3/2, ... (``kernel_matrix``, in that
    order): the rows of every ``_gap_table`` of its band over those sites."""

    top: int
    kernel: np.ndarray


def gap_block(band, top, bottom):
    """The ``GapBlock`` of ``band`` over the sites top - 1/2 down to
    bottom + 1/2; more than MAX_TABLE_DIM of them is a ValueError."""
    size = top - bottom
    if size > MAX_TABLE_DIM:
        raise ValueError(f"Fredholm window of {size} sites > {MAX_TABLE_DIM}")
    return GapBlock(top, kernel_matrix(band, top - 0.5 - np.arange(size)))


def _gap_table(band, ells, trace_tol, block=None):
    """Gap probabilities det(I - K) on the sites above each integer of the
    array ``ells``: P(k_max < ell), from ``band`` (empty for no ell).

    The window [min ell, top) ends at max ell or, if higher, the least cut
    whose exact right trace (``band.right_traces``) is under ``trace_tol``;
    with sites ordered down from top, each row is a leading minor of one
    Cholesky factor of I - K, whose pivots are <= 1 - K(k, k) <= 1.  Rows
    past a pivot <= 0 (roundoff deep below the edge) lie in [0, last minor]
    and are 0.0 when that minor is under ``trace_tol``.  P = 0 for ell < 0
    because k_max >= -1/2; the window stops at site 1/2.  A window of more
    than MAX_TABLE_DIM sites, or a ``trace_tol`` that is not finite or is at
    or under the band's roundoff ``trace_floor``, is a ValueError.

    ``block``, a ``GapBlock`` of ``band``, gives I - K from its rows if it
    holds the window: each entry of K is a tail sum from the band's top, so
    the table is the same bit for bit as from a block of the window alone,
    which is built otherwise.
    """
    if not band.trace_floor < trace_tol < math.inf:
        raise ValueError(f"trace_tol={trace_tol!r} must be finite and over the "
                         f"band's roundoff floor {band.trace_floor:.1e}")
    if ells.size == 0:
        return np.zeros(ells.shape)
    rows = np.maximum(ells, 0)
    top, bottom = max(int(rows.max()), _least_cut(band, trace_tol)), int(rows.min())
    own = block is None or not top <= block.top <= bottom + len(block.kernel)
    if own:
        block = gap_block(band, top, bottom)
    start, size = block.top - top, top - bottom
    k = block.kernel[start:start + size, start:start + size]
    i_minus_k = np.negative(k, out=k if own else None)  # a block of its own in place
    i_minus_k.flat[::size + 1] += 1.0
    logdet, failed = _log_minors(i_minus_k, top - rows, trace_tol)
    if logdet is None:
        raise NotPositiveDefinite(f"I - K pivot <= 0 at site {top - failed + 0.5}")
    p = np.exp(logdet)  # rows past a pivot <= 0: 0.0
    p[ells < 0] = 0.0
    return p


def exact_cdf(coeffs, ell):
    """P(k_max < ell) by the numerically appropriate exact route (once per call).

    Toeplitz while the symbol's dynamic range fits in double precision, then
    Fredholm.  The range is read on ROUTE_SCAN, whose cosines are cached.
    The Toeplitz rows drift already below the switch: 3e-12 from the
    Fredholm ones at theta = 2.9, over 1e-9 from theta near 4.4.
    """
    if np.max(coeffs.log_symbol(ROUTE_SCAN)) <= 25.0:
        return toeplitz_cdf(coeffs, ell)
    return fredholm_cdf_check(coeffs, ell)


@lru_cache(maxsize=8)
def _desk_law(m, n, points):
    """The desk s-grid of ``points`` on [-6, 4] and F_{2m+1}^n on it, read-only
    and built on first use (an import-time ``linspace`` adds 0.15 MiB of RSS)."""
    s_grid = np.linspace(-6.0, 4.0, points)
    limit = limiting_cdf(m, n, s_grid)
    s_grid.flags.writeable = limit.flags.writeable = False
    return s_grid, limit


def scaled_convergence_study(gammas, theta_list, n_cuts=None):
    """Sup-distance between the scaled lattice CDF and its limiting edge law.

    Per-theta reports {theta, sup_distance, power, m, s, cdf, limit}, the
    last two on ``s``, the 101-point grid of ``_desk_law`` (it and ``limit``
    read-only): the lattice law at each s is one ``exact_cdf`` row,
    P(k_max < ``EdgeProfile.lattice_of(s, theta)``).  The limit law's power
    ``n_cuts`` defaults to the sea's cut count.  Maximizers of different
    orders or constants d raise ``UnsupportedEdge``, and a theta whose symbol
    amplitude overflows a ValueError from its model, before its lattice
    points are placed.
    """
    profile = edge_profile(HoppingCoefficients(gammas))
    m = profile.law_order
    power = int(n_cuts) if n_cuts is not None else profile.n_cuts
    s_grid, limit = _desk_law(m, power, 101)

    reports = []
    for theta in theta_list:
        coeffs = HoppingCoefficients(gammas, theta=theta)
        lattice_vals = exact_cdf(coeffs, profile.lattice_of(s_grid, theta))
        sup = float(np.max(np.abs(lattice_vals - limit)))
        reports.append({"theta": float(theta), "sup_distance": sup,
                        "power": power, "m": m, "s": s_grid,
                        "cdf": lattice_vals, "limit": limit})
    return reports
