"""Exact finite-coupling correlation kernel, by series and by contour quadrature.

The generating factor F(z) = exp(theta sum_r gamma_r (z^r - z^{-r})) has unit
modulus on |z| = 1, so its Laurent coefficients J_n form an l^2-normalised
band (sum J_n^2 = 1).  The ground-state propagator between half-integer sites
k and l is the discrete-Bessel-type series

    K(k, l) = sum_{i in 1/2, 3/2, ...} J_{k+i} J_{l+i},

which is the primary O(band) evaluation path.  Because K is a Hankel product
it obeys the diagonal recurrence K(k, l) = K(k + 1, l + 1) + J_{k+1/2} J_{l+1/2},
so a block over many sites is read from one reverse cumulative sum of
J_u J_{u+d} per gap d between sites: O(gaps * band) additions, no matrix
product.  The band keeps only the J_n that a Cauchy estimate cannot certify
negligible, so those sums carry no FFT roundoff.  An independent double-contour
quadrature of the same kernel on circles |z| = 1 + eps, |w| = 1 - eps
(eps = QUAD_EPS) provides the oracle; both are exact representations of the
same analytic object, so they must agree to quadrature accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BandTooNarrow, NoConvergence
from .potential import _AngleGrid, eval_dispersion

BAND_TAIL_TOL = 1e-15
BAND_SUPPORT_TOL = 1e-20  # |J_n| certified below this outside the stored band
QUAD_TOL = 1e-10
QUAD_EPS = 0.05
QUAD_MAX_NODES = 2 ** 14  # its doublings take 0.03 s at theta = 150
MATRIX_BLOCK = 2 ** 16  # entries of the index arrays one kernel_matrix block holds
# desk-scale cap on the band's half-width N, so its FFT has at most 2^20
# points: the widest band measured to build has N = 182 672 (twelve equal
# weights, theta = 1150); gamma = (1,) reaches it near theta = 1.31e5
MAX_BAND_HALF_WIDTH = 2 ** 18


@dataclass(frozen=True)
class CoefficientBand:
    """Laurent coefficients J_{-N..N} of the kernel's generating factor and
    ``roundoff``, the largest FFT value dropped beyond N.  ``trace_floor``,
    1/2 ((2N + 1) roundoff)^2, is the trace that roundoff alone can carry
    over the band: no trace or leakage tolerance at or under it is certified.
    """

    half_width: int
    coeffs: np.ndarray  # J_{-N..N}, index n stored at n + N
    roundoff: float = 0.0

    @property
    def trace_floor(self):
        return 0.5 * ((2 * self.half_width + 1) * self.roundoff) ** 2

    @cached_property
    def right_traces(self):
        """Read-only ``tail_trace`` of every cut a = 0..N at index a (0.0 at N)."""
        traces = tail_trace(self, np.arange(self.half_width + 1))
        traces.flags.writeable = False
        return traces


def _fft_band(log_fn, size, what, floor=1.0):
    """Real Fourier coefficients of exp(log_fn(phi)) from one FFT of ``size``
    points, n = -size/2 .. size/2 - 1 stored at n + size/2, and their scale
    max(floor, max |coefficient|).

    ``log_fn`` gets the grid as an ``_AngleGrid``, whose cos(r phi) and
    sin(r phi) ``_harmonics`` builds once per process and size (up to its
    cache bound), not once per band.  BandTooNarrow if the imaginary residue
    passes 1e-13 times the scale.
    """
    values = np.exp(log_fn(_AngleGrid(size)))
    # fft[k]/size = coefficient of e^{+i n phi} with n = k folded into
    # [-size/2, size/2); the caller bounds the aliased terms
    coeffs = np.fft.fft(values) / size
    half = size // 2
    folded = np.concatenate([coeffs[half:], coeffs[:half]])
    # tolerances scale with the coefficient magnitude (symbols of large
    # coupling have huge but perfectly benign dynamic range)
    scale = max(floor, float(np.max(np.abs(folded))))
    if np.max(np.abs(folded.imag)) > 1e-13 * scale:
        raise BandTooNarrow(
            f"{what}: imaginary residue {np.max(np.abs(folded.imag)):.2e}")
    return folded.real, scale


def _fourier_band(log_fn, width_hint, what):
    """Real Fourier coefficients of exp(log_fn(phi)) with tail checks.

    Doubles the grid up to 3 times if the outermost coefficients are not yet
    below BAND_TAIL_TOL.
    """
    size = 2 ** max(8, math.ceil(math.log2(8.0 * (math.ceil(width_hint) + 64))))
    for _ in range(4):
        band, scale = _fft_band(log_fn, size, what)
        tail = max(np.max(np.abs(band[:8])), np.max(np.abs(band[-8:])))
        if tail < BAND_TAIL_TOL * scale:
            return band, size // 2
        size *= 2
    raise BandTooNarrow(f"{what}: band not captured at grid size {size // 2}")


def _support_half_width(theta, gammas):
    """Least N such that |J_n| < BAND_SUPPORT_TOL for every |n| >= N, certified.

    On |z| = e^{+-t}, |F(z)| <= exp(h(t)) with h(t) = 2 theta sum_r |gamma_r|
    sinh(r t), so Cauchy's estimate gives |J_n| <= exp(h(t) - |n| t) for every
    t > 0, under the tolerance once |n| > (h(t) + c) / t, c = -log(tol).  The
    best t solves t h'(t) - h(t) = c (the left side increases from 0), found
    by bisection; any t the bisection stops at still certifies.
    """
    terms = [(r, 2.0 * abs(theta * g)) for r, g in enumerate(gammas, start=1)
             if g != 0.0]
    c = -math.log(BAND_SUPPORT_TOL)
    if theta == 0.0 or not terms:
        return 1  # F = 1: J_n = 0 for every n != 0
    t_max = 700.0 / terms[-1][0]  # keeps sinh and cosh finite

    def excess(t):  # t h'(t) - h(t) - c, summed left to right
        total = 0.0
        for r, a in terms:
            x = r * t
            total += a * (x * math.cosh(x) - math.sinh(x))
        return total - c

    lo, t = 0.0, min(1.0, t_max)
    while excess(t) < 0.0 and t < t_max:
        lo, t = t, min(2.0 * t, t_max)
    for _ in range(60):
        mid = 0.5 * (lo + t)
        if mid == lo or mid == t:
            break  # lo and t adjacent: no later step moves t
        if excess(mid) < 0.0:
            lo = mid
        else:
            t = mid
    h = sum(a * math.sinh(r * t) for r, a in terms)
    width = (h + c) / t  # inf once 2 theta |gamma_r| overflows
    return math.floor(width) + 1 if math.isfinite(width) else math.inf


def coefficient_band(coeffs):
    """Build the Laurent band of exp(theta sum gamma_r (z^r - z^{-r})).

    The band stores J_n for |n| <= N only, N from ``_support_half_width``: the
    Cauchy estimate certifies |J_n| < BAND_SUPPORT_TOL for |n| >= N.  One FFT
    of the least power of two >= max(256, 4 (N + 1)) points takes them: every
    index it aliases onto |n| <= N lies past 3 N, under the same bound, so
    the FFT values dropped beyond N are roundoff.  That roundoff grows with
    the phase theta G(phi), bounded by 2 theta sum |gamma_r|; a dropped value
    at or above BAND_TAIL_TOL times that bound (at least 1), or an imaginary
    residue above 1e-13 times it, raises BandTooNarrow.  N over
    MAX_BAND_HALF_WIDTH is a ValueError naming theta, raised before anything
    is allocated.
    """
    gam = coeffs.gammas
    theta = coeffs.theta
    n = _support_half_width(theta, gam)
    if n > MAX_BAND_HALF_WIDTH:
        raise ValueError(f"theta={theta!r} with gamma={gam!r} needs a coefficient "
                         f"band of half-width {n:.6g} > {MAX_BAND_HALF_WIDTH}")
    # on the circle F(e^{i phi}) = exp(i theta G(phi)), G the antiderivative of D
    log_f = lambda phi: 1j * theta * eval_dispersion(coeffs, phi, order=-1)
    size = max(256, 1 << (4 * n + 3).bit_length())  # least 2^j >= 4 (N + 1)
    phase = max(1.0, 2.0 * (theta * sum(map(abs, gam))))
    # |J_n| <= 1, so the phase bound is the scale of the imaginary residue
    band, _ = _fft_band(log_f, size, "coefficient band", phase)
    # stored as J_{-half}..J_{half-1}; keep the certified window J_{-n}..J_n
    half = size // 2
    roundoff = float(np.max(np.abs(np.concatenate(
        [band[:half - n], band[half + n + 1:]]))))
    if roundoff >= BAND_TAIL_TOL * phase:
        raise BandTooNarrow(
            f"FFT value {roundoff:.2e} beyond the certified support {n}")
    sym = band[half - n:half + n + 1].copy()
    parseval = float(np.dot(sym, sym))
    if abs(parseval - 1.0) > 1e-12:
        raise BandTooNarrow(f"Parseval defect {parseval - 1.0:.2e}")
    return CoefficientBand(half_width=n, coeffs=sym, roundoff=roundoff)


def _half_ints(sites, name):
    """k - 1/2 of each half-integer site k of ``sites`` as int64 of its shape;
    ValueError naming ``name=`` and the first site that is not one."""
    values = np.asarray(sites, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        twice = np.rint(2.0 * values)
        bad = ~(np.abs(2.0 * values - twice) <= 1e-9) | (twice % 2.0 == 0.0)
    if np.any(bad):
        raise ValueError(f"{name}={float(values.flat[np.argmax(bad)])!r} "
                         "is not a half-integer")
    return ((twice - 1.0) // 2.0).astype(np.int64)


def kernel_eval(band, k, ell):
    """Series K(k, l) = sum_{i>0} J_{k+i} J_{l+i} at each pair of the site arrays
    ``k`` and ``ell``, of one shape (scalars give a float): one dot per pair."""
    ka = _half_ints(k, "k") + 1   # first summand index k + 1/2
    la = _half_ints(ell, "ell") + 1
    if ka.shape != la.shape:
        raise ValueError(f"k and ell differ in shape: {ka.shape} and {la.shape}")
    n = band.half_width
    out = np.zeros(ka.shape)
    for i, (f, g) in enumerate(zip(ka.ravel().tolist(), la.ravel().tolist())):
        t0, t1 = max(0, -n - f, -n - g), min(n - f, n - g)
        if t0 <= t1:
            out.flat[i] = np.dot(band.coeffs[f + t0 + n:f + t1 + n + 1],
                                 band.coeffs[g + t0 + n:g + t1 + n + 1])
    return float(out) if out.ndim == 0 else out


def kernel_matrix(band, sites):
    """Kernel matrix over half-integer sites from diagonal tail sums.

    With f = k + 1/2 the index of a site's first summand, K(k, l) =
    sum_{u >= v} J_u J_{u+d} for d = |f_k - f_l| and v = min(f_k, f_l).  One
    reverse cumulative sum over the band gives that tail sum at every v from
    the least f up, for each gap d up to 2N (it is 0 past that); the matrix
    is gathered from the table in row blocks of at most MATRIX_BLOCK entries.
    Sites may be in any order, repeated or off the band.
    """
    first = _half_ints(sites, "site").reshape(-1) + 1
    size = first.size
    mat = np.empty((size, size))
    if size == 0:
        return mat
    n = band.half_width
    low = min(max(int(first.min()), -n), n + 1)
    rows = n + 1 - low    # lower summation ends low..n; row `rows` (past n) is 0
    gaps = min(int(first.max() - first.min()), 2 * n) + 1  # column `gaps` is 0
    # tails[v - low, d] = sum_{u >= v} J_u J_{u+d}, one reverse cumulative
    # sum down the columns of the Hankel products J_v J_{v+d}
    head = band.coeffs[low + n:]
    windows = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([head, np.zeros(gaps)]), gaps)[:rows]
    tails = np.zeros((rows + 1, gaps + 1))
    np.cumsum((head[:, None] * windows)[::-1], axis=0,
              out=tails[:rows][::-1, :gaps])
    flat = tails.ravel()
    # K(k, l) sits at row min(f_k, f_l) - low (clipped to the band) and
    # column |f_k - f_l|; the clip is monotone, so it is taken per site
    row_at = np.clip(first - low, 0, rows) * (gaps + 1)
    step = max(1, MATRIX_BLOCK // size)
    for i in range(0, size, step):
        index = np.abs(first[i:i + step, None] - first)
        np.minimum(index, gaps, out=index)
        index += np.minimum(row_at[i:i + step, None], row_at)
        np.take(flat, index, out=mat[i:i + step])
    return mat


def tail_trace(band, above):
    """Exact mass sum_{k > above} K(k, k) dropped right of a window ending at
    ``above`` (an integer cut or an array of them): sum_i max(i - above, 0)
    J_i^2, from two reverse cumulative sums.
    """
    mass = np.cumsum((band.coeffs ** 2)[::-1])[::-1]  # sum_{i >= j} J_i^2
    dropped = np.append(np.cumsum(mass[::-1])[::-1], 0.0)
    # the cut a drops j > a, at a + 1 + N; below the band each j drops mass[0]
    k = np.asarray(above).astype(np.int64) + band.half_width + 1
    out = dropped[np.clip(k, 0, len(mass))] + np.maximum(-k, 0) * mass[0]
    return float(out) if np.ndim(out) == 0 else out


def _least_cut(band, tol):
    """Least cut a in 0..N whose right trace (``band.right_traces``) is
    under ``tol``; the last is 0.0, so one is for every tol > 0."""
    return int(np.argmax(band.right_traces < tol))


def _contour_factors(coeffs, n1, n2, m):
    """The m-point trapezoid rules on |z| = 1 + QUAD_EPS and |w| = 1 - QUAD_EPS.

    Returns the powers omega^j of the m-th root of unity, which place the
    nodes z_j = (1 + QUAD_EPS) omega^j and w_l = (1 - QUAD_EPS) omega^l, and
    the factors a_j = F(z_j) z_j^n1 and b_l = w_l^n2 / F(w_l): the kernel is
    the real part of (1/m^2) sum_{j,l} a_j b_l / (z_j - w_l).
    """
    gam = coeffs.gammas
    theta = coeffs.theta

    def log_factor(z):
        acc = np.zeros_like(z)
        for r, g in enumerate(gam, start=1):
            if g != 0.0:
                acc = acc + theta * g * (z ** r - z ** (-r))
        return acc

    omega = np.exp(2j * np.pi * np.arange(m) / m)
    zs = (1.0 + QUAD_EPS) * omega
    ws = (1.0 - QUAD_EPS) * omega
    az = np.exp(log_factor(zs)) * zs ** n1
    bw = np.exp(-log_factor(ws)) * ws ** n2
    return omega, az, bw


def _contour_sum(coeffs, n1, n2, m):
    """(1/m^2) sum_{j,l} a_j b_l / (z_j - w_l) over ``_contour_factors``.

    On the two circles 1/(z_j - w_l) = omega^-l g((j - l) mod m), with
    g(d) = 1/((1 + QUAD_EPS) omega^d - (1 - QUAD_EPS)), so the sums over l
    are one circular convolution of b_l omega^-l with g: O(m log m) by FFT.
    """
    omega, az, bw = _contour_factors(coeffs, n1, n2, m)
    g = 1.0 / ((1.0 + QUAD_EPS) * omega - (1.0 - QUAD_EPS))
    inner = np.fft.ifft(np.fft.fft(bw * omega.conj()) * np.fft.fft(g))
    return float(np.real(az @ inner)) / (m * m)


def kernel_eval_quadrature(coeffs, k, ell):
    """Double-contour trapezoid quadrature of the exact kernel (oracle path).

    The circles have radii 1 + QUAD_EPS and 1 - QUAD_EPS.  Nodes are doubled
    until two successive evaluations agree to QUAD_TOL; exponentially
    convergent since the integrand is analytic in both annuli, until
    cancellation at large theta (about 150 for gamma = (1,)) keeps the sums
    apart and NoConvergence is raised past QUAD_MAX_NODES.
    """
    n1 = -int(_half_ints(k, "k"))        # z-exponent: z^{1/2 - k}
    n2 = int(_half_ints(ell, "ell")) + 1  # w-exponent: w^{ell + 1/2}
    prev = None
    m = 64
    while m <= QUAD_MAX_NODES:
        val = _contour_sum(coeffs, n1, n2, m)
        if prev is not None and abs(val - prev) < QUAD_TOL:
            return val
        prev = val
        m *= 2
    raise NoConvergence(f"contour quadrature not converged at {QUAD_MAX_NODES} nodes")
