"""Exact finite-coupling correlation kernel and its scaling-limit predictions.

The generating factor F(z) = exp(theta sum_r gamma_r (z^r - z^{-r})) has unit
modulus on |z| = 1, so its Laurent coefficients J_n form an l^2-normalised
band (sum J_n^2 = 1).  The ground-state propagator between half-integer sites
k and l is the discrete-Bessel-type series

    K(k, l) = sum_{i in 1/2, 3/2, ...} J_{k+i} J_{l+i},

which is the primary O(band) evaluation path; a block over many sites is one
product H H^T with H a Hankel slice of the band.  An independent double-contour
quadrature of the same kernel on circles |z| = 1+eps, |w| = 1-eps provides the
oracle; both are exact representations of the same analytic object, so they
must agree to quadrature accuracy.

Local predictions: in the bulk the kernel approaches an extended discrete sine
kernel assembled from the Fermi-sea boundary angles; at a two-cut right edge
it approaches the order-m Airy kernel times an oscillating factor
2 cos(chi_b (k - l)) at scale (d theta)^(-1/(2m+1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BandTooNarrow, NoConvergence, UnsupportedEdge
from .potential import FermiSea

BAND_TAIL_TOL = 1e-15
QUAD_TOL = 1e-10
QUAD_MAX_NODES = 2 ** 18


@dataclass(frozen=True)
class CoefficientBand:
    """Laurent coefficients J_{-N..N} of the kernel's generating factor."""

    theta: float
    gammas: tuple
    half_width: int
    coeffs: np.ndarray  # J_{-N..N}, index n stored at n + N

    def __getitem__(self, n):
        n = int(n)
        if abs(n) > self.half_width:
            return 0.0
        return float(self.coeffs[n + self.half_width])


def _fourier_band(log_fn, width_hint, what):
    """Real Fourier coefficients of exp(log_fn(phi)) with tail checks.

    Doubles the grid up to 3 times if the outermost coefficients are not yet
    below BAND_TAIL_TOL.
    """
    size = 2 ** max(8, math.ceil(math.log2(8.0 * (math.ceil(width_hint) + 64))))
    for _ in range(4):
        phi = 2.0 * math.pi * np.arange(size) / size
        values = np.exp(log_fn(phi))
        # fft[k]/size = coefficient of e^{+i n phi} with n = k folded into
        # [-size/2, size/2) (aliased terms are below the tail tolerance).
        coeffs = np.fft.fft(values) / size
        half = size // 2
        folded = np.concatenate([coeffs[half:], coeffs[:half]])
        # tolerances scale with the coefficient magnitude (symbols of large
        # coupling have huge but perfectly benign dynamic range)
        scale = max(1.0, float(np.max(np.abs(folded))))
        if np.max(np.abs(folded.imag)) > 1e-13 * scale:
            raise BandTooNarrow(
                f"{what}: imaginary residue {np.max(np.abs(folded.imag)):.2e}")
        band = folded.real
        tail = max(np.max(np.abs(band[:8])), np.max(np.abs(band[-8:])))
        if tail < BAND_TAIL_TOL * scale:
            return band, half
        size *= 2
    raise BandTooNarrow(f"{what}: band not captured at grid size {size // 2}")


def coefficient_band(coeffs):
    """Build the Laurent band of exp(theta sum gamma_r (z^r - z^{-r}))."""
    coeffs.require_theta()
    gam = coeffs.gammas
    theta = coeffs.theta

    def log_f(phi):
        acc = np.zeros_like(phi, dtype=complex)
        for r, g in enumerate(gam, start=1):
            if g != 0.0:
                acc = acc + 2j * theta * g * np.sin(r * phi)
        return acc

    width = theta * sum(r * abs(g) for r, g in enumerate(gam, start=1))
    band, half = _fourier_band(log_f, width, "coefficient band")
    # stored as J_{-half}..J_{half-1}; drop to a symmetric window
    n = half - 1
    sym = band[half - n:half + n + 1].copy()
    parseval = float(np.dot(sym, sym))
    if abs(parseval - 1.0) > 1e-12:
        raise BandTooNarrow(f"Parseval defect {parseval - 1.0:.2e}")
    return CoefficientBand(theta=theta, gammas=gam, half_width=n, coeffs=sym)


def _half_int(k, name="index"):
    v = float(k)
    twice = round(2.0 * v)
    if abs(2.0 * v - twice) > 1e-9 or twice % 2 == 0:
        raise ValueError(f"{name}={k!r} is not a half-integer")
    return (twice - 1) // 2  # k = k_int + 1/2


def kernel_eval(band, k, ell):
    """Series evaluation K(k, l) = sum_{i>0} J_{k+i} J_{l+i}."""
    ka = _half_int(k, "k") + 1   # first summand index k + 1/2
    la = _half_int(ell, "ell") + 1
    n = band.half_width
    t0 = max(0, -n - ka, -n - la)
    t1 = min(n - ka, n - la)
    if t1 < t0:
        return 0.0
    a = band.coeffs[ka + t0 + n: ka + t1 + n + 1]
    b = band.coeffs[la + t0 + n: la + t1 + n + 1]
    return float(np.dot(a, b))


def kernel_matrix(band, sites):
    """Kernel matrix over half-integer sites as one Hankel product H H^T.

    Row i of H, (J_{k_i + 1/2}, J_{k_i + 3/2}, ...), is a row of the sliding
    window view of the zero-padded band.  Sites may be in any order, repeated
    or off the band.
    """
    first = np.array([_half_int(k, "site") + 1 for k in sites], dtype=np.int64)
    n = band.half_width
    low = int(first.min(initial=n + 1))
    width = max(n - low + 1, 1)   # summands J_low..J_n
    pad = max(-n - low, 0)        # J_i = 0 below -n
    padded = np.concatenate([np.zeros(pad), band.coeffs, np.zeros(width)])
    rows = np.minimum(first, n + 1) + n + pad
    h = np.lib.stride_tricks.sliding_window_view(padded, width)[rows]
    return h @ h.T


def tail_trace(band, above, below=None):
    """Exact mass dropped by keeping only the sites k with below < k < above.

    sum_{k > above} K(k, k) = sum_i max(i - above, 0) J_i^2, plus, with
    ``below``, sum_{k < below} (1 - K(k, k)) = sum_i max(below - i, 0) J_i^2.
    """
    i = np.arange(-band.half_width, band.half_width + 1)
    weight = np.maximum(i - int(above), 0)
    if below is not None:
        weight = weight + np.maximum(int(below) - i, 0)
    return float(np.dot(weight, band.coeffs * band.coeffs))


def kernel_eval_quadrature(coeffs, k, ell, eps=0.05, tol=QUAD_TOL):
    """Double-contour trapezoid quadrature of the exact kernel (oracle path).

    Nodes are doubled until two successive evaluations agree to ``tol``;
    exponentially convergent since the integrand is analytic in both annuli.
    """
    coeffs.require_theta()
    if not 0.0 < eps <= 0.2:
        raise ValueError("eps must lie in (0, 0.2]")
    n1 = -_half_int(k, "k")        # z-exponent: z^{1/2 - k}
    n2 = _half_int(ell, "ell") + 1  # w-exponent: w^{ell + 1/2}
    gam = coeffs.gammas
    theta = coeffs.theta

    def log_factor(z):
        acc = np.zeros_like(z)
        for r, g in enumerate(gam, start=1):
            if g != 0.0:
                acc = acc + theta * g * (z ** r - z ** (-r))
        return acc

    prev = None
    m = 64
    while m <= QUAD_MAX_NODES:
        zs = (1.0 + eps) * np.exp(2j * np.pi * np.arange(m) / m)
        ws = (1.0 - eps) * np.exp(2j * np.pi * np.arange(m) / m)
        az = np.exp(log_factor(zs)) * zs ** n1
        bw = np.exp(-log_factor(ws)) * ws ** n2
        # K = (1/m^2) sum_{j,l} az_j bw_l / (z_j - w_l); chunk rows to keep
        # the Cauchy matrix bounded in memory at large node counts
        acc = 0.0 + 0.0j
        for j0 in range(0, m, 8192):
            zc = zs[j0:j0 + 8192]
            acc += az[j0:j0 + 8192] @ ((1.0 / (zc[:, None] - ws[None, :])) @ bw)
        val = float(np.real(acc)) / (m * m)
        if prev is not None and abs(val - prev) < tol:
            return val
        prev = val
        m *= 2
    raise NoConvergence(f"contour quadrature not converged at {QUAD_MAX_NODES} nodes")


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
    if profile.n_cuts != 2:
        raise UnsupportedEdge(f"n_cuts={profile.n_cuts}; only the two-cut case is supported")
    mx = interior[0]
    scale = (mx.d * theta) ** (1.0 / (2 * mx.m + 1))
    x = (float(k) - profile.b * theta) / scale
    y = (float(ell) - profile.b * theta) / scale
    if abs(x) > 6.0 or abs(y) > 6.0:
        raise ValueError("edge variables out of the calibrated window |x|,|y| <= 6")
    from .airy import airy_kernel  # deferred: avoids a hard import cycle

    osc = 2.0 * math.cos(mx.chi_b * (float(k) - float(ell)))
    return osc * airy_kernel(mx.m, x, y) / scale
