"""Determinantal sampling of ground-state configurations on a finite window.

The exact kernel is truncated to a window of half-integer sites wide enough
that the mass outside is negligible: sites left of the window are effectively
frozen (occupied), sites right of it empty, and the leakage
sum_{k<lo} (1 - K(k,k)) + sum_{k>hi} K(k,k) is computed exactly from the
coefficient band rather than assumed.  The window matrix is one Hankel
product H H^T (``kernel.kernel_matrix``).

A determinantal process restricted to a subset A is the determinantal process
of K_A (Hough-Krishnapur-Peres-Virag 2006), so ``empirical_edge_law`` draws
k_max from A = {k >= ell_min = b theta - 8 (d theta)^(1/(2m+1))} alone.  Its
leakage is det(I - K_A) = P(k_max < ell_min) plus the right dropped trace.

Sampling uses the spectral decomposition of the windowed kernel: eigenvalues
in [0, 1] select an eigenvector subset by independent Bernoulli draws, then
the induced projection process is sampled sequentially (site by site, with
the selected frame orthogonalised against each chosen site's coordinate;
each site is one uniform located in the cumulative site weights).
Randomness comes from counter-based Philox streams keyed by
(seed, sample index), so results are reproducible regardless of how samples
are distributed over workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LeakageTooLarge
from .kernel import coefficient_band, kernel_matrix, tail_trace
from .kernel import kernel_eval  # noqa: F401  (bench/tracer.py patches it here)
from .potential import edge_profile, global_extrema, limit_density

EIG_CLIP_TOL = 1e-9


@dataclass(frozen=True)
class WindowedKernel:
    """Kernel restricted to half-integer sites k_lo..k_hi (given via k_int)."""

    k_lo_int: int
    k_hi_int: int
    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    leakage: float

    @property
    def sites(self):
        return np.arange(self.k_lo_int, self.k_hi_int + 1) + 0.5


def auto_window(coeffs, edge=False):
    """Window covering frozen-to-empty with bulk/edge scaled margins.

    With ``edge`` it starts instead at the sites that carry k_max, from
    ell_min = floor(b theta - 8 (d theta)^(1/(2m+1))) (clipped to the window).
    """
    b, b_tilde = global_extrema(coeffs)
    mx = edge_profile(coeffs).principal
    theta = coeffs.theta
    scale = (mx.d * theta) ** (1.0 / (2 * mx.m + 1))
    lo = math.floor(-b_tilde * theta - 10.0 * math.sqrt(max(theta, 1.0)))
    hi = math.ceil(b * theta + 10.0 * scale)
    if edge:
        lo = min(max(math.floor(b * theta - 8.0 * scale), lo), hi)
    return lo, hi


def windowed_kernel(coeffs, window=None, leakage_tol=1e-6, edge=False):
    """Build the kernel matrix over a window of sites and eigendecompose it.

    ``window`` is an integer pair (k_lo_int, k_hi_int) addressing sites
    k_int + 1/2; None selects the automatic window, whose leakage must stay
    under ``leakage_tol``.  With ``edge`` the window only has to hold k_max:
    None selects the edge window, and the leakage, det(I - K) (no particle in
    the window) plus the trace dropped on the right, is always checked.
    """
    auto = window is None
    if auto:
        window = auto_window(coeffs, edge=edge)
    k_lo, k_hi = int(window[0]), int(window[1])
    band = coefficient_band(coeffs)
    mat = kernel_matrix(band, np.arange(k_lo, k_hi + 1) + 0.5)
    eigvals, eigvecs = np.linalg.eigh(mat)
    if np.min(eigvals) < -EIG_CLIP_TOL or np.max(eigvals) > 1.0 + EIG_CLIP_TOL:
        raise LeakageTooLarge(
            f"windowed kernel eigenvalues escape [0,1]: "
            f"[{np.min(eigvals):.2e}, {np.max(eigvals):.2e}]")
    eigvals = np.clip(eigvals, 0.0, 1.0)
    if edge:
        leakage = float(np.prod(1.0 - eigvals)) + tail_trace(band, k_hi + 1)
    else:
        leakage = tail_trace(band, k_hi + 1, below=k_lo)
    if (auto or edge) and leakage >= leakage_tol:
        raise LeakageTooLarge(f"window {window} leaks {leakage:.2e}")
    return WindowedKernel(k_lo_int=k_lo, k_hi_int=k_hi, matrix=mat,
                          eigenvalues=eigvals, eigenvectors=eigvecs,
                          leakage=leakage)


def _rng_for(seed, index):
    return np.random.Generator(np.random.Philox(key=[int(seed), int(index)]))


def _sample_projection(vectors, rng):
    """Sites of one projection-DPP draw for the orthonormal frame ``vectors``.

    Sequential conditional sampling: site probabilities are the squared row
    norms of the frame projected away from the rows already chosen, updated
    by one Gram-Schmidt column per step (O(N k) per step, O(N k^2) total).
    """
    v = vectors
    n, rank = v.shape
    c = np.zeros((n, rank))
    norms2 = np.sum(v * v, axis=1)
    cdf = np.empty(n)
    chosen = np.empty(rank, dtype=np.int64)
    for it in range(rank):
        np.maximum(norms2, 0.0, out=cdf)
        cdf.cumsum(out=cdf)
        cdf /= cdf[-1]
        site = int(cdf.searchsorted(rng.random(), side="right"))
        chosen[it] = site
        denom = math.sqrt(max(norms2[site], 1e-300))
        c[:, it] = (v @ v[site] - c[:, :it] @ c[site, :it]) / denom
        norms2 -= c[:, it] ** 2
        norms2[site] = 0.0  # chosen: only rounding residue is left
    return chosen


def sample(wk, rng_seed, sample_index=0):
    """One configuration: sorted array of occupied half-integer sites."""
    rng = _rng_for(rng_seed, sample_index)
    keep = rng.random(len(wk.eigenvalues)) < wk.eigenvalues
    idx = _sample_projection(wk.eigenvectors[:, keep], rng)
    return wk.k_lo_int + 0.5 + np.sort(idx)


def sample_many(wk, n_samples, seed):
    """Independent configurations with per-sample keyed streams."""
    return [sample(wk, seed, i) for i in range(int(n_samples))]


@dataclass(frozen=True)
class EdgeLawReport:
    """Empirical law of the scaled maximum against exact and limiting CDFs."""

    k_max: np.ndarray
    ks_exact: float
    ks_limit: float
    n_samples: int
    seed: int


def empirical_edge_law(coeffs, n_samples, seed, exact_cdf_fn=None,
                       limit_cdf_fn=None, window=None):
    """Sample k_max repeatedly; report KS distances to reference laws.

    ``exact_cdf_fn(ell)`` should give P(k_max < ell); ``limit_cdf_fn(s)`` the
    limiting law of the rescaled maximum.  Either may be None to skip.
    Draws come from the edge window unless ``window`` is given.
    """
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ValueError(f"n_samples must be a positive integer, got {n_samples}")
    wk = windowed_kernel(coeffs, window=window, edge=True)
    kmax = np.empty(n_samples)
    for i in range(n_samples):
        conf = sample(wk, seed, i)
        kmax[i] = conf[-1] if len(conf) else wk.k_lo_int - 0.5
    ks_exact = float("nan")
    if exact_cdf_fn is not None:
        ks_exact = 0.0
        for ell in range(int(np.min(kmax) - 0.5), int(np.max(kmax) + 0.5) + 2):
            emp = float(np.mean(kmax < ell))
            ks_exact = max(ks_exact, abs(emp - exact_cdf_fn(ell)))
    ks_limit = float("nan")
    if limit_cdf_fn is not None:
        profile = edge_profile(coeffs)
        mx = profile.principal
        scale = (mx.d * coeffs.theta) ** (1.0 / (2 * mx.m + 1))
        s_vals = (kmax - profile.b * coeffs.theta) / scale
        ks_limit = 0.0
        for s in np.linspace(-6.0, 4.0, 201):
            emp = float(np.mean(s_vals < s))
            ks_limit = max(ks_limit, abs(emp - limit_cdf_fn(s)))
    return EdgeLawReport(k_max=kmax, ks_exact=ks_exact, ks_limit=ks_limit,
                         n_samples=n_samples, seed=int(seed))


@dataclass(frozen=True)
class ShapeDeviationReport:
    percentile_90: float
    leakage: float
    n_samples: int


def limit_shape_deviation(coeffs, n_samples, seed, percentile=90.0):
    """Empirical sup-distance between N(x theta)/theta and its limit.

    For each sampled configuration the count of occupied sites above every
    window lattice point is compared with theta * integral of the density;
    reports the requested percentile of the per-sample sup.
    """
    wk = windowed_kernel(coeffs)
    theta = coeffs.theta
    sites = wk.sites
    # limiting counts above each site: theta * int_{k/theta}^inf density
    dens = np.array([limit_density(coeffs, k / theta) for k in sites])
    # right-to-left trapezoid accumulation on the lattice (spacing 1/theta)
    steps = 0.5 * (dens[:-1] + dens[1:]) / theta
    tail = np.append(np.cumsum(steps[::-1])[::-1], 0.0)
    sups = np.empty(int(n_samples))
    for i in range(int(n_samples)):
        conf = sample(wk, seed, i)  # sorted: count sites above each k
        counts = len(conf) - np.searchsorted(conf, sites, side="right")
        sups[i] = float(np.max(np.abs(counts / theta - tail)))
    return ShapeDeviationReport(
        percentile_90=float(np.percentile(sups, percentile)),
        leakage=wk.leakage, n_samples=int(n_samples))
