"""Determinantal sampling of ground-state configurations on a finite window.

The exact kernel is truncated to a window of half-integer sites: sites left
of it are taken as frozen (occupied), sites right of it empty, and the
leakage sum_{k<lo} (1 - K(k,k)) + sum_{k>hi} K(k,k) is computed exactly from
the coefficient band rather than assumed; the automatic window is the least
whose two sides each leak under half the bound.  The window matrix comes
from ``kernel.kernel_matrix``, which reads each entry from a tail sum of
J_u J_{u+d} along the band (no matrix product).

A determinantal process restricted to a subset A is the determinantal process
of K_A (Hough-Krishnapur-Peres-Virag 2006), so ``empirical_edge_law`` draws
k_max from an edge window A = [ell_min, top] alone.  Its leakage is
det(I - K_A) (no particle in A: k_max below ell_min, or every particle above
top) plus the right dropped trace.  It keeps the full window's top, and
ell_min is the largest row under half the bound of the Fredholm gap table
(``edge._gap_table``) cut there; ``ks_exact`` reads the same routine on the
same band.

Each draw selects eigenvectors of the window kernel by a Bernoulli draw per
eigenvalue and samples their projection process site by site, on its own
Philox stream keyed by (seed, sample index); ``sample_many`` advances a whole
batch together, each draw as ``sample`` takes it alone (``_sample_batch``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .airy import limiting_cdf
from .edge import _gap_table
from .errors import LeakageTooLarge
from .kernel import (CoefficientBand, _least_cut, coefficient_band,
                     kernel_matrix, tail_trace)
from .kernel import kernel_eval  # noqa: F401  (bench/tracer.py patches it here)
from .potential import edge_profile

EIG_CLIP_TOL = 1e-9
FRAME_BUDGET = 2 ** 21  # bytes of Gram-Schmidt columns one batch chunk may hold


@dataclass(frozen=True)
class WindowedKernel:
    """Kernel restricted to half-integer sites k_lo..k_hi (given via k_int)."""

    k_lo_int: int
    k_hi_int: int
    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    leakage: float
    band: CoefficientBand | None = None  # the band it was cut from

    @property
    def sites(self):
        return np.arange(self.k_lo_int, self.k_hi_int + 1) + 0.5


def windowed_kernel(coeffs, window=None, leakage_tol=1e-6, edge=False):
    """Build the kernel matrix over a window of sites and eigendecompose it.

    ``window`` is an integer pair (k_lo_int, k_hi_int) addressing sites
    k_int + 1/2, whose leakage must stay under ``leakage_tol``: the trace
    dropped on both sides or, with ``edge`` (the window only has to hold
    k_max), det(I - K) (no particle in the window) plus the right trace.
    None selects the least window whose two parts each leak under
    ``leakage_tol / 2``, read off the band: the least top by its right
    trace, the largest bottom by its left trace or, with ``edge``, by the
    rows of the Fredholm gap table (``edge._gap_table``) cut at that top,
    from b theta - 8 (d theta)^(1/(2m+1)) up and then twice as deep while
    none is under (rows below ell = 0 are 0).  A half at or under the band's
    roundoff ``trace_floor`` raises LeakageTooLarge.
    """
    band = coefficient_band(coeffs)  # refuses theta before any window arithmetic
    half = 0.5 * leakage_tol
    if not half > band.trace_floor:
        raise LeakageTooLarge(f"leakage_tol={leakage_tol!r} is at or under twice "
                              f"the band's roundoff floor {band.trace_floor:.1e}")
    if window is not None:
        k_lo, k_hi = map(int, window)
    else:
        k_hi = _least_cut(band, half) - 1
        if edge:  # rows from the first guess up, then twice as deep
            guess = edge_profile(coeffs).lattice_of(-8.0, coeffs.theta)
            ells = np.arange(min(guess, k_hi), k_hi + 1)
            while not (under := ells[_gap_table(band, ells, half) < half]).size:
                ells = np.arange(2 * ells[0] - k_hi - 1, k_hi + 1)
            k_lo = int(under[-1])
        else:  # the left trace is the mirrored band's right trace
            k_lo = -_least_cut(replace(band, coeffs=band.coeffs[::-1]), half)
    mat = kernel_matrix(band, np.arange(k_lo, k_hi + 1) + 0.5)
    eigvals, eigvecs = np.linalg.eigh(mat)
    low, high = eigvals.min(initial=0.0), eigvals.max(initial=0.0)
    if low < -EIG_CLIP_TOL or high > 1.0 + EIG_CLIP_TOL:
        raise LeakageTooLarge(
            f"windowed kernel eigenvalues escape [0,1]: [{low:.2e}, {high:.2e}]")
    eigvals = np.clip(eigvals, 0.0, 1.0)
    if edge:
        leakage = float(np.prod(1.0 - eigvals)) + tail_trace(band, k_hi + 1)
    else:
        leakage = tail_trace(band, k_hi + 1, below=k_lo)
    if leakage >= leakage_tol:
        raise LeakageTooLarge(f"window ({k_lo}, {k_hi}) leaks {leakage:.2e}")
    return WindowedKernel(k_lo_int=k_lo, k_hi_int=k_hi, matrix=mat,
                          eigenvalues=eigvals, eigenvectors=eigvecs,
                          leakage=leakage, band=band)


def _rng_for(seed, index, rng):
    """``rng``, a Generator on a Philox, re-keyed in place to (seed, index).

    It then gives the stream of a new ``Philox(key=[seed, index])`` from
    counter 0 (a negative key word wraps modulo 2^64 in both), at a quarter
    of the cost of building one.
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64),
                  "key": np.array([int(seed) % 2 ** 64, int(index) % 2 ** 64],
                                  dtype=np.uint64)},
        "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0}
    return rng


def _selections(wk, seed, indices):
    """Selected eigenvectors and site uniforms of the draws (seed, index).

    Each keyed stream gives first one Bernoulli uniform per eigenvalue, then
    one uniform per selected eigenvector (the site of each step), so the
    whole draw is fixed before any projection runs.  A draw selects only
    eigenvectors of positive eigenvalue, so one fill per stream of that many
    uniforms past the Bernoulli ones covers every step.  Returns the
    (B, n_eig) selection mask and the (B, #{lambda > 0}) site uniforms, whose
    row j starts with the rank_j of draw j.
    """
    rng = np.random.Generator(np.random.Philox(0))  # re-keyed per draw
    lam = wk.eigenvalues
    n = len(lam)
    u = np.empty((len(indices), n + np.count_nonzero(lam > 0.0)))
    for row, index in enumerate(indices):
        _rng_for(seed, index, rng).random(out=u[row])
    return u[:, :n] < lam, u[:, n:]


def _project_chunk(vectors, keep, uniforms, ranks):
    """Chosen site indices of draws of descending ``ranks``, sorted per row.

    Draw j's kernel is E diag(keep[j]) E^T, with E the window's eigenvectors
    (``vectors``, one column each), so every product runs over the columns
    some draw of the chunk keeps.  Row j of ``uniforms`` starts with the
    ranks[j] site uniforms of draw j; the entries past them are not read.
    Row j of the result holds the ranks[j] sites of draw j, then padding
    indices past the last site.
    """
    used = keep.any(axis=0)
    vec = vectors[:, used]
    sel = keep[:, used].astype(float)
    size, rank = len(ranks), int(ranks[0])
    n_sites = len(vec)
    live = np.arange(rank) < ranks[:, None]
    c = np.zeros((size, rank, n_sites))  # Gram-Schmidt columns, as rows
    norms2 = sel @ (vec * vec).T
    chosen = np.full((size, rank), n_sites)
    for t, active in enumerate(np.count_nonzero(live, axis=0)):
        b = np.arange(active)  # the draws of rank > t lead the chunk
        left = norms2[:active]
        cdf = np.maximum(left, 0.0)
        cdf.cumsum(axis=1, out=cdf)
        cdf /= cdf[:, -1:]
        site = np.count_nonzero(cdf <= uniforms[:active, t, None], axis=1)
        chosen[:active, t] = site
        denom = np.sqrt(np.maximum(left[b, site], 1e-300))
        col = (sel[:active] * vec[site]) @ vec.T
        col -= (c[b, :t, site][:, None] @ c[:active, :t])[:, 0]
        col /= denom[:, None]
        c[:active, t] = col
        left -= col * col
        left[b, site] = 0.0  # chosen: only rounding residue is left
    chosen.sort(axis=1)
    return chosen


def _sample_batch(wk, seed, indices):
    """Sorted occupied sites of the draws (seed, index), one per index.

    Each draw selects eigenvectors by independent Bernoulli draws and then
    samples the induced projection process site by site: the site of step t
    is its uniform located in the cumulative squared row norms of the frame
    projected away from the sites already chosen, and the projection grows
    by one Gram-Schmidt column per step (O(N k) per step).  The draws run
    together in order of descending rank, so those still running at step t
    lead the batch, and chunks whose Gram-Schmidt columns fit in FRAME_BUDGET
    bytes step together.  A draw depends only on its keyed stream, not on
    the batch, its order or its chunk.
    """
    keep, uniforms = _selections(wk, seed, indices)
    ranks = np.count_nonzero(keep, axis=1)
    order = np.argsort(-ranks, kind="stable")
    out = [np.empty(0)] * len(order)
    start = 0
    while start < len(order) and ranks[order[start]] > 0:
        per_draw = 8 * len(wk.eigenvectors) * int(ranks[order[start]])
        chunk = order[start:start + max(1, FRAME_BUDGET // per_draw)]
        sites = wk.k_lo_int + 0.5 + _project_chunk(
            wk.eigenvectors, keep[chunk], uniforms[chunk],
            ranks[chunk])
        for row, d in zip(sites, chunk):
            out[d] = row[:ranks[d]]
        start += len(chunk)
    return out


def sample(wk, rng_seed, sample_index=0):
    """One configuration: sorted array of occupied half-integer sites."""
    return _sample_batch(wk, rng_seed, [sample_index])[0]


def sample_many(wk, n_samples, seed):
    """Independent configurations (seed, 0..n-1), drawn as one batch."""
    return _sample_batch(wk, seed, range(int(n_samples)))


@dataclass(frozen=True)
class EdgeLawReport:
    """Empirical law of the scaled maximum against exact and limiting CDFs."""

    k_max: np.ndarray
    ks_exact: float
    ks_limit: float


def empirical_edge_law(coeffs, n_samples, seed):
    """Sample k_max from the edge window; report KS distances to its laws.

    ``ks_exact`` is against the Fredholm gap table on the window's own band
    (``edge._gap_table`` at ``fredholm_cdf_check``'s trace 1e-12),
    ``ks_limit`` against the sea's own limit law F_{2m+1}^n on s in [-6, 4].
    Maximizers of different orders or constants d raise ``UnsupportedEdge``,
    and a limit law the library lacks ``NoConvergence``, before any draw.
    """
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ValueError(f"n_samples must be a positive integer, got {n_samples}")
    profile = edge_profile(coeffs)
    s_grid = np.linspace(-6.0, 4.0, 201)
    limit = limiting_cdf(profile.law_order, profile.n_cuts, s_grid)
    wk = windowed_kernel(coeffs, edge=True)
    kmax = np.array([conf[-1] if len(conf) else wk.k_lo_int - 0.5
                     for conf in sample_many(wk, n_samples, seed)])
    ordered = np.sort(kmax)  # searchsorted counts the draws below a point
    ells = np.arange(int(ordered[0] - 0.5), int(ordered[-1] + 0.5) + 2)
    ks_exact = float(np.max(np.abs(np.searchsorted(ordered, ells) / n_samples
                                   - _gap_table(wk.band, ells, 1e-12))))
    ks_limit = float(np.max(np.abs(np.searchsorted(
        profile.s_of(ordered, coeffs.theta), s_grid) / n_samples - limit)))
    return EdgeLawReport(k_max=kmax, ks_exact=ks_exact, ks_limit=ks_limit)
