"""Determinantal sampling of ground-state configurations on a finite window.

The exact kernel is truncated to a window of half-integer sites wide enough
that the mass outside is negligible: sites left of the window are effectively
frozen (occupied), sites right of it empty, and the leakage
sum_{k<lo} (1 - K(k,k)) + sum_{k>hi} K(k,k) is computed exactly from the
coefficient band rather than assumed.  The window matrix comes from
``kernel.kernel_matrix``, which reads each entry from a tail sum of
J_u J_{u+d} along the band (no matrix product).

A determinantal process restricted to a subset A is the determinantal process
of K_A (Hough-Krishnapur-Peres-Virag 2006), so ``empirical_edge_law`` draws
k_max from an edge window A = [ell_min, top] alone.  Its leakage is
det(I - K_A) (no particle in A: k_max below ell_min, or every particle above
top) plus the right dropped trace.  A is the least window whose two parts
each stay under half the bound, searched over ``auto_window(edge=True)`` =
[b theta - 8 s, b theta + 10 s], s = (d theta)^(1/(2m+1)): the least top
whose right trace does, then the largest ell_min whose gap det(I - K_A)
does, read off the Fredholm gap table (``edge._gap_table``) cut at that top;
``ks_exact`` reads the same routine on the same band.

Sampling uses the spectral decomposition of the windowed kernel: eigenvalues
in [0, 1] select an eigenvector subset by independent Bernoulli draws, then
the induced projection process is sampled sequentially (site by site, with
the selected frame orthogonalised against each chosen site's coordinate;
each site is one uniform located in the cumulative site weights).
Randomness comes from counter-based Philox streams keyed by
(seed, sample index), so results are reproducible regardless of how samples
are distributed over workers.  Every draw fixes its uniforms up front, so
``sample_many`` advances a whole batch together: ordered by rank, the draws
still running at a step are a prefix, and each step is one cumulative sum,
one count, one product with the window's eigenvectors and one stacked
Gram-Schmidt correction (``_sample_batch``; ``sample`` is a batch of one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .airy import limiting_cdf
from .edge import _gap_table
from .errors import LeakageTooLarge
from .kernel import CoefficientBand, coefficient_band, kernel_matrix, tail_trace
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


def auto_window(coeffs, edge=False):
    """Window covering frozen-to-empty with bulk/edge scaled margins.

    With ``edge`` it starts instead at the sites that carry k_max, from
    ell_min = floor(b theta - 8 (d theta)^(1/(2m+1))) (clipped to the window):
    the range ``windowed_kernel`` cuts its automatic edge window from.
    """
    profile = edge_profile(coeffs)
    theta = coeffs.theta
    scale = profile.scale(theta)
    lo = math.floor(-profile.b_tilde * theta - 10.0 * math.sqrt(max(theta, 1.0)))
    hi = math.ceil(profile.b * theta + 10.0 * scale)
    if edge:
        lo = min(max(math.floor(profile.b * theta - 8.0 * scale), lo), hi)
    return lo, hi


def windowed_kernel(coeffs, window=None, leakage_tol=1e-6, edge=False):
    """Build the kernel matrix over a window of sites and eigendecompose it.

    ``window`` is an integer pair (k_lo_int, k_hi_int) addressing sites
    k_int + 1/2; None selects the automatic window.  Every window's leakage
    must stay under ``leakage_tol``: the trace dropped on both sides, or with
    ``edge`` (the window only has to hold k_max) det(I - K) (no particle in
    the window) plus the right trace.  With ``edge`` and no window,
    ``auto_window``'s range is only searched: the top is the least site in
    it whose right trace is under ``leakage_tol / 2``, and the bottom the
    largest row of the Fredholm gap table (``edge._gap_table``) up to that
    top under the same half.  A range whose top leaks more is kept whole.
    """
    band = coefficient_band(coeffs)  # refuses theta before any window arithmetic
    k_lo, k_hi = map(int, auto_window(coeffs, edge) if window is None else window)
    if edge and window is None:
        half = 0.5 * leakage_tol
        right = tail_trace(band, np.arange(k_lo + 1, k_hi + 2)) < half
        if right.any():  # cut k_hi + 1 is certified: the gap table's own top
            k_hi = k_lo + int(np.argmax(right))
            # rows k_lo..k_hi + 1; the last, the empty window's 1.0, is no bottom
            gaps = _gap_table(band, np.arange(k_lo, k_hi + 2), half)[:-1]
            under = np.flatnonzero(gaps < half)
            k_lo += int(under[-1]) if under.size else 0
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
    n_samples: int
    seed: int


def empirical_edge_law(coeffs, n_samples, seed):
    """Sample k_max from the edge window; report KS distances to its laws.

    ``ks_exact`` is against the Fredholm gap table on the window's own band
    (``edge._gap_table`` at ``fredholm_cdf_check``'s trace 1e-12),
    ``ks_limit`` against the sea's own limit law F_{2m+1}^n on s in [-6, 4].
    Maximizers of different orders or constants d raise ``UnsupportedEdge``
    before any draw.
    """
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ValueError(f"n_samples must be a positive integer, got {n_samples}")
    profile = edge_profile(coeffs)
    m = profile.law_order
    wk = windowed_kernel(coeffs, edge=True)
    kmax = np.array([conf[-1] if len(conf) else wk.k_lo_int - 0.5
                     for conf in sample_many(wk, n_samples, seed)])
    ordered = np.sort(kmax)  # searchsorted counts the draws below a point
    ells = np.arange(int(ordered[0] - 0.5), int(ordered[-1] + 0.5) + 2)
    ks_exact = float(np.max(np.abs(np.searchsorted(ordered, ells) / n_samples
                                   - _gap_table(wk.band, ells, 1e-12))))
    s_vals = profile.s_of(ordered, coeffs.theta)
    s_grid = np.linspace(-6.0, 4.0, 201)
    limit = limiting_cdf(m, profile.n_cuts, s_grid)
    ks_limit = float(np.max(np.abs(np.searchsorted(s_vals, s_grid) / n_samples
                                   - limit)))
    return EdgeLawReport(k_max=kmax, ks_exact=ks_exact, ks_limit=ks_limit,
                         n_samples=n_samples, seed=int(seed))
