"""The matching unitary matrix model: densities, MCMC, partition functions.

The eigenvalue weight on U(ell) assigns each eigenvalue angle the potential
term 2 theta sum_r (-1)^(r-1) gamma_r cos(r alpha) - the log of the edge
law's Toeplitz symbol, ``HoppingCoefficients.log_symbol`` - plus the
log-Vandermonde repulsion 2 sum_{j<k} log |sin((alpha_j - alpha_k)/2)|.  Its
partition function equals exp(theta^2 sum_r r gamma_r^2) P(k_max < ell) of
the fermion model, which the edge module computes exactly.

In the supercritical regime ell/theta = x >= max D, the limiting eigenvalue
density is rho(alpha) = (1 - D(alpha - pi)/x) / (2 pi); it touches zero at
alpha = pi +- chi_b for each maximizer chi_b of D when x = max D, one zero
pair per cut of the sea at the edge.

``metropolis_chain`` moves one angle at a time.  A proposal costs O(ell)
and allocates nothing: the chain caches the pair log-sines
log|sin((alpha_j - alpha_k)/2)| as a symmetric matrix with a zero diagonal,
always those of the current angles, and an accepted move rewrites one row
and one column of it.  Its samples are one array, a row of sorted angles
per post-burn-in sweep, which ``angle_histogram`` takes as it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .edge import exact_cdf
from .errors import CoincidentAngles, SubcriticalPhase
from .potential import HoppingCoefficients, eval_dispersion, global_extrema

def eigen_density_supercritical(gammas, x, alpha):
    """Limiting eigenvalue density at coupling ratio x = ell/theta >= max D."""
    coeffs = HoppingCoefficients(gammas)
    b, _ = global_extrema(coeffs)
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"coupling ratio x must be finite; got {x!r}")
    if x < b - 1e-12:
        raise SubcriticalPhase(f"x={x} below the critical point {b}")
    alpha_arr = np.asarray(alpha, dtype=float)
    rho = (1.0 - eval_dispersion(coeffs, alpha_arr - math.pi) / x) / (2.0 * math.pi)
    rho = np.maximum(rho, 0.0)  # clips only roundoff dips at the zeros
    if np.isscalar(alpha) or alpha_arr.ndim == 0:
        return float(rho)
    return rho


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


def log_joint_density(gammas, theta, angles):
    """Unnormalised log density of the eigenvalue angles (exchangeable)."""
    angles = np.asarray(angles, dtype=float)
    pot = float(np.sum(HoppingCoefficients(gammas, theta=theta).log_symbol(angles)))
    if len(angles) > 1:
        diff = angles[:, None] - angles[None, :]
        iu = np.triu_indices(len(angles), k=1)
        sines = np.abs(np.sin(0.5 * diff[iu]))
        if np.any(sines == 0.0):
            raise CoincidentAngles("coinciding eigenvalue angles have weight zero")
        pot += 2.0 * float(np.sum(np.log(sines)))
    return pot


@dataclass(frozen=True)
class ChainResult:
    samples: np.ndarray  # (n_kept, ell): sorted angles, one row per sweep
    acceptance_rate: float
    proposal_sigma: float


class _PairLogSines:
    """Metropolis state: the angles and a cache of their pair log-sines.

    Keeps the half-angles h = alpha/2 and the symmetric ell x ell matrix
    ``pair[j, k] = log|sin(h_j - h_k)|`` with a zero diagonal, so that the
    change of the log weight when angle j moves costs O(ell): one buffer of
    new log-sines against row j.  ``accept`` rewrites row and column j, also
    O(ell); no cached row sums, which would cost O(ell^2) per accepted move.
    ``delta`` writes log(0) = -inf for a proposal on top of another angle,
    so callers silence numpy's divide warning around it.
    """

    def __init__(self, coeffs, angles):
        self.angles = angles
        self.half = 0.5 * angles
        # potential coefficients 2 theta (-1)^(r-1) gamma_r of cos(r alpha)
        self.coef = tuple(2.0 * coeffs.theta * (-1.0) ** (r - 1) * g
                          for r, g in enumerate(coeffs.gammas, start=1))
        with np.errstate(divide="ignore"):
            self.pair = np.log(np.abs(np.sin(
                self.half[:, None] - self.half[None, :])))
        np.fill_diagonal(self.pair, 0.0)
        self.rows = list(self.pair)     # row views, built once
        self.buf = np.empty_like(angles)

    def delta(self, j, new_angle):
        """Change of the log weight when angle j moves to ``new_angle``."""
        old = self.angles[j]
        delta = 0.0
        # scalar math.cos: numpy's per-call overhead on scalars would
        # dominate this once-per-proposal term
        for r, c in enumerate(self.coef, start=1):
            delta += c * (math.cos(r * new_angle) - math.cos(r * old))
        if len(self.rows) > 1:
            buf = self.buf
            np.subtract(0.5 * new_angle, self.half, out=buf)
            np.sin(buf, out=buf)
            np.abs(buf, out=buf)
            buf[j] = 1.0
            np.log(buf, out=buf)
            delta += 2.0 * (buf.sum() - self.rows[j].sum())
        return delta

    def accept(self, j, new_angle):
        """Move angle j; ``delta(j, new_angle)`` must be the last call."""
        self.angles[j] = new_angle
        self.half[j] = 0.5 * new_angle
        self.pair[j] = self.buf
        self.pair[:, j] = self.buf


def metropolis_chain(gammas, theta, ell, sweeps, seed):
    """Single-angle Metropolis sampling of the joint eigenvalue law.

    Proposals are Gaussian steps wrapped to [-pi, pi]; the step size is tuned
    during the first 20% of sweeps towards a 20-50% acceptance rate, then
    frozen.  The samples are the angles after every post-burn-in sweep, one
    sorted row each.

    A proposal costs O(ell) and allocates nothing: its pair term is read off
    a cached matrix of pair log-sines (``_PairLogSines``), which an accepted
    move updates in O(ell).  Samples, acceptance rate and step size are
    bit-for-bit those of a direct recomputation of every pair term.
    """
    coeffs = HoppingCoefficients(gammas, theta=theta)
    coeffs.require_theta()
    ell, sweeps = int(ell), int(sweeps)
    if ell < 1:
        raise ValueError(f"ell must be a positive integer; got {ell}")
    burn = max(1, int(0.2 * sweeps))
    if sweeps <= burn:
        raise ValueError(f"sweeps={sweeps} keeps no sample after the "
                         f"{burn}-sweep burn-in; use at least 2")
    rng = np.random.Generator(np.random.Philox(key=[int(seed), 0]))
    angles = rng.uniform(-math.pi, math.pi, size=ell)
    state = _PairLogSines(coeffs, angles)
    sigma = 0.5
    accepted = proposed = 0
    tune_acc = tune_prop = 0
    samples = np.empty((sweeps - burn, ell))
    with np.errstate(divide="ignore"):
        for sweep in range(sweeps):
            for j in range(ell):
                new_angle = angles[j] + sigma * rng.normal()
                new_angle = math.remainder(new_angle, 2.0 * math.pi)
                delta = state.delta(j, new_angle)
                take = delta >= 0.0 or rng.random() < math.exp(max(delta, -700.0))
                proposed += 1
                tune_prop += 1
                if take:
                    state.accept(j, new_angle)
                    accepted += 1
                    tune_acc += 1
            if sweep < burn:
                if tune_prop >= 50 * ell:
                    rate = tune_acc / tune_prop
                    if rate < 0.20:
                        sigma *= 0.7
                    elif rate > 0.50:
                        sigma *= 1.4
                    tune_acc = tune_prop = 0
                continue
            samples[sweep - burn] = angles
    samples.sort(axis=1)
    return ChainResult(samples=samples,
                       acceptance_rate=accepted / max(proposed, 1),
                       proposal_sigma=sigma)


def angle_histogram(samples, bins=64):
    """Normalised histogram of all eigenvalue angles (any array) over [-pi, pi]."""
    return np.histogram(np.ravel(samples), bins=bins,
                        range=(-math.pi, math.pi), density=True)


def partition_function_toeplitz(gammas, theta, ell):
    """Z_ell = exp(theta^2 sum r gamma_r^2) P(k_max < ell), via the edge CDF."""
    coeffs = HoppingCoefficients(gammas, theta=theta)
    return math.exp(coeffs.szego_constant()) * exact_cdf(coeffs, ell)


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
