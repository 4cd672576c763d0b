"""The matching unitary matrix model: eigenvalue densities and MCMC.

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

``metropolis_chain`` moves one angle at a time, in sweeps over all ell
angles.  Angle j does not move before its turn, so a sweep's proposals are
known once its normals are drawn, and the sweep is one numpy block: every
proposal is scored against the sweep-start angles from the cached pair
terms log sin^2((alpha_j - alpha_k)/2) of the current angles and their row
sums, each accepted move adds exact corrections, O(ell), to the later
proposals, and the next pair matrix is assembled from the blocks already
computed.  Its samples are one array, a row of sorted angles per
post-burn-in sweep, which ``angle_histogram`` takes as it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .edge import exact_cdf  # noqa: F401  (bench/test_bench.py asserts this binding)
from .errors import SubcriticalPhase
from .potential import HoppingCoefficients, eval_dispersion, global_extrema

def eigen_density_supercritical(gammas, x, alpha):
    """Limiting eigenvalue density at coupling ratio x = ell/theta >= max D.

    x = b = max D is the critical point and passes; an x below b by more
    than D's roundoff 4 eps max(b, b_tilde) raises SubcriticalPhase.  That
    slack scales with the weights, so 2^k gamma at 2^k x gives the same
    density.
    """
    coeffs = HoppingCoefficients(gammas)
    b, b_tilde = global_extrema(coeffs)
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"coupling ratio x must be finite; got x={x!r}")
    if x < b - 4.0 * np.finfo(float).eps * max(b, b_tilde):
        raise SubcriticalPhase(f"x={x} below the critical point {b}")
    alpha_arr = np.asarray(alpha, dtype=float)
    rho = (1.0 - eval_dispersion(coeffs, alpha_arr - math.pi) / x) / (2.0 * math.pi)
    rho = np.maximum(rho, 0.0)  # clips only roundoff dips at the zeros
    if np.isscalar(alpha) or alpha_arr.ndim == 0:
        return float(rho)
    return rho


@dataclass(frozen=True)
class ChainResult:
    samples: np.ndarray  # (n_kept, ell): sorted angles, one row per sweep
    acceptance_rate: float
    proposal_sigma: float


def _pair_terms(half_a, half_b, out=None):
    """Matrix log sin^2(half_a[i] - half_b[k]) of half-angles; log 0 is -inf.

    Entry (i, k) is the pair term log|e^{i a} - e^{i b}|^2 - log 4 of the
    log weight for angles a = 2 half_a[i] and b = 2 half_b[k].
    """
    out = np.subtract(half_a[:, None], half_b, out=out)
    np.sin(out, out=out)
    np.square(out, out=out)
    return np.log(out, out=out)


class _SweepState:
    """Metropolis state: the angles, their potential terms and pair terms.

    Keeps, always for the current angles, the one-angle log weights ``pot``,
    the symmetric ell x ell matrix ``pair[j, k] = log sin^2((alpha_j -
    alpha_k)/2)`` with a zero diagonal, and its row sums ``rows``.
    ``sweep`` scores a whole systematic scan as one numpy block.
    """

    def __init__(self, coeffs, angles):
        ell = len(angles)
        self.coeffs = coeffs
        self.angles = angles
        self.pot = coeffs.log_symbol(angles)
        # current half-angles, then the proposals' half-angles of a sweep
        self.halves = np.concatenate([0.5 * angles, 0.5 * angles])
        # a sweep's pair terms [P(n_i, o_k) | P(n_i, n_k)] of the proposals
        # n against the current angles o and each other, and the flat
        # indices of the block's two diagonals
        self.block = np.empty((ell, 2 * ell))
        self.p_no, self.p_nn = self.block[:, :ell], self.block[:, ell:]
        self.diagonals = np.concatenate([np.arange(ell) * (2 * ell + 1),
                                         np.arange(ell) * (2 * ell + 1) + ell])
        with np.errstate(divide="ignore"):
            self.pair = _pair_terms(self.halves[:ell], self.halves[:ell])
        np.fill_diagonal(self.pair, 0.0)
        self.rows = self.pair.sum(axis=1)

    def sweep(self, new, uniforms):
        """Offer angle j the move to ``new[j]``, for j = 0, 1, ... in turn.

        A move with log-weight change d is taken when d >= 0 or
        ``uniforms[j] < exp(d)``.  A move onto another angle has d = -inf and
        exp(d) = 0, so it is refused even for a uniform of exactly 0.0, and a
        large negative d underflows to 0 without raising.  The potential
        terms are one ``log_symbol`` call on the proposals.  Angle j has not
        moved before its turn, so every change against the sweep-start
        angles o comes from one block of pair terms
        P(a, b) = log sin^2((a - b)/2) of the proposals n, and each taken
        move m adds to every later change j its exact correction
        P(n_j, n_m) - P(n_j, o_m) - P(o_j, n_m) + P(o_j, o_m).  Returns the
        changes, each as the chain stood at its turn, and the moved sites in
        order.  Callers silence numpy's divide and invalid warnings.
        """
        ell = len(new)
        new_pot = self.coeffs.log_symbol(new)
        dpot = new_pot - self.pot
        delta = dpot
        if ell > 1:
            halves, p_no = self.halves, self.p_no
            np.multiply(new, 0.5, out=halves[ell:])
            _pair_terms(halves[ell:], halves, out=self.block)
            self.block.ravel()[self.diagonals] = 0.0
            delta = dpot + p_no.sum(axis=1)
            delta -= self.rows
            corr = self.p_nn - p_no
            corr -= p_no.T
            corr += self.pair
        # a taken move adds its whole correction row, cheaper than the tail;
        # the changes already decided are kept in ``scores``
        scores, moved, taken = [], [], [False] * ell
        for j, u in enumerate(uniforms.tolist()):
            d = delta.item(j)
            if d != d:  # -inf + inf: n_j is where a moved angle was
                d = self._direct_delta(j, new, moved, dpot.item(j))
            scores.append(d)
            if d >= 0.0 or u < math.exp(d):
                moved.append(j)
                taken[j] = True
                if j + 1 < ell:
                    delta += corr[j]
        if moved:
            col = np.array(taken)
            np.copyto(self.angles, new, where=col)
            np.copyto(self.pot, new_pot, where=col)
            if ell > 1:
                np.copyto(halves[:ell], halves[ell:], where=col)
                row = col[:, None]
                np.copyto(self.pair, p_no.T, where=col)
                np.copyto(self.pair, p_no, where=row)
                np.copyto(self.pair, self.p_nn, where=row & col)
                self.rows = self.pair.sum(axis=1)
        return scores, moved

    def _direct_delta(self, j, new, moved, dpot):
        """Log-weight change of moving angle j to ``new[j]``, pair terms afresh."""
        current = self.angles.copy()
        current[moved] = new[moved]
        others = 0.5 * np.delete(current, j)
        terms = _pair_terms(0.5 * np.array([new[j], current[j]]), others)
        return dpot + float(np.sum(terms[0]) - np.sum(terms[1]))


def metropolis_chain(gammas, theta, ell, sweeps, seed):
    """Single-angle Metropolis sampling of the joint eigenvalue law.

    Each sweep offers every angle, in order, a Gaussian step wrapped to
    [-pi, pi].  It draws its ell standard normals with one call, then its
    ell uniforms (one per accept test) with one call, on the Philox stream
    keyed by (seed mod 2^64, 0).  The step size is tuned during the first
    20% of sweeps towards a 20-50% acceptance rate, then frozen.  The samples
    are the angles after every post-burn-in sweep, one sorted row each.

    A sweep is one numpy block (``_SweepState.sweep``): all ell proposals
    are scored at once against the sweep-start angles from the cached pair
    terms and their row sums, and each accepted move corrects the later
    proposals exactly, in O(ell).  Samples, acceptance rate and step size
    are bit-for-bit those of a direct recomputation of every pair term.
    An overflowing amplitude 2 theta sum |gamma_r| is the model's ValueError.
    """
    coeffs = HoppingCoefficients(gammas, theta=theta)
    ell, sweeps = int(ell), int(sweeps)
    if ell < 1:
        raise ValueError(f"ell must be a positive integer; got {ell}")
    burn = max(1, int(0.2 * sweeps))
    if sweeps <= burn:
        raise ValueError(f"sweeps={sweeps} keeps no sample after the "
                         f"{burn}-sweep burn-in; use at least 2")
    key = np.array([int(seed) % 2 ** 64, 0], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    angles = rng.uniform(-math.pi, math.pi, size=ell)
    state = _SweepState(coeffs, angles)
    sigma = 0.5
    accepted = 0
    tune_acc = tune_prop = 0
    samples = np.empty((sweeps - burn, ell))
    with np.errstate(divide="ignore", invalid="ignore"):
        for sweep in range(sweeps):
            steps = rng.normal(size=ell)
            uniforms = rng.random(size=ell)
            new = np.array([math.remainder(a, 2.0 * math.pi)
                            for a in (angles + sigma * steps).tolist()])
            moves = len(state.sweep(new, uniforms)[1])
            accepted += moves
            tune_acc += moves
            tune_prop += ell
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
                       acceptance_rate=accepted / (sweeps * ell),
                       proposal_sigma=sigma)


def angle_histogram(samples, bins=64):
    """Normalised histogram of all eigenvalue angles (any array) over [-pi, pi]."""
    return np.histogram(np.ravel(samples), bins=bins,
                        range=(-math.pi, math.pi), density=True)
