"""Unitary matrix model: densities, partition identities, Metropolis chain."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import splitsea.unitary as unitary_mod
from splitsea.errors import SplitSeaError, SubcriticalPhase
from splitsea.potential import HoppingCoefficients, edge_profile, global_extrema
from splitsea.unitary import (ChainResult, angle_histogram,
                              eigen_density_supercritical, metropolis_chain)
from conftest import (bessel_i, density_support_cuts,
                      partition_function_quadrature,
                      partition_function_toeplitz)

FOUR_MODELS = [(1.0, 1.0 / 3.0), (1.0, 0.1), (1.0, -0.125), (1.0, -1.0 / 3.0)]
TWO_CUT = (1.0, -1.0 / 3.0)


class CoincidentAngles(SplitSeaError):
    """Joint eigenvalue density evaluated at coinciding angles (weight zero)."""


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


def _reference_site_delta(gammas, theta, angles, j, new_angle):
    """Log-weight change of one move, every pair term recomputed."""
    old = angles[j]
    delta = 0.0
    for r, g in enumerate(gammas, start=1):
        delta += -2.0 * theta * (-1.0) ** r * g * (math.cos(r * new_angle)
                                                   - math.cos(r * old))
    others = np.delete(angles, j)
    if len(others):
        new_s = np.abs(np.sin(0.5 * (new_angle - others)))
        old_s = np.abs(np.sin(0.5 * (old - others)))
        if np.any(new_s == 0.0):
            return -np.inf
        delta += 2.0 * float(np.sum(np.log(new_s) - np.log(old_s)))
    return delta


def _reference_chain(gammas, theta, ell, sweeps, seed):
    """The chain with a from-scratch pair term per proposal (O(ell) copies).

    Each sweep draws its ell normals, then its ell uniforms, in one call each.
    """
    gam = HoppingCoefficients(gammas).gammas
    key = np.array([int(seed) % 2 ** 64, 0], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    angles = rng.uniform(-math.pi, math.pi, size=ell)
    sigma = 0.5
    burn = max(1, int(0.2 * sweeps))
    accepted = proposed = 0
    tune_acc = tune_prop = 0
    samples = []
    for sweep in range(sweeps):
        steps = rng.normal(size=ell)
        uniforms = rng.random(size=ell)
        for j in range(ell):
            new_angle = angles[j] + sigma * steps[j]
            new_angle = math.remainder(new_angle, 2.0 * math.pi)
            delta = _reference_site_delta(gam, theta, angles, j, new_angle)
            take = delta >= 0.0 or uniforms[j] < math.exp(delta)
            proposed += 1
            tune_prop += 1
            if take:
                angles[j] = new_angle
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
        samples.append(np.sort(angles))
    return ChainResult(samples=np.array(samples), acceptance_rate=accepted / proposed,
                       proposal_sigma=sigma)


def _fresh_pair_terms(angles):
    """Fresh log sin^2((a_j - a_k)/2) matrix with a zero diagonal."""
    diff = np.subtract.outer(angles, angles)
    np.fill_diagonal(diff, math.pi)
    return 2.0 * np.log(np.abs(np.sin(0.5 * diff)))


def _arnoldi_density(gammas, theta, ell, n=2048):
    """Exact one-point density rho_ell of the ell-angle law on an n-point grid.

    The law is a projection DPP on the circle whose range is spanned by
    sqrt(w) z^k, k < ell.  Arnoldi on Z = diag(e^{i phi}) from sqrt(w), with
    two Gram-Schmidt passes, gives its orthonormal frame Q on the grid, and
    rho_ell(phi_i) = sum_j |Q_ij|^2 n / (2 pi ell).
    """
    phi = -math.pi + 2.0 * math.pi * np.arange(n) / n
    log_w = sum(2.0 * theta * (-1.0) ** (r - 1) * g * np.cos(r * phi)
                for r, g in enumerate(gammas, start=1))
    z = np.exp(1j * phi)
    frame = np.empty((n, ell), dtype=complex)
    v = np.sqrt(np.exp(log_w - np.max(log_w))).astype(complex)
    for k in range(ell):
        if k:
            v = z * frame[:, k - 1]
            for _ in range(2):
                v -= frame[:, :k] @ (frame[:, :k].conj().T @ v)
        frame[:, k] = v / np.linalg.norm(v)
    return phi, np.sum(np.abs(frame) ** 2, axis=1) * n / (2.0 * math.pi * ell)


def test_density_normalisation_and_uniform_limit():
    gam = (1.0, -1.0 / 3.0)
    alphas = np.linspace(-math.pi, math.pi, 20001)
    b, _ = global_extrema(HoppingCoefficients(gam))
    rho = eigen_density_supercritical(gam, b, alphas)
    assert float(np.trapezoid(rho, alphas)) == pytest.approx(1.0, abs=1e-8)
    rho_far = eigen_density_supercritical(gam, 1e9, alphas)
    assert np.max(np.abs(rho_far - 1.0 / (2.0 * math.pi))) < 1e-8


@pytest.mark.parametrize("gam", FOUR_MODELS)
def test_zero_count_matches_cut_count(gam):
    coeffs = HoppingCoefficients(gam)
    b, _ = global_extrema(coeffs)
    cuts = density_support_cuts(gam, b)
    assert len(cuts) == edge_profile(coeffs).n_cuts


def test_density_zero_location_and_local_power():
    gam = (1.0, -1.0 / 3.0)
    coeffs = HoppingCoefficients(gam)
    profile = edge_profile(coeffs)
    mx = profile.principal
    # zeros at pi +- chi_b
    for sgn in (+1.0, -1.0):
        alpha0 = math.pi + sgn * mx.chi_b
        alpha0 = math.remainder(alpha0, 2.0 * math.pi)
        assert eigen_density_supercritical(gam, profile.b, alpha0) == \
            pytest.approx(0.0, abs=1e-12)
    # local quadratic vanishing rho ~ (d/b) (alpha - pi - chi_b)^{2m} / 2 pi
    alpha0 = math.remainder(math.pi + mx.chi_b, 2.0 * math.pi)
    eps = np.array([-0.02, -0.01, 0.01, 0.02])
    rho = eigen_density_supercritical(gam, profile.b, alpha0 + eps)
    pred = (mx.d / profile.b) * eps ** (2 * mx.m) / (2.0 * math.pi)
    assert np.max(np.abs(rho / pred - 1.0)) < 0.1


def test_subcritical_rejected():
    with pytest.raises(SubcriticalPhase):
        eigen_density_supercritical((1.0, -1.0 / 3.0), 0.5, 0.0)


def test_critical_density_is_exact_under_power_of_two_scaling():
    # the subcritical slack is D's roundoff 4 eps max(b, b_tilde), not an
    # absolute 1e-12, so 2^k gamma at 2^k b passes with the same density and
    # x = b / 2 fails at every scale
    gam = (1.0, -1.0 / 3.0)
    alphas = np.linspace(-math.pi, math.pi, 101)
    b, _ = global_extrema(HoppingCoefficients(gam))
    want = eigen_density_supercritical(gam, b, alphas)
    for k in (-999, -60, -20, 20, 60):
        s = 2.0 ** k
        scaled = tuple(s * g for g in gam)
        assert np.array_equal(eigen_density_supercritical(scaled, s * b, alphas), want)
        with pytest.raises(SubcriticalPhase):
            eigen_density_supercritical(scaled, s * b / 2.0, alphas)


def test_log_joint_density_properties(rng):
    gam = (1.0, -1.0 / 3.0)
    a = np.array([0.3, -1.2, 2.0])
    assert log_joint_density(gam, 0.7, a) == pytest.approx(
        log_joint_density(gam, 0.7, a[[2, 0, 1]]), abs=1e-12)
    # theta -> 0, ell = 2: pure log-Vandermonde
    a2 = np.array([0.4, -0.9])
    want = 2.0 * math.log(abs(math.sin(0.5 * (a2[0] - a2[1]))))
    assert log_joint_density(gam, 0.0, a2) == pytest.approx(want, abs=1e-12)
    with pytest.raises(CoincidentAngles):
        log_joint_density(gam, 1.0, np.array([0.2, 0.2]))


def test_log_joint_density_refuses_a_non_finite_coupling():
    # it returned nan: the coupling was checked only where a caller asked
    with pytest.raises(ValueError, match="theta must be a nonnegative real"):
        log_joint_density((1.0, -1.0 / 3.0), math.nan, [0.1, 0.5, 2.0])


def test_potential_term_equals_v_form():
    # -(ell/x) [V(-e^{ia}) + V(-e^{-ia})] with V(z) = sum gamma_r z^r equals
    # the implemented cosine form at ell = 1
    gam = (1.0, -1.0 / 3.0, 0.2)
    theta = 0.83
    for alpha in (-2.1, 0.0, 0.4, 3.0):
        z = -np.exp(1j * alpha)
        v = sum(g * z ** r for r, g in enumerate(gam, start=1))
        vbar = sum(g * np.conj(z) ** r for r, g in enumerate(gam, start=1))
        want = -theta * float(np.real(v + vbar))
        got = log_joint_density(gam, theta, np.array([alpha]))
        assert got == pytest.approx(want, abs=1e-12)


def test_partition_function_identities(rng):
    assert partition_function_toeplitz((1.0, 0.3), 0.0, 4) == pytest.approx(1.0)
    for th in (0.3, 0.8):
        assert partition_function_toeplitz((1.0,), th, 1) == pytest.approx(
            bessel_i(0, 2.0 * th), abs=1e-10)
    for _ in range(10):
        g = (1.0, float(rng.uniform(-0.5, 0.5)))
        th = float(rng.uniform(0.05, 1.0))
        for ell in (1, 2):
            assert partition_function_toeplitz(g, th, ell) == pytest.approx(
                partition_function_quadrature(g, th, ell), abs=1e-8)


def test_metropolis_detailed_balance_three_state():
    # the Metropolis accept rule on a 3-state toy target with symmetric
    # proposals satisfies pi_i P_ij = pi_j P_ji exactly
    pi = np.array([0.5, 0.3, 0.2])
    q = np.full((3, 3), 1.0 / 3.0)
    p = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            if i != j:
                p[i, j] = q[i, j] * min(1.0, pi[j] / pi[i])
        p[i, i] = 1.0 - np.sum(p[i]) + p[i, i]
    flow = pi[:, None] * p
    assert np.allclose(flow, flow.T, atol=1e-15)
    assert np.allclose(pi @ p, pi, atol=1e-15)


def test_metropolis_single_angle_law():
    res = metropolis_chain((1.0,), 0.8, 1, 100000, seed=11)
    assert 0.2 <= res.acceptance_rate <= 0.55
    angles = np.sort(res.samples, axis=None)
    fine = np.linspace(-math.pi, math.pi, 32001)
    dens = np.exp(2.0 * 0.8 * np.cos(fine))
    dens /= np.trapezoid(dens, fine)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(fine))])
    cdf /= cdf[-1]
    target = np.interp(angles, fine, cdf)
    n = len(angles)
    ks = max(np.max(np.abs(np.arange(1, n + 1) / n - target)),
             np.max(np.abs(np.arange(n) / n - target)))
    assert ks < 0.02


def test_metropolis_pair_moment():
    # ell = 2 moment E cos(a1 - a2) against direct 2D quadrature
    gam = (1.0,)
    theta = 0.6
    res = metropolis_chain(gam, theta, 2, 60000, seed=4)
    vals = np.array([math.cos(s[0] - s[1]) for s in res.samples])
    emp = float(np.mean(vals))
    nodes = 400
    a = 2.0 * math.pi * np.arange(nodes) / nodes - math.pi
    w = np.exp(2.0 * theta * np.cos(a))
    pair = 2.0 - 2.0 * np.cos(a[:, None] - a[None, :])
    weight = np.outer(w, w) * pair
    want = float(np.sum(weight * np.cos(a[:, None] - a[None, :])) / np.sum(weight))
    se = float(np.std(vals) / math.sqrt(len(vals) / 20.0))  # crude autocorr margin
    assert abs(emp - want) <= max(3.0 * se, 0.01)


def test_metropolis_two_cut_dips():
    theta = 24.0 / 2.2  # ell/x = 2.2, just above the critical coupling
    res = metropolis_chain((1.0, -1.0 / 3.0), theta, 24, 3000, seed=5)
    hist, edges = angle_histogram(res.samples, bins=48)
    centers = 0.5 * (edges[1:] + edges[:-1])
    chi_b = math.acos(3.0 / 8.0)
    dip = hist[np.argmin(np.abs(centers - (math.pi - chi_b)))]
    mid = hist[np.argmin(np.abs(centers))]
    assert dip < 0.5 * mid


@pytest.mark.parametrize("ell,theta,seed,sweeps", [
    (1, 0.8, 11, 1000), (2, 3.0, 4, 1000), (24, 24.0 / 2.2, 5, 300),
    (48, 48.0 / 2.2, 6, 300)])
def test_metropolis_chain_matches_reference(ell, theta, seed, sweeps):
    # the one-block sweep changes no accept decision and no RNG draw
    got = metropolis_chain(TWO_CUT, theta, ell, sweeps, seed)
    want = _reference_chain(TWO_CUT, theta, ell, sweeps, seed)
    assert np.array_equal(got.samples, want.samples)  # shapes included
    assert got.acceptance_rate == want.acceptance_rate
    assert got.proposal_sigma == want.proposal_sigma


@settings(max_examples=30, deadline=None)
@given(ell=st.sampled_from([1, 2, 3, 24]), g2=st.floats(-0.45, 0.45),
       theta=st.floats(0.0, 12.0), seed=st.integers(0, 2 ** 32 - 1))
def test_pair_cache_tracks_moves(ell, g2, theta, seed):
    # every proposal's change, also after moves taken earlier in its sweep,
    # is the difference of the log weight at the angles of its turn
    gam = (1.0, g2)
    rng = np.random.default_rng(seed)
    angles = rng.uniform(-math.pi, math.pi, size=ell)
    state = unitary_mod._SweepState(HoppingCoefficients(gam, theta=theta),
                                    angles.copy())
    after_a_move = 0
    for _ in range(-(-40 // ell) + 1):
        new = rng.uniform(-math.pi, math.pi, size=ell)
        # u = 0 takes every finite change, u = 1 only those >= 0
        uniforms = (rng.random(ell) < 0.5).astype(float)
        with np.errstate(divide="ignore", invalid="ignore"):
            deltas, moved = state.sweep(new, uniforms)
        assert moved == [j for j in range(ell)
                         if uniforms[j] == 0.0 or deltas[j] >= 0.0]
        for j in range(ell):
            after = angles.copy()
            after[j] = new[j]
            want = (log_joint_density(gam, theta, after)
                    - log_joint_density(gam, theta, angles))
            assert abs(deltas[j] - want) <= 1e-10 * (1.0 + abs(want))
            after_a_move += any(m < j for m in moved)
            if j in moved:      # refused proposals must leave no trace
                angles = after
    assert after_a_move > 0 or ell == 1
    assert np.array_equal(state.angles, angles)
    fresh = _fresh_pair_terms(angles)
    assert np.max(np.abs(state.pair - fresh)) <= 1e-12
    assert np.max(np.abs(state.rows - fresh.sum(axis=1))) <= 1e-12 * ell


def _scripted_generator(monkeypatch, angles, steps, uniforms):
    """Replace the chain's Generator by one that replays the given draws.

    ``steps`` holds one list of normals per sweep; every sweep gets the same
    ``uniforms``.  Returns the log of draw calls.
    """
    draws, steps = [], iter(steps)

    class Scripted:
        def __init__(self, bit_generator):
            pass

        def uniform(self, lo, hi, size):
            draws.append("uniform")
            return np.array(angles[:size])

        def normal(self, size):
            draws.append("normal")
            return np.array(next(steps)[:size])

        def random(self, size):
            draws.append("random")
            return np.array(uniforms[:size])

    monkeypatch.setattr(np.random, "Generator", Scripted)
    return draws


def test_coincident_proposal_is_rejected_without_warning(monkeypatch):
    # angles (0, 1); the first step of exactly 0.5 * 2.0 = 1 lands angle 0 on
    # angle 1, and u = 1e-300 would take any finite change
    draws = _scripted_generator(monkeypatch, [0.0, 1.0],
                                [[2.0, 0.0], [0.0, 0.0]], [1e-300, 1e-300])
    sweep, scores = unitary_mod._SweepState.sweep, []

    def spy(self, new, uniforms):
        out = sweep(self, new, uniforms)
        scores.append(out[0])
        return out

    monkeypatch.setattr(unitary_mod._SweepState, "sweep", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = metropolis_chain(TWO_CUT, 1.0, 2, 2, seed=0)
    assert scores[0][0] == -math.inf
    assert draws == ["uniform"] + ["normal", "random"] * 2
    assert res.samples.tolist() == [[0.0, 1.0]]  # angle 0 never moved


def test_zero_uniform_refuses_a_move_onto_another_angle():
    # exp(-inf) = 0, so not even u = 0.0 takes d = -inf; the rule once read
    # u < exp(max(d, -700)) and moved angle 0 onto angle 1
    state = unitary_mod._SweepState(HoppingCoefficients(TWO_CUT),
                                    np.array([0.0, 1.0]))
    with np.errstate(divide="ignore", invalid="ignore"):
        scores, moved = state.sweep(np.array([1.0, 1.0]), np.array([0.0, 0.9]))
    assert scores == [-math.inf, 0.0]
    assert moved == [1]
    assert state.angles.tolist() == [0.0, 1.0]
    assert np.max(np.abs(state.pair - _fresh_pair_terms(state.angles))) <= 1e-12


def test_proposal_onto_a_vacated_angle_is_scored_directly(monkeypatch):
    # angles (0, 1): angle 0 moves to 2, then angle 1 steps onto 0, where
    # angle 0 was; the block gives its change as -inf + inf, the direct sum
    # a finite value, so it is taken at u = 1e-300 and not refused as NaN
    _scripted_generator(monkeypatch, [0.0, 1.0], [[4.0, -2.0], [0.0, 0.0]],
                        [1e-300, 1e-300])
    direct, calls = unitary_mod._SweepState._direct_delta, []

    def spy(self, j, new, moved, dpot):
        calls.append((j, list(moved), direct(self, j, new, moved, dpot)))
        return calls[-1][-1]

    monkeypatch.setattr(unitary_mod._SweepState, "_direct_delta", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = metropolis_chain(TWO_CUT, 1.0, 2, 2, seed=0)
    want = (log_joint_density(TWO_CUT, 1.0, [2.0, 0.0])
            - log_joint_density(TWO_CUT, 1.0, [2.0, 1.0]))
    assert [c[:2] for c in calls] == [(1, [0])]
    assert calls[0][2] == pytest.approx(want, rel=1e-12)
    assert res.samples.tolist() == [[0.0, 2.0]]


def test_arnoldi_density_small_ell_against_quadrature():
    # ell = 1: rho = w / int w; ell = 2: the pair law's marginal by direct
    # periodic quadrature, w(a) int w(b) |e^{ia} - e^{ib}|^2 db, normalised
    gam, theta, n = TWO_CUT, 0.9, 256
    phi, rho1 = _arnoldi_density(gam, theta, 1, n)
    w = np.exp(2.0 * theta * (np.cos(phi) - gam[1] * np.cos(2.0 * phi)))
    h = 2.0 * math.pi / n
    assert np.max(np.abs(rho1 - w / (np.sum(w) * h))) < 1e-12
    _, rho2 = _arnoldi_density(gam, theta, 2, n)
    marginal = w * ((2.0 - 2.0 * np.cos(np.subtract.outer(phi, phi))) @ w)
    assert np.max(np.abs(rho2 - marginal / (np.sum(marginal) * h))) < 1e-12


def test_metropolis_one_point_law_matches_arnoldi_oracle():
    # criterion 10's chain against the exact finite-ell one-point density,
    # bin by bin, with batch-means standard errors at a Bonferroni level
    ell, theta, n_bins, n_batches = 24, 24.0 / 2.2, 48, 32
    family_level = 1e-3  # chance that a correct chain fails any of the bins
    phi, rho = _arnoldi_density(TWO_CUT, theta, ell)
    h = 2.0 * math.pi / len(phi)
    assert float(np.sum(rho) * h) == pytest.approx(1.0, abs=1e-12)
    # bin means of rho from its periodic trapezoid CDF
    grid = np.append(phi, math.pi)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (rho + np.roll(rho, -1)) * h)])
    edges = np.linspace(-math.pi, math.pi, n_bins + 1)
    exact = np.diff(np.interp(edges, grid, cdf)) / np.diff(edges)

    res = metropolis_chain(TWO_CUT, theta, ell, 12000, seed=5)
    batches = np.array_split(np.arange(len(res.samples)), n_batches)
    assert len({len(b) for b in batches}) == 1
    hists = np.array([angle_histogram(res.samples[b], bins=n_bins)[0]
                      for b in batches])
    mean = hists.mean(axis=0)
    se = hists.std(axis=0, ddof=1) / math.sqrt(n_batches)
    z_max = stats.t.ppf(1.0 - family_level / (2.0 * n_bins), n_batches - 1)
    z = np.abs(mean - exact) / se
    assert np.all(z < z_max), (float(np.max(z)), float(z_max))
