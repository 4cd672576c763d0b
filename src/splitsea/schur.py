"""Brute-force ground truth at desk scale via Schur functions.

Schur functions are evaluated in Miwa times t = (t_1, t_2, ...) with finite
support: s_lambda[t] = det h_{lambda_i - i + j} where sum_n h_n z^n =
exp(sum_r t_r z^r).  The dual route goes through the conjugate partition and
the elementary functions e_n generated by exp(-sum_r (-1)^r t_r z^r); both
determinants are always computed and must agree, which guards the whole
enumeration machinery.

The measure weight of a partition is exp(-theta^2 sum_r r gamma_r^2) *
s_lambda[theta gamma]^2; exhaustive sums over partitions of bounded size give
independent oracles for the correlation kernel and for the Toeplitz edge
distribution.  A big-rational mode certifies the floating-point tolerances on
tiny partitions.

Site convention: a partition occupies the half-integer sites
{lambda_i - i + 1/2, i >= 1}; the empty partition is the domain wall with all
negative sites filled.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import OracleMismatch

MAX_PARTITION_LENGTH = 64


def complete_homogeneous(times, n_max):
    """h_0..h_{n_max} for the generating function exp(sum_r t_r z^r).

    Uses the recurrence n h_n = sum_{r<=min(R,n)} r t_r h_{n-r} obtained by
    differentiating the generating function; O(n R).  The arithmetic is that
    of ``times``, so Fraction times give exact rationals.
    """
    t = list(times)
    h = [1] + [0] * int(n_max)
    for n in range(1, int(n_max) + 1):
        acc = 0
        for r in range(1, min(len(t), n) + 1):
            acc += r * t[r - 1] * h[n - r]
        h[n] = acc / n
    return h


def elementary(times, n_max):
    """e_0..e_{n_max}: coefficients of exp(-sum_r (-1)^r t_r z^r)."""
    flipped = [(-1.0) ** (r + 1) * t for r, t in enumerate(times, start=1)]
    return complete_homogeneous(flipped, n_max)


def conjugate(parts):
    """Conjugate (transposed) partition."""
    parts = tuple(parts)
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p >= j) for j in range(1, parts[0] + 1))


def _jacobi_trudi_matrix(parts, coeffs_list):
    n = len(parts)
    mat = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            idx = parts[i] - (i + 1) + (j + 1)
            if 0 <= idx < len(coeffs_list):
                mat[i, j] = coeffs_list[idx]
    return mat


def schur(parts, times):
    """Schur function s_lambda[t] with a built-in dual-route consistency check.

    Raises OracleMismatch if the h-determinant and the e-determinant on the
    conjugate disagree beyond relative 1e-10.
    """
    parts = tuple(int(p) for p in parts if p > 0)
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError("partition parts must be weakly decreasing")
    if len(parts) > MAX_PARTITION_LENGTH:
        raise ValueError("partition too long for the desk-scale oracle")
    if not parts:
        return 1.0
    n_max = parts[0] + len(parts)
    h = complete_homogeneous(times, n_max)
    primal = float(np.linalg.det(_jacobi_trudi_matrix(parts, h)))

    conj = conjugate(parts)
    e = elementary(times, conj[0] + len(conj))
    dual = float(np.linalg.det(_jacobi_trudi_matrix(conj, e)))

    tol = 1e-10 * max(1.0, abs(primal), abs(dual))
    if abs(primal - dual) > tol:
        raise OracleMismatch(
            f"Jacobi-Trudi {primal!r} vs dual {dual!r} for lambda={parts}")
    return primal


def schur_exact(parts, times):
    """Exact-rational Schur function; ``times`` must be Fraction-convertible."""
    parts = tuple(int(p) for p in parts if p > 0)
    if not parts:
        return Fraction(1)
    h = complete_homogeneous([Fraction(v) for v in times], parts[0] + len(parts))

    def entry(i, j):
        idx = parts[i] - (i + 1) + (j + 1)
        return h[idx] if 0 <= idx < len(h) else Fraction(0)

    n = len(parts)
    # fraction-safe Gaussian elimination
    mat = [[entry(i, j) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, n):
            factor = mat[r][col] * inv
            if factor:
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[col])]
    return det


def measure_weight(parts, coeffs):
    """Probability of the partition under the squared-Schur measure."""
    coeffs.require_theta()
    s = schur(parts, coeffs.miwa_times())
    return math.exp(-coeffs.szego_constant()) * s * s


def partitions_upto(size_cap):
    """All partitions with |lambda| <= size_cap, by size then lexicographically."""
    yield ()
    for n in range(1, int(size_cap) + 1):
        yield from _partitions_of(n, n)


def _partitions_of(n, max_part):
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions_of(n - first, first):
            yield (first,) + rest


def total_weight(coeffs, size_cap):
    """Mass of all partitions up to the cap; 1 minus this bounds the tail."""
    return sum(measure_weight(lam, coeffs) for lam in partitions_upto(size_cap))


def brute_cdf_first_part(coeffs, ell, size_cap):
    """P(lambda_1 <= ell) truncated to |lambda| <= size_cap (monotone in cap)."""
    ell = int(ell)
    return sum(measure_weight(lam, coeffs)
               for lam in partitions_upto(size_cap)
               if not lam or lam[0] <= ell)


def site_occupied(parts, site):
    """Whether half-integer ``site`` is occupied by the configuration of lambda."""
    if abs(2 * site - round(2 * site)) > 1e-9 or round(2 * site) % 2 == 0:
        raise ValueError(f"site {site!r} is not a half-integer")
    parts = tuple(parts)
    if site <= -len(parts) - 0.5:
        return True  # below every displaced particle: domain-wall filled
    return any(site == (parts[i - 1] if i <= len(parts) else 0) - i + 0.5
               for i in range(1, len(parts) + 1))


def brute_correlation(coeffs, sites, size_cap):
    """P(all given half-integer sites occupied), truncated to |lambda| <= cap."""
    sites = tuple(sites)
    acc = 0.0
    for lam in partitions_upto(size_cap):
        if all(site_occupied(lam, s) for s in sites):
            acc += measure_weight(lam, coeffs)
    return acc


def count_sites_above(parts, level):
    """Number of occupied half-integer sites strictly greater than ``level``."""
    parts = tuple(parts)
    n = 0
    for i, lam_i in enumerate(parts, start=1):
        if lam_i - i + 0.5 > level:
            n += 1
    # untouched domain-wall sites -i + 1/2 for i > len(parts)
    i_top = math.ceil(0.5 - level) - 1  # largest i with -i + 1/2 > level
    n += max(0, i_top - len(parts))
    return n


def rescaled_profile(parts, theta, x):
    """Rotated Young-diagram profile in coordinates scaled by 1/theta.

    The profile is piecewise linear with corners on the integer lattice of
    theta*x, where it equals x + 2*N(x*theta)/theta with N the count of
    occupied sites above the level; linear interpolation between corners
    reproduces it exactly.  Satisfies profile >= |x| with equality far out.
    """
    theta = float(theta)
    if theta <= 0.0:
        raise ValueError("theta must be positive")
    t = float(x) * theta
    n0 = math.floor(t)
    v0 = n0 + 2.0 * count_sites_above(parts, n0)
    if t == n0:
        return v0 / theta
    v1 = (n0 + 1) + 2.0 * count_sites_above(parts, n0 + 1)
    return (v0 + (t - n0) * (v1 - v0)) / theta
