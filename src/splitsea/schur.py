"""Brute-force ground truth at desk scale via Schur functions.

Schur functions are evaluated in Miwa times t = (t_1, t_2, ...) with finite
support: s_lambda[t] = det h_{lambda_i - i + j} where sum_n h_n z^n =
exp(sum_r t_r z^r).  The dual route goes through the conjugate partition and
the elementary functions e_n generated by exp(-sum_r (-1)^r t_r z^r); both
determinants are always computed and must agree, which guards the whole
enumeration machinery.

The measure weight of a partition is exp(-theta^2 sum_r r gamma_r^2) *
s_lambda[theta gamma]^2; exhaustive sums over partitions of bounded size give
an independent oracle for the Toeplitz edge distribution (``oracle cdf``).

Site convention: a partition occupies the half-integer sites
{lambda_i - i + 1/2, i >= 1}; the empty partition is the domain wall with all
negative sites filled.
"""

from __future__ import annotations

import math

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


def measure_weight(parts, coeffs):
    """Probability of the partition under the squared-Schur measure."""
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
    """P(lambda_1 <= ell) truncated to |lambda| <= size_cap (monotone in cap).

    The empty partition has lambda_1 = 0, so every ell < 0 gives 0.
    """
    ell = int(ell)
    return float(sum(measure_weight(lam, coeffs)
                     for lam in partitions_upto(size_cap)
                     if max(lam, default=0) <= ell))
