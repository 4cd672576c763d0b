"""Brute-force Schur machinery: series, determinants, weights, profiles."""

import math
from fractions import Fraction

import numpy as np
import pytest

from splitsea.potential import HoppingCoefficients
from splitsea.schur import (brute_cdf_first_part, brute_correlation,
                            complete_homogeneous, conjugate, elementary,
                            measure_weight, partitions_upto, rescaled_profile,
                            schur, schur_exact, site_occupied, total_weight)


def test_complete_homogeneous_series():
    assert complete_homogeneous((1.0,), 3) == pytest.approx([1, 1, 0.5, 1 / 6])
    assert complete_homogeneous((0.0, 1.0), 4) == pytest.approx([1, 0, 1, 0, 0.5])
    assert complete_homogeneous((2.0, -1.0), 2) == pytest.approx([1, 2, 1])


def test_complete_homogeneous_is_exact_on_fractions():
    h = complete_homogeneous((Fraction(1, 3), Fraction(-1, 2)), 3)
    assert h == [1, Fraction(1, 3), Fraction(1, 18) - Fraction(1, 2),
                 Fraction(1, 162) - Fraction(1, 6)]
    assert all(type(v) is Fraction for v in h[1:])


def test_elementary_series():
    assert elementary((1.0,), 2) == pytest.approx([1, 1, 0.5])
    assert elementary((0.0, 1.0), 2) == pytest.approx([1, 0, -1])
    assert elementary((1.0, 1.0), 1) == pytest.approx([1, 1])


def test_schur_values():
    assert schur((1,), (0.73,)) == pytest.approx(0.73)
    assert schur((2, 1), (1.0,)) == pytest.approx(1.0 / 3.0)
    assert schur((), (1.0, 2.0)) == 1.0


def test_conjugate():
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate(conjugate((5, 3, 3, 1))) == (5, 3, 3, 1)
    assert conjugate(()) == ()


def test_jacobi_trudi_dual_consistency(rng):
    # schur() raises OracleMismatch internally if the two routes disagree
    partitions = [lam for lam in partitions_upto(14)]
    for _ in range(50):
        times = tuple(rng.uniform(-1.0, 1.0, size=rng.integers(1, 4)))
        for lam in partitions[:: max(1, len(partitions) // 120)]:
            schur(lam, times)


def test_exact_rational_certifies_floats():
    times = (Fraction(1, 2), Fraction(-1, 3))
    fl = tuple(float(t) for t in times)
    for lam in partitions_upto(10):
        exact = schur_exact(lam, times)
        assert schur(lam, fl) == pytest.approx(float(exact), abs=1e-12)


def test_measure_weight():
    c0 = HoppingCoefficients((1.0,), theta=0.0)
    assert measure_weight((), c0) == 1.0
    assert measure_weight((1,), c0) == 0.0
    c = HoppingCoefficients((1.0,), theta=0.4)
    assert measure_weight((1,), c) == pytest.approx(math.exp(-0.16) * 0.16)


def test_weights_sum_to_one():
    c = HoppingCoefficients((1.0,), theta=0.5)
    assert total_weight(c, 12) == pytest.approx(1.0, abs=1e-6)


def test_cauchy_identity_monotone():
    c = HoppingCoefficients((1.0, -1.0 / 3.0), theta=0.7)
    t = c.miwa_times()
    target = math.exp(sum(r * v * v for r, v in enumerate(t, start=1)))
    partial = 0.0
    seen = [0.0]
    by_size = {}
    for lam in partitions_upto(24):
        by_size.setdefault(sum(lam), []).append(lam)
    for size in sorted(by_size):
        partial += sum(schur(lam, t) ** 2 for lam in by_size[size])
        seen.append(partial)
    assert all(a <= b + 1e-15 for a, b in zip(seen, seen[1:]))
    assert target - partial == pytest.approx(0.0, abs=1e-6)
    assert partial <= target + 1e-12


def test_partition_enumeration_counts():
    counts = {}
    for lam in partitions_upto(9):
        counts[sum(lam)] = counts.get(sum(lam), 0) + 1
    assert [counts[n] for n in range(10)] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]


def test_brute_cdf():
    c0 = HoppingCoefficients((1.0,), theta=0.0)
    assert brute_cdf_first_part(c0, 1, 6) == 1.0
    # single-column identity: P(lambda_1 <= 1) = e^{-t^2} sum t^{2k}/(k!)^2
    theta = 0.3
    c = HoppingCoefficients((1.0,), theta=theta)
    expected = math.exp(-theta ** 2) * sum(
        theta ** (2 * k) / math.factorial(k) ** 2 for k in range(21))
    assert brute_cdf_first_part(c, 1, 20) == pytest.approx(expected, abs=1e-12)


def test_site_occupancy_and_correlation():
    assert site_occupied((), -0.5) and not site_occupied((), 0.5)
    assert site_occupied((1,), 0.5) and not site_occupied((1,), -0.5)
    c0 = HoppingCoefficients((1.0,), theta=0.0)
    assert brute_correlation(c0, (-0.5,), 8) == 1.0
    assert brute_correlation(c0, (0.5,), 8) == 0.0


def test_rescaled_profile_shapes():
    # empty partition: the profile is |x|
    for x in (-2.3, -1.0, 0.0, 0.7, 3.1):
        assert rescaled_profile((), 1.0, x) == pytest.approx(abs(x))
    # one box: teepee of height 2 over [-1, 1]
    assert rescaled_profile((1,), 1.0, 0.0) == pytest.approx(2.0)
    assert rescaled_profile((1,), 1.0, -1.0) == pytest.approx(1.0)
    assert rescaled_profile((1,), 1.0, 0.5) == pytest.approx(1.5)
    # piecewise linear with slopes +-1 between integer corners
    lam = (3, 1, 1)
    for n in range(-6, 6):
        left = rescaled_profile(lam, 1.0, n + 0.25)
        mid = rescaled_profile(lam, 1.0, n + 0.5)
        slope = (mid - left) / 0.25
        assert abs(abs(slope) - 1.0) < 1e-12


def test_profile_count_identity():
    # profile(x) = x + 2 N(x theta)/theta at lattice points, per configuration
    for lam in [(), (1,), (2, 1), (5, 3, 3, 1), (7,)]:
        for theta in (1.0, 2.5):
            for n in range(-8, 9):
                x = n / theta
                count = sum(1 for i, p in enumerate(lam, start=1) if p - i + 0.5 > n)
                count += max(0, math.ceil(0.5 - n) - 1 - len(lam))
                assert rescaled_profile(lam, theta, x) == pytest.approx(
                    x + 2.0 * count / theta)


def test_profile_dominates_absolute_value(rng):
    for _ in range(20):
        lam = tuple(sorted(rng.integers(1, 9, size=rng.integers(0, 5)), reverse=True))
        theta = float(rng.uniform(0.5, 4.0))
        x = float(rng.uniform(-6.0, 6.0))
        assert rescaled_profile(lam, theta, x) >= abs(x) - 1e-12
