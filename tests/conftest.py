"""Shared independent oracles used across the test suite.

Everything here is deliberately implemented from scratch (power series,
finite differences, direct quadrature) so the tests never validate a module
against its own machinery.
"""

import math

import numpy as np
import pytest


def airy_series(x, nterms=160):
    """Classical Airy function by its Maclaurin series (good for |x| <= 6)."""
    c1 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    c2 = 3.0 ** (-1.0 / 3.0) / math.gamma(1.0 / 3.0)
    f = g = 0.0
    tf, tg = 1.0, x
    for k in range(nterms):
        f += tf
        g += tg
        tf *= x ** 3 / ((3 * k + 2) * (3 * k + 3))
        tg *= x ** 3 / ((3 * k + 3) * (3 * k + 4))
    return c1 * f - c2 * g


def bessel_j(n, x, terms=80):
    """Bessel J_n by its power series."""
    n = abs(int(n))
    acc, term = 0.0, (0.5 * x) ** n / math.factorial(n)
    for k in range(terms):
        acc += term
        term *= -(0.5 * x) ** 2 / ((k + 1) * (n + k + 1))
    return acc


def bessel_i(n, x, terms=80):
    """Modified Bessel I_n by its power series."""
    n = abs(int(n))
    acc, term = 0.0, (0.5 * x) ** n / math.factorial(n)
    for k in range(terms):
        acc += term
        term *= (0.5 * x) ** 2 / ((k + 1) * (n + k + 1))
    return acc


def central_derivative(fn, x, order, h):
    """Central finite differences for derivative orders 1..4."""
    stencils = {
        1: ([-0.5, 0.5], [-1, 1]),
        2: ([1.0, -2.0, 1.0], [-1, 0, 1]),
        3: ([-0.5, 1.0, -1.0, 0.5], [-2, -1, 1, 2]),
        4: ([1.0, -4.0, 6.0, -4.0, 1.0], [-2, -1, 0, 1, 2]),
    }
    coeffs, offsets = stencils[order]
    return sum(c * fn(x + o * h) for c, o in zip(coeffs, offsets)) / h ** order


@pytest.fixture()
def rng():
    # fresh per test: results must not depend on which tests ran before
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    # the CLI runs numpy's OpenBLAS on one thread from its first main call;
    # pinning at the start keeps the whole session on the BLAS the CLI uses,
    # instead of switching partway through at the first in-process CLI test
    from splitsea.cli import pin_blas_threads
    pin_blas_threads()
