"""Order-m Airy functions, kernels, and their Fredholm determinant laws.

The order-m Airy function is the contour integral

    Ai_{2m+1}(x) = (1/2 pi i) * int exp[(-1)^(m-1) z^(2m+1)/(2m+1) - x z] dz

over a vertical line Re z = sigma > 0; m = 1 is the classical Airy function.
It solves the eigenvalue identity

    (x + (-1)^m d^{2m}/dx^{2m}) Ai_{2m+1}(x + v) = -v Ai_{2m+1}(x + v),

so the projection onto the modes below the edge is the order-m Airy kernel

    A_{2m+1}(x, y) = int_0^infty Ai_{2m+1}(x + v) Ai_{2m+1}(y + v) dv,

and F_{2m+1}(s) = det(1 - A_{2m+1}) on L^2([s, infinity)) is the order-m
Tracy-Widom law (classical GUE Tracy-Widom at m = 1).  Integer powers
F_{2m+1}^n are the edge laws of n-cut seas.

Evaluation: ``airy_values`` is the one contour evaluator (vectorised, and it
takes scalars too); ``airy_fn`` is its guarded public scalar form, and
``_airy_spline`` caches it on a fine grid for the kernel assembly.

Contour choice: along the vertical line Re z = sigma the integrand decays
like exp(-sigma t^{2m}); the linear term contributes a cancellation bump of
exp(|x| sigma) for x < 0, so sigma = 1 is kept there (larger sigma only
inflates it), while for m = 1 and x > 1 the line moves towards the saddle
abscissa sqrt(x) - the saddle's descent direction is vertical - which removes
the cancellation on the decaying side.  Arguments sharing ceil(sqrt(x)) share
that line as sigma, which keeps the off-saddle bump below e.

Fredholm determinants use a Nystrom discretisation with Gauss-Legendre nodes
on [s, s + L]; the kernel matrix is assembled as a Gram matrix over a
v-quadrature, which keeps it symmetric positive semi-definite by construction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NoConvergence, NodeCountInsufficient, TruncationFailure

INTEGRAND_FLOOR = 1e-18      # tail magnitude required at the truncation point
KERNEL_FACTOR_FLOOR = 1e-16  # Ai factor size ending the v-integration
AIRY_NODE_BUDGET = 65536     # most trapezoid nodes one contour batch may use
_MAX_ARG = 40.0        # public argument guard
_SCAN_MAX = 80.0       # internal decay scans may go further


@dataclass(frozen=True)
class AiryOrder:
    """Order m >= 1 of the Airy function; m = 1 is the classical one."""

    m: int

    def __post_init__(self):
        _order(self.m)


def _order(order):
    """The integer m >= 1 of an AiryOrder or an int; ValueError otherwise."""
    m = order.m if isinstance(order, AiryOrder) else order
    if not isinstance(m, numbers.Integral) or m < 1:
        raise ValueError(f"order m must be a positive integer; got {m!r}")
    return int(m)


def _tail_magnitude(m, sigma, x, t):
    """|integrand| at z = sigma + i t (real part of the exponent)."""
    z = complex(sigma, t)
    expo = (-1.0) ** (m - 1) * z ** (2 * m + 1) / (2 * m + 1) - x * z
    return math.exp(min(expo.real, 700.0))


def _tail_cutoff(m, sigma, x):
    """t beyond which the line integrand stays under INTEGRAND_FLOOR."""
    t = max(4.0, (abs(x) + 60.0) ** (1.0 / (2 * m)))
    for _ in range(60):
        if _tail_magnitude(m, sigma, x, t) < INTEGRAND_FLOOR:
            return t
        t *= 1.25
    raise TruncationFailure(f"no decay up to t={t:.1f} (m={m}, sigma={sigma}, x={x})")


def _airy_batch(m, xs, sigma, t_max):
    """Vectorised contour quadrature for a batch sharing one vertical line.

    The integrand at -t is the conjugate of the integrand at t (x real), so
    the integral reduces to the real part over the half line, which is real
    by construction; node count doubles until the difference hits the
    roundoff floor set by the largest integrand magnitude encountered, and
    NoConvergence is raised if it does not within AIRY_NODE_BUDGET nodes.
    """
    xs = np.asarray(xs, dtype=float)
    peak = [1.0]

    def quad(n):
        t = np.linspace(0.0, t_max, n + 1)
        z = sigma + 1j * t
        base = (-1.0) ** (m - 1) * z ** (2 * m + 1) / (2 * m + 1)
        out = np.empty(len(xs))
        for j0 in range(0, len(xs), 128):  # chunk: keep the node matrix small
            chunk = xs[j0:j0 + 128, None]
            vals = np.exp(base[None, :] - chunk * z[None, :])
            peak[0] = max(peak[0], float(np.max(np.abs(vals))))
            out[j0:j0 + 128] = np.trapezoid(vals.real, t, axis=-1)
        return out / math.pi

    n = 1024
    prev = quad(n)
    while n < AIRY_NODE_BUDGET:
        n *= 2
        cur = quad(n)
        if np.max(np.abs(cur - prev)) < max(1e-13, 3e-16 * peak[0]):
            return cur
        prev = cur
    raise NoConvergence(f"Airy contour quadrature (m={m}, sigma={sigma}) "
                        f"not converged at {AIRY_NODE_BUDGET} nodes")


def airy_values(m, xs):
    """Ai_{2m+1} at scalar or array xs; batches share contours by abscissa."""
    m = _order(m)
    xs = np.asarray(xs, dtype=float)
    flat = xs.ravel()
    sigmas = (np.ceil(np.sqrt(np.maximum(flat, 1.0))) if m == 1
              else np.ones_like(flat))
    res = np.empty(flat.shape)
    for sigma in np.unique(sigmas):
        idx = sigmas == sigma
        t_max = _tail_cutoff(m, float(sigma), float(np.min(flat[idx])))
        res[idx] = _airy_batch(m, flat[idx], float(sigma), t_max)
    return res.reshape(xs.shape)


def airy_fn(order, x):
    """Order-m Airy function at one argument |x| <= 40."""
    if abs(float(x)) > _MAX_ARG:
        raise ValueError(f"|x| <= {_MAX_ARG} supported; got {x!r}")
    return float(airy_values(order, float(x)))


_SPLINE_DOMAIN = (-14.5, 52.0)
_SPLINE_STEP = 0.004


@lru_cache(maxsize=8)
def _airy_spline(m):
    """Cubic-spline cache of Ai_{2m+1} on the desk-scale argument range.

    Interpolation error is ~ h^4 |Ai''''| / 384 < 1e-10 on the domain, below
    every tolerance the Fredholm determinants are used at; above the domain
    the function is below the kernel truncation floor and treated as zero.
    """
    from scipy.interpolate import CubicSpline

    lo, hi = _SPLINE_DOMAIN
    grid = np.arange(lo, hi + _SPLINE_STEP, _SPLINE_STEP)
    return CubicSpline(grid, airy_values(m, grid))


@lru_cache(maxsize=32)
def _decay_point(m):
    """Argument beyond which |Ai_{2m+1}| stays under KERNEL_FACTOR_FLOOR.

    Scans one argument at a time: each positive argument then carries its own
    roundoff floor, which shrinks with exp(-x) and stays below the target.
    """
    u = 4.0
    while u < _SCAN_MAX:
        if abs(float(airy_values(m, u))) < KERNEL_FACTOR_FLOOR:
            return u
        u += 1.0
    raise TruncationFailure(f"no decay point found for m={m}")


@lru_cache(maxsize=16)
def _gauss_legendre(n):
    """Read-only n-point Gauss-Legendre nodes and weights on [-1, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@lru_cache(maxsize=64)
def _v_quadrature(m, x_floor, n_per_panel=24):
    """Composite Gauss-Legendre rule on [0, V] for the kernel's v-integral.

    V is chosen so both Airy factors are below KERNEL_FACTOR_FLOOR at the
    truncation point for every argument >= x_floor.
    """
    v_top = max(_decay_point(m) - x_floor, 1.0)
    nodes_ref, weights_ref = _gauss_legendre(n_per_panel)
    panels = max(2, math.ceil(v_top / 2.0))
    edges = np.linspace(0.0, v_top, panels + 1)
    vs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        vs.append(0.5 * (b - a) * nodes_ref + 0.5 * (a + b))
        ws.append(0.5 * (b - a) * weights_ref)
    return np.concatenate(vs), np.concatenate(ws)


def airy_kernel_matrix(order, xs):
    """Gram matrix [A_{2m+1}(x_i, x_j)] over arguments x_i >= -14.5.

    Assembled as Phi W Phi^T over the v-quadrature from the spline cache, so
    it is symmetric positive semi-definite by construction.
    """
    m = _order(order)
    xs = np.asarray(xs, dtype=float)
    lo, hi = _SPLINE_DOMAIN
    x_floor = float(np.min(xs))
    if x_floor < lo:
        raise ValueError(f"Airy kernel arguments >= {lo} supported; got {x_floor!r}")
    vs, ws = _v_quadrature(m, x_floor)
    args = xs[:, None] + vs[None, :]
    phi = _airy_spline(m)(args)
    phi[args > hi] = 0.0
    return (phi * ws[None, :]) @ phi.T


def airy_kernel(order, x, y):
    """Order-m Airy kernel A_{2m+1}(x, y); symmetric in its arguments."""
    mat = airy_kernel_matrix(order, np.array([float(x), float(y)]))
    return float(mat[0, 1]) if x != y else float(mat[0, 0])


@dataclass(frozen=True)
class FredholmConfig:
    """Nystrom discretisation: node count and upper truncation above s."""

    n_nodes: int = 64
    upper_cut: float = 0.0  # 0 means: pick the per-order default

    def cut_for(self, m):
        if self.upper_cut > 0.0:
            return self.upper_cut
        return 14.0 if m == 1 else 10.0


def _fredholm_once(m, s, L, n_nodes):
    nodes, weights = _gauss_legendre(n_nodes)
    x = s + 0.5 * L * (nodes + 1.0)
    w = 0.5 * L * weights
    a = airy_kernel_matrix(m, x)
    sw = np.sqrt(w)
    mat = np.eye(n_nodes) - sw[:, None] * a * sw[None, :]
    sign, logdet = np.linalg.slogdet(mat)
    if sign <= 0.0:
        raise NodeCountInsufficient(
            f"det(1 - A) has sign {sign:+.0f} at s={s} with {n_nodes} nodes (m={m})")
    return float(math.exp(logdet))


def fredholm_F(order, config=None, s=0.0, check=True):
    """F_{2m+1}(s) = det(1 - A_{2m+1}) on L^2([s, infinity)).

    With ``check`` the value is recomputed at doubled node count and must move
    by less than 1e-8 (NodeCountInsufficient otherwise); the doubled value is
    returned.
    """
    m = _order(order)
    cfg = config or FredholmConfig()
    if s < -12.0:
        raise ValueError("desk range is s >= -12")
    L = cfg.cut_for(m)
    val = _fredholm_once(m, s, L, cfg.n_nodes)
    if not check:
        return min(max(val, 0.0), 1.0)
    val2 = _fredholm_once(m, s, L, 2 * cfg.n_nodes)
    if abs(val2 - val) >= 1e-8:
        raise NodeCountInsufficient(
            f"F changed by {abs(val2 - val):.2e} under node doubling at s={s}")
    return min(max(val2, 0.0), 1.0)


def limiting_cdf(order, n_cuts, s, config=None, check=False):
    """Edge law F_{2m+1}(s)^n for an n-cut sea."""
    n = int(n_cuts)
    if n < 1:
        raise ValueError("n_cuts must be >= 1")
    return fredholm_F(order, config, s, check=check) ** n
