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
takes scalars too), and ``_airy_cache`` holds its degree-16 Chebyshev
interpolants on the unit panels of [-14.5, decay point + 1/2] (29, 41 and 57
panels, 493 to 969 contour points, for m = 1, 2, 3) for the kernel assembly
(``airy_kernel_matrix``); above the decay point
``_airy_cached`` is exactly 0.  The law blocks share that panel-Chebyshev
layout (``_cheb_points``, ``_cheb_coefficients``) and its Clenshaw
evaluator (``_clenshaw``).

Contour choice: along the vertical line Re z = sigma the integrand decays
like exp(-sigma t^{2m}); for x < 0 the linear term adds a bump of
exp(|x| sigma) that the integral cancels, so its roundoff grows with
|x| sigma (at sigma = 1 and m = 3, 1e-7 near x = -14).  For x < -2 the line
therefore sits at sigma = 2/ceil(|x|), which bounds the bump by about e^2 at
the price of a slower decay and a longer line; sigma = 1 is kept on [-2, 1].
For m = 1 and x > 1 the line moves towards the saddle abscissa sqrt(x) - the
saddle's descent direction is vertical - which removes the cancellation on
the decaying side.  Arguments sharing ceil(sqrt(x)) share that line as
sigma, which keeps the off-saddle bump below e.  Where the integrand's peak
on its line sets a roundoff floor above _AIRY_FLOOR_TOL (every m >= 4 near
x = 0: e^241 at m = 4) the evaluator raises NoConvergence.

Fredholm determinants use a Nystrom discretisation with Gauss-Legendre nodes;
the kernel matrix is assembled as a Gram matrix B B^T over a v-quadrature,
which keeps it symmetric positive semi-definite by construction.
``fredholm_F`` (one panel on [s, s + L], node doubling) is the per-point
oracle of the law.

F is a fixed function, analytic in s (Bornemann 2010), and ``limiting_cdf``
serves every s of the desk range [-12, decay point] from the law blocks
shipped in ``law_blocks.npz``: degree-16 Chebyshev interpolants of F_{2m+1}
on the five unit panels from -12 + 5k, for the orders the contour
evaluator certifies (m <= 3: 6, 8 and 11 blocks), with their decay points.
Their certified reference builder is tools/law_builder.py, and
tools/regen_law_blocks.py rewrites the file with it.  ``_shipped_laws``
reads the file on first use and checks it: its layout must be this
module's and neighbouring panels must meet within LAW_CHECK_TOL, or it
raises LawDataError.  Other orders raise NoConvergence.
"""

from __future__ import annotations

import math
import numbers
import zipfile
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from .errors import (LawDataError, NoConvergence, NodeCountInsufficient,
                     TruncationFailure)

INTEGRAND_FLOOR = 1e-18      # tail magnitude required at the truncation point
KERNEL_FACTOR_FLOOR = 1e-16  # Ai factor size ending the v-integration
AIRY_NODE_BUDGET = 65536     # most trapezoid nodes one contour batch may use
TABLE_TOL = 1e-8             # certification tolerance of the F_{2m+1} laws
LAW_CHECK_TOL = 1e-12        # most a law block may miss its table off its nodes
_CHOLESKY_BLOCK = 256  # columns per np.linalg.cholesky call in _log_minors
_AIRY_FLOOR_TOL = 1e-10  # most roundoff floor an Airy value may carry
_DESK_FLOOR = -12.0    # least s of the limit law (the desk range)
_SCAN_MAX = 80.0       # most argument a decay-point scan reaches


def _order(m):
    """The order m as an int >= 1; ValueError otherwise."""
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
    roundoff floor set by the largest integrand magnitude encountered.
    NoConvergence is raised if it does not within AIRY_NODE_BUDGET nodes, or
    if that floor passes _AIRY_FLOOR_TOL (checked before exponentiating).
    """
    xs = np.asarray(xs, dtype=float)
    peak = [1.0]

    def quad(n):
        t = np.linspace(0.0, t_max, n + 1)
        z = sigma + 1j * t
        base = (-1.0) ** (m - 1) * z ** (2 * m + 1) / (2 * m + 1)
        # |integrand| = exp(Re base - x sigma) is largest at the least x
        expo = float(np.max(base.real) - sigma * np.min(xs))
        peak[0] = max(peak[0], math.exp(min(expo, 700.0)))
        if 3e-16 * peak[0] > _AIRY_FLOOR_TOL:
            raise NoConvergence(f"Airy roundoff floor {3e-16 * peak[0]:.1e} (m={m}, "
                                f"sigma={sigma}) above {_AIRY_FLOOR_TOL:.0e}")
        out = np.empty(len(xs))
        for j0 in range(0, len(xs), 128):  # chunk: keep the node matrix small
            chunk = xs[j0:j0 + 128, None]
            vals = np.exp(base[None, :] - chunk * z[None, :])
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
    left = flat < -2.0
    sigmas[left] = 2.0 / np.ceil(-flat[left])
    res = np.empty(flat.shape)
    for sigma in np.unique(sigmas):
        idx = sigmas == sigma
        t_max = _tail_cutoff(m, float(sigma), float(np.min(flat[idx])))
        res[idx] = _airy_batch(m, flat[idx], float(sigma), t_max)
    return res.reshape(xs.shape)


_CACHE_FLOOR = -14.5  # least argument of the Airy cache and the kernels
_CHEB_DEGREE = 16
_LAW_PANELS = 5  # unit panels per law block: a 95-point table fills one
_LAW_FILE = "law_blocks.npz"  # the shipped law blocks, beside this module


def _cheb_points(lo, panels):
    """First-kind Chebyshev points of the unit panels [lo + p, lo + p + 1].

    Row p holds the _CHEB_DEGREE + 1 points of panel p.
    """
    n = _CHEB_DEGREE + 1
    angles = math.pi * (np.arange(n) + 0.5) / n
    return (lo + np.arange(panels))[:, None] + 0.5 * (np.cos(angles) + 1.0)


def _cheb_coefficients(values):
    """Read-only Chebyshev coefficients from values at ``_cheb_points``.

    Column p holds the interpolant on panel p, row k its degree-k
    coefficients.
    """
    n = values.shape[1]
    angles = math.pi * (np.arange(n) + 0.5) / n
    coef = values @ (np.cos(np.outer(angles, np.arange(n))) * (2.0 / n))
    coef[:, 0] *= 0.5
    coef = np.ascontiguousarray(coef.T)
    coef.flags.writeable = False
    return coef


def _clenshaw(coef, panel, t2):
    """Panel-Chebyshev interpolant ``coef`` on panels ``panel`` at ``t2``.

    ``t2`` is twice the local argument, in [-2, 2] on the panel.
    """
    b1, b2, ck = np.zeros(t2.shape), np.zeros(t2.shape), np.empty(t2.shape)
    for k in range(coef.shape[0] - 1, 0, -1):  # b_k = c_k + 2t b_{k+1} - b_{k+2}
        np.take(coef[k], panel, out=ck)
        ck -= b2
        np.multiply(t2, b1, out=b2)
        b2 += ck
        b1, b2 = b2, b1
    return np.take(coef[0], panel) + 0.5 * t2 * b1 - b2


@lru_cache(maxsize=8)
def _airy_cache(m):
    """Chebyshev coefficients of Ai_{2m+1} on the unit panels from
    _CACHE_FLOOR that cover the decay point.

    Coefficients past degree 16 are at the contour evaluator's own noise (a
    few 1e-12), so the interpolant is as accurate as the evaluator.
    """
    panels = math.ceil(_decay_point(m) - _CACHE_FLOOR)
    return _cheb_coefficients(airy_values(m, _cheb_points(_CACHE_FLOOR, panels)))


def _airy_cached(m, xs):
    """Ai_{2m+1} at arguments xs >= _CACHE_FLOOR from the cache (Clenshaw
    recurrence); exactly 0 above the decay point, where |Ai| is below
    KERNEL_FACTOR_FLOOR."""
    coef = _airy_cache(m)
    u = xs - _CACHE_FLOOR
    panel = np.minimum(u.astype(np.intp), coef.shape[1] - 1)
    out = _clenshaw(coef, panel, 4.0 * (u - panel) - 2.0)
    out[xs > _decay_point(m)] = 0.0
    return out


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
def _v_quadrature(panels):
    """Composite 24-point Gauss-Legendre rule on [0, 2 panels] for the v-integral.

    The panels are 2 wide from v = 0, so a rule with fewer panels is a
    prefix of one with more.
    """
    nodes_ref, weights_ref = _gauss_legendre(24)
    vs = (np.arange(panels)[:, None] * 2.0 + 1.0 + nodes_ref).ravel()
    ws = np.tile(weights_ref, panels)
    vs.flags.writeable = False
    ws.flags.writeable = False
    return vs, ws


def _kernel_factor(m, xs):
    """Airy factor B with A_{2m+1}(x_i, x_j) = (B B^T)_ij.

    B_ik = Ai_{2m+1}(x_i + v_k) sqrt(w_k) over the v-quadrature, from the
    Chebyshev cache in row chunks that keep the temporaries small.  The rule
    reaches V >= (decay point - min x), so both Airy factors are below
    KERNEL_FACTOR_FLOOR at its end for every argument.  By the same bound a
    chunk evaluates only the nodes with min x + v_k <= decay point and
    leaves the rest of its row block exactly 0.
    """
    x_floor = float(np.min(xs))
    if x_floor < _CACHE_FLOOR:
        raise ValueError(f"Airy kernel arguments >= {_CACHE_FLOOR} supported; "
                         f"got {x_floor!r}")
    decay = _decay_point(m)
    panels = math.ceil((decay - x_floor) / 2.0)
    vs, ws = _v_quadrature(max(panels, 2))
    factor = np.zeros((len(xs), len(vs)))
    for i in range(0, len(xs), 128):
        chunk = xs[i:i + 128, None]
        live = int(np.searchsorted(vs, decay - np.min(chunk), side="right"))
        factor[i:i + 128, :live] = _airy_cached(m, chunk + vs[:live])
    factor *= np.sqrt(ws)
    return factor


def airy_kernel_matrix(order, xs):
    """Gram matrix [A_{2m+1}(x_i, x_j)] over arguments x_i >= -14.5.

    Assembled as B B^T from the Airy factor over the v-quadrature, so it is
    symmetric positive semi-definite by construction.
    """
    factor = _kernel_factor(_order(order), np.asarray(xs, dtype=float))
    return factor @ factor.T


@dataclass(frozen=True)
class FredholmConfig:
    """Nystrom discretisation: node count; the upper cut above s is per order."""

    n_nodes: int = 64

    def cut_for(self, m):
        """Upper cut L: 14 for m = 1, 20 above (10 is 1.8e-8 off at m = 2)."""
        return 14.0 if m == 1 else 20.0


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
    """F_{2m+1}(s) = det(1 - A_{2m+1}) on L^2([s, infinity)), one panel.

    The independent per-point oracle of ``limiting_cdf``.  With ``check`` the
    value is recomputed at doubled node count and must move by less than
    TABLE_TOL (NodeCountInsufficient otherwise); the doubled value is
    returned.
    """
    m = _order(order)
    cfg = config or FredholmConfig()
    if s < _DESK_FLOOR:
        raise ValueError(f"desk range is s >= {_DESK_FLOOR:g}")
    L = cfg.cut_for(m)
    val = _fredholm_once(m, s, L, cfg.n_nodes)
    if not check:
        return val
    val2 = _fredholm_once(m, s, L, 2 * cfg.n_nodes)
    if abs(val2 - val) >= TABLE_TOL:
        raise NodeCountInsufficient(
            f"F changed by {abs(val2 - val):.2e} under node doubling at s={s}")
    return val2


def _swept_factor(block):
    """Column-by-column Cholesky factor of the symmetric ``block`` (its lower
    triangle), and the index of its first pivot <= 0 (None if there is none).

    The fallback for a block ``np.linalg.cholesky`` refuses, which does not
    say where.  A pivot that is all roundoff can take either sign: OpenBLAS
    scales each column by the reciprocal of its pivot's root where this
    sweep divides by it, and refuses some blocks whose sweep ends on a
    pivot of 5.6e-17.  The sweep decides.
    """
    low = np.tril(block)
    for j in range(len(low)):
        pivot = low[j, j] - low[j, :j] @ low[j, :j]
        if not pivot > 0.0:
            return low, j
        low[j, j] = root = math.sqrt(pivot)
        low[j + 1:, j] -= low[j + 1:, :j] @ low[j, :j]
        low[j + 1:, j] /= root
    return low, None


def _log_minors(mat, orders, tol):
    """Log leading minors of the symmetric ``mat`` at ``orders``, from one
    Cholesky factor, and the order of its first pivot <= 0 (0 if there is
    none).

    The factor is left-looking by blocks of _CHOLESKY_BLOCK columns, each
    diagonal block one ``np.linalg.cholesky`` (``_swept_factor`` where that
    refuses); a table of at most that order is one call.  A larger ``mat``
    is the factor's scratch, so the only temporaries are one block column
    and one diagonal block.  Past the first pivot <= 0 the minors
    are -inf when the last minor before it is under ``tol``; otherwise the
    log minors are None and the caller raises.  The minor is compared as
    exp(min(log, 0)), so log minors above 0 (a Toeplitz table's run up to
    the Szego constant) cannot overflow.
    """
    size = len(mat)
    diag = np.empty(size)
    info = 0
    for k0 in range(0, size, _CHOLESKY_BLOCK):
        k1 = min(k0 + _CHOLESKY_BLOCK, size)
        if k0:
            mat[k0:, k0:k1] -= mat[k0:, :k0] @ mat[k0:k1, :k0].T
        try:
            low = np.linalg.cholesky(mat[k0:k1, k0:k1])
        except np.linalg.LinAlgError:
            low, failed = _swept_factor(mat[k0:k1, k0:k1])
            if failed is not None:
                info = k0 + failed + 1
                diag[k0:info - 1] = low.diagonal()[:failed]
                break
        diag[k0:k1] = low.diagonal()
        if k1 < size:
            # L21 = A21 L11^-T; numpy has no triangular solve, and its pivoted
            # one took twice the time of this inverse on 4 064 sites
            mat[k1:, k0:k1] = mat[k1:, k0:k1] @ np.linalg.inv(low).T
    n = info - 1 if info else size
    logdet = np.concatenate(([0.0], np.cumsum(2.0 * np.log(diag[:n]))))
    orders = np.minimum(orders, n + 1)
    if np.max(orders) > n and math.exp(min(logdet[-1], 0.0)) >= tol:
        return None, info
    return np.append(logdet, -np.inf)[orders], info



def _block_count(decay):
    """Law blocks covering the desk range [_DESK_FLOOR, decay]."""
    return int((decay - _DESK_FLOOR) // _LAW_PANELS) + 1


def _load_laws(source):
    """{m: (decay point, read-only law blocks)} from the law file ``source``.

    The file holds the layout scalars ``floor``, ``panels`` and ``degree``,
    the ``orders`` and their ``decay`` points, and per order m an array
    ``m<m>`` whose k-th entry holds the Chebyshev coefficients of
    F_{2m+1} on the _LAW_PANELS unit panels from _DESK_FLOOR + _LAW_PANELS k
    (row j the degree-j ones, column p panel p).  The layout must be
    this module's, with one block per _LAW_PANELS unit panels up to the
    decay point; every panel's interpolant must meet the next one's, in its
    block and across blocks, within LAW_CHECK_TOL.  LawDataError otherwise.
    """
    try:
        with source.open("rb") as fh, np.load(fh, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
        layout = tuple(arrays[key].item() for key in ("floor", "panels", "degree"))
        laws = {int(m): (float(decay), arrays[f"m{int(m)}"]) for m, decay
                in zip(arrays["orders"], arrays["decay"], strict=True)}
    except (OSError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        raise LawDataError(f"unreadable law file {source}: {exc}") from exc
    if layout != (_DESK_FLOOR, _LAW_PANELS, _CHEB_DEGREE):
        raise LawDataError(f"law file layout (floor, panels, degree) = {layout}, "
                           f"not {(_DESK_FLOOR, _LAW_PANELS, _CHEB_DEGREE)}")
    for m, (decay, blocks) in laws.items():
        shape = (_block_count(decay) if math.isfinite(decay) else None,
                 _CHEB_DEGREE + 1, _LAW_PANELS)
        if blocks.shape != shape or blocks.dtype != np.float64 \
                or not np.all(np.isfinite(blocks)):
            raise LawDataError(f"law blocks of m={m} are {blocks.dtype} "
                               f"{blocks.shape}, not finite float64 {shape}")
        coef = blocks.transpose(1, 0, 2).reshape(_CHEB_DEGREE + 1, -1)
        panel = np.arange(coef.shape[1] - 1)
        ends = np.full(panel.shape, 2.0)
        join = float(np.max(np.abs(_clenshaw(coef, panel, ends)
                                   - _clenshaw(coef, panel + 1, -ends))))
        if not join < LAW_CHECK_TOL:
            raise LawDataError(f"law panels of m={m} miss each other by {join:.2e}")
        blocks.flags.writeable = False
    return laws


@lru_cache(maxsize=1)
def _shipped_laws():
    """The law blocks shipped with the package, read and checked once."""
    return _load_laws(resources.files(__package__) / _LAW_FILE)


def limiting_cdf(order, n_cuts, s):
    """Edge law F_{2m+1}(s)^n of an n-cut sea at scalar or array s >= -12.

    A scalar gives a float, an array a table of its shape.  F is the
    interpolant of the law block holding s, read from the law file; the
    order's blocks are stacked into one row of unit panels and evaluated by
    one Clenshaw recurrence.  An s above the decay point of Ai_{2m+1} is taken there,
    where 1 - F is below 1e-30.  An order the law file does not hold raises
    NoConvergence: the contour evaluator certifies no Ai_{2m+1} for m >= 4.
    """
    m = _order(order)
    n = int(n_cuts)
    if n < 1:
        raise ValueError("n_cuts must be >= 1")
    s_arr = np.asarray(s, dtype=float)
    if not (s_arr.size and np.all(np.isfinite(s_arr)) and np.min(s_arr) >= _DESK_FLOOR):
        raise ValueError(f"s must be finite and >= {_DESK_FLOOR:g} (desk range)")
    laws = _shipped_laws()
    if m not in laws:
        raise NoConvergence(f"no certified F_{2 * m + 1} law blocks for m={m}; "
                            f"the law file holds m in {sorted(laws)}")
    decay, blocks = laws[m]
    # column p of the stacked blocks is the unit panel from _DESK_FLOOR + p
    u = np.minimum(s_arr.ravel(), decay) - _DESK_FLOOR
    panel = u.astype(np.intp)
    law = _clenshaw(np.hstack(blocks), panel, 4.0 * (u - panel) - 2.0)
    # F is a law; the interpolant's roundoff steps out of [0, 1] to -9e-28
    # near s = -9 (m = 1), where F itself is 1e-26, and to 1 + 1.6e-15
    law = np.clip(law, 0.0, 1.0).reshape(s_arr.shape) ** n
    return float(law) if law.ndim == 0 else law
