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
``_airy_cache`` holds its degree-16 Chebyshev interpolants on the unit panels
of [-14.5, decay point + 1/2] (29, 41 and 57 panels, 493 to 969 contour
points, for m = 1, 2, 3) for the kernel assembly; above the decay point
``_airy_cached`` is exactly 0.  The law blocks below share that
panel-Chebyshev build (``_cheb_points``, ``_cheb_coefficients``) and its
Clenshaw evaluator (``_clenshaw``).

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
``_law_table`` computes F on a whole s-grid as one table: composite panels
whose edges are the grid points, plus the tail [s_max, s_max + L] in unit
panels, with the nodes ordered from the top down so that every F(s_j) is a
leading minor of I - W^1/2 A W^1/2.  That kernel has low numerical rank
(Bornemann 2010): in the r leading eigenvectors of the weighted factor's
V x V Gram (r from 8 to 75 against up to 1300 nodes) each minor is the
determinant of one r x r matrix, with the dropped trace bounding the error.
A second table with twice the nodes on every panel and twice L certifies it
to TABLE_TOL, and the finer one is returned.  ``fredholm_F`` (one panel on
[s, s + L], node doubling) stays as the independent per-point oracle.

F is analytic in s (Bornemann 2010), so ``limiting_cdf`` serves every s
of the desk range [-12, decay point] from ``_law_block(m, k)``: degree-16
Chebyshev interpolants of F_{2m+1} on the five unit panels from -12 + 5k,
each block built on first use from one such table.  The build is
certified: every panel's last three coefficients (the chopping rule of
Aurentz and Trefethen 2017) must be under LAW_TAIL_TOL, and the
interpolant must reproduce the table at two check points per panel to
LAW_CHECK_TOL, or it raises NodeCountInsufficient.
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
TABLE_TOL = 1e-8             # certification tolerance of the F_{2m+1} laws
LAW_TAIL_TOL = 1e-11         # most a law block panel's last 3 coefficients reach
LAW_CHECK_TOL = 1e-12        # most a law block may miss its table off its nodes
RANK_RTOL = 1e-17            # kept eigenvalues of the table's Gram, relative
RANK_DROP_TOL = 1e-12        # most kernel trace the compressed table may drop
_AIRY_FLOOR_TOL = 1e-10  # most roundoff floor an Airy value may carry
_DESK_FLOOR = -12.0    # least s of the limit law (the desk range)
_MAX_ARG = 40.0        # public argument guard
_SCAN_MAX = 80.0       # internal decay scans may go further


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


def airy_fn(order, x):
    """Order-m Airy function at one argument |x| <= 40."""
    if abs(float(x)) > _MAX_ARG:
        raise ValueError(f"|x| <= {_MAX_ARG} supported; got {x!r}")
    return float(airy_values(order, float(x)))


_CACHE_FLOOR = -14.5  # least argument of the Airy cache and the kernels
_CHEB_DEGREE = 16
_LAW_PANELS = 5  # unit panels per law block: a 95-point table fills one


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


def airy_kernel(order, x, y):
    """Order-m Airy kernel A_{2m+1}(x, y); symmetric in its arguments."""
    mat = airy_kernel_matrix(order, np.array([float(x), float(y)]))
    return float(mat[0, 1]) if x != y else float(mat[0, 0])


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


def _panel_nodes(width):
    """Gauss-Legendre nodes on one panel (width <= 1) of the coarse table.

    Measured on [-6, 4] for m = 1, 2, 3, the coarse/fine gap of a grid of
    such panels stays under 3e-9 (two nodes at width 0.055, m = 1) and falls
    like width^(2 nodes); six nodes on the unit panels of the tail leave
    under 5e-12 for every s in [-12, 6].
    """
    for top, nodes in ((0.055, 2), (0.22, 3), (0.55, 4)):
        if width <= top:
            return nodes
    return 6


def _law_nodes(edges, refine):
    """Nodes and weights on [edges[-1], edges[0]], ordered from the top down.

    ``edges`` descend; each gap is split into equal panels at most 1 wide,
    carrying ``refine`` times the nodes of ``_panel_nodes``.  Also returns
    the number of nodes above each edge after the first.
    """
    xs, ws, above = [], [], []
    count = 0
    for hi, lo in zip(edges[:-1], edges[1:]):
        pieces = math.ceil(hi - lo)
        width = (hi - lo) / pieces
        nodes, weights = _gauss_legendre(refine * _panel_nodes(width))
        for j in range(pieces):
            xs.append(hi - j * width - 0.5 * width * (1.0 + nodes))
            ws.append(0.5 * width * weights)
        count += pieces * len(nodes)
        above.append(count)
    return np.concatenate(xs), np.concatenate(ws), np.array(above)


def _law_factor(m, s, refine):
    """Weighted Airy factor W^1/2 B of the table on [s_0, s_max + refine L].

    Rows are the ``_law_nodes`` from the top down; also returns the number of
    rows above each s_j, from s_max down.
    """
    top = s[-1] + refine * FredholmConfig().cut_for(m)
    x, w, above = _law_nodes(np.concatenate(([top], s[::-1])), refine)
    factor = _kernel_factor(m, x)
    factor *= np.sqrt(w)[:, None]
    return factor, above


def _log_minors(mat, orders, tol):
    """Log leading minors of the symmetric ``mat`` at ``orders``, from one
    Cholesky factor, and LAPACK's ``info`` (the order of the first pivot <= 0,
    0 if there is none).

    ``mat`` is factored in place: its transpose is the Fortran-ordered array
    LAPACK overwrites.  Past the first pivot <= 0 the minors are -inf when
    the last minor before it is under ``tol``; otherwise the log minors are
    None and the caller raises.  The minor is compared as exp(min(log, 0)),
    so log minors above 0 (a Toeplitz table's run up to the Szego constant)
    cannot overflow.
    """
    from scipy.linalg.lapack import dpotrf

    chol, info = dpotrf(mat.T, lower=1, overwrite_a=1)
    n = info - 1 if info else len(mat)
    logdet = np.concatenate(([0.0], np.cumsum(2.0 * np.log(np.diag(chol)[:n]))))
    orders = np.minimum(orders, n + 1)
    if np.max(orders) > n and math.exp(min(logdet[-1], 0.0)) >= tol:
        return None, info
    return np.append(logdet, -np.inf)[orders], info


def _leading_minors(p, above):
    """det(I - P_k P_k^T) for the leading row blocks P_k = p[:k], k in above.

    By Sylvester each is det(I_r - P_k^T P_k): the running r x r
    complements I_r - P_k^T P_k are stacked and factored by one stacked
    Cholesky.  If one is not positive definite, the minors come from
    ``_log_minors`` of the dense I - P P^T over the rows p[:above[-1]]: 0.0
    past its first pivot <= 0 when the minor before it is under TABLE_TOL
    (F is monotone, so 0 is then within it), NodeCountInsufficient
    otherwise.
    """
    blocks = np.split(p[:above[-1]], above[:-1])
    comps = np.empty((len(blocks), p.shape[1], p.shape[1]))
    comp = np.eye(p.shape[1])
    for block, out in zip(blocks, comps):
        comp = np.subtract(comp, block.T @ block, out=out)
    try:
        chol = np.linalg.cholesky(comps)
    except np.linalg.LinAlgError:
        rows = p[:above[-1]]
        dense = rows @ -rows.T
        dense.flat[::len(rows) + 1] += 1.0
        logdet, failed = _log_minors(dense, above, TABLE_TOL)
        if logdet is None:
            raise NodeCountInsufficient(
                f"I - A not positive definite at node {failed} of {len(rows)}")
        return np.exp(logdet)
    return np.exp(2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)),
                               axis=1))


def _law_table(m, s):
    """F_{2m+1}(s_j) = det(1 - A_{2m+1}) on [s_j, infinity), ascending s_j.

    The composite rule covers [s_0, s_max + L]; with its nodes ordered from
    the top down, F(s_j) is the leading minor of I - F F^T over the nodes
    above s_j, F = W^1/2 B the weighted N x V Airy factor.  A second table
    with twice the nodes on every panel and twice L certifies it: the two
    must agree to TABLE_TOL, and the finer one is returned.

    The Nystrom kernel F F^T has low numerical rank (Bornemann 2010), so
    both tables are taken in the r leading eigenvectors Q of the fine Gram
    F^T F (the coarse v-rule is a prefix of the fine one).  With P = F Q,
    F F^T = P P^T + E splits into two positive semi-definite terms, and
    tr E = ||F Q_perp||_F^2 is the dropped mass delta.  A determinant
    det(I - K) with 0 <= K <= I moves by at most the trace of a positive
    semi-definite change, so every minor moves by at most delta; delta >=
    RANK_DROP_TOL raises NodeCountInsufficient.  By Sylvester each minor is
    det(I_r - P_k^T P_k), from a running r x r Gram.

    Cost per table: the live Airy factor values (at most N V), the V x V
    Gram and the projection (N V^2 each), one V x V eigh and one stacked
    Cholesky of the r x r complements of all s_j; memory is O(N V + J r^2)
    for J grid points.  The products stay in numpy's BLAS: interleaving them
    with a second OpenBLAS thread pool (the one behind ``_log_minors``)
    doubled the CPU time of ``sample`` on two cores.
    """
    fine, fine_above = _law_factor(m, s, 2)
    lam, vecs = np.linalg.eigh(fine.T @ fine)
    rank = int(np.count_nonzero(lam > RANK_RTOL * lam[-1]))
    tables, dropped = [], 0.0
    for factor, above in ((fine, fine_above), _law_factor(m, s, 1)):
        proj = factor @ vecs[:factor.shape[1]]
        dropped = max(dropped, float(np.sum(np.square(proj[:, :-rank]))))
        tables.append(_leading_minors(proj[:, -rank:], above)[::-1])
    if dropped >= RANK_DROP_TOL:
        raise NodeCountInsufficient(
            f"rank-{rank} Airy factor drops {dropped:.2e} of the kernel trace")
    gap = float(np.max(np.abs(tables[0] - tables[1])))
    if gap >= TABLE_TOL:
        raise NodeCountInsufficient(
            f"F_{2 * m + 1} table moved by {gap:.2e} under refinement")
    return tables[0]


@lru_cache(maxsize=64)
def _law_block(m, k):
    """Chebyshev coefficients of F_{2m+1} on the _LAW_PANELS unit panels from
    _DESK_FLOOR + _LAW_PANELS k.

    Filled from one certified ``_law_table`` at the panels' Chebyshev points
    and at two check points per panel, its quarter points (the midpoint is a
    node when the point count is odd).  Every panel's last three
    coefficients must be under LAW_TAIL_TOL, and the interpolant must
    reproduce the table at the check points to LAW_CHECK_TOL;
    NodeCountInsufficient otherwise.
    """
    lo = _DESK_FLOOR + _LAW_PANELS * k
    nodes = _cheb_points(lo, _LAW_PANELS)
    checks = ((lo + np.arange(_LAW_PANELS))[:, None] + np.array([0.25, 0.75])).ravel()
    points = np.concatenate((nodes.ravel(), checks))
    order = np.argsort(points)
    values = np.empty(points.size)
    values[order] = _law_table(m, points[order])
    coef = _cheb_coefficients(values[:nodes.size].reshape(nodes.shape))
    tail = float(np.max(np.abs(coef[-3:])))
    if tail >= LAW_TAIL_TOL:
        raise NodeCountInsufficient(
            f"F_{2 * m + 1} panel coefficients end at {tail:.2e}, not under "
            f"{LAW_TAIL_TOL:.0e}")
    fit = _clenshaw(coef, np.repeat(np.arange(_LAW_PANELS), 2),
                    np.tile([-1.0, 1.0], _LAW_PANELS))
    miss = float(np.max(np.abs(fit - values[nodes.size:])))
    if miss >= LAW_CHECK_TOL:
        raise NodeCountInsufficient(
            f"F_{2 * m + 1} interpolant misses its check points by {miss:.2e}")
    return coef


def limiting_cdf(order, n_cuts, s):
    """Edge law F_{2m+1}(s)^n of an n-cut sea at scalar or array s >= -12.

    A scalar gives a float, an array a table of its shape.  F is the
    interpolant of the ``_law_block`` holding s, built on first use and
    certified there against the table it was filled from; the blocks an
    s-grid needs are stacked and evaluated by one Clenshaw recurrence.  An s
    above the decay point of Ai_{2m+1} is taken there, where 1 - F is below
    1e-30.
    """
    m = _order(order)
    n = int(n_cuts)
    if n < 1:
        raise ValueError("n_cuts must be >= 1")
    s_arr = np.asarray(s, dtype=float)
    if not (s_arr.size and np.all(np.isfinite(s_arr)) and np.min(s_arr) >= _DESK_FLOOR):
        raise ValueError(f"s must be finite and >= {_DESK_FLOOR:g} (desk range)")
    u = np.minimum(s_arr.ravel(), _decay_point(m)) - _DESK_FLOOR
    block, local = np.divmod(u, _LAW_PANELS)  # fmod: exact, 0 <= local < 5
    blocks, slot = np.unique(block, return_inverse=True)
    coef = np.hstack([_law_block(m, int(k)) for k in blocks])
    panel = local.astype(np.intp)
    law = _clenshaw(coef, _LAW_PANELS * slot + panel, 4.0 * (local - panel) - 2.0)
    # F is a law; the interpolant's roundoff steps out of [0, 1] to -9e-28
    # near s = -9 (m = 1), where F itself is 1e-26, and to 1 + 1.6e-15
    law = np.clip(law, 0.0, 1.0).reshape(s_arr.shape) ** n
    return float(law) if law.ndim == 0 else law
