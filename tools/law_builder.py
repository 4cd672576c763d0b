"""Reference builder of the F_{2m+1} law blocks that ship in law_blocks.npz.

Not part of the package: ``splitsea.airy`` only reads the blocks, and
``tools/regen_law_blocks.py`` writes them with ``_build_laws``.  The tests
rebuild every shipped block with it and compare.

``_law_table`` computes F on a whole s-grid as one table: composite panels
whose edges are the grid points, plus the tail [s_max, s_max + L] in unit
panels, with the nodes ordered from the top down so that every F(s_j) is a
leading minor of I - W^1/2 A W^1/2.  That kernel has low numerical rank
(Bornemann 2010): in the r leading eigenvectors of the weighted factor's
V x V Gram (r from 8 to 75 against up to 1300 nodes) each minor is the
determinant of one r x r matrix, with the dropped trace bounding the error.
A second table with twice the nodes on every panel and twice L certifies it
to TABLE_TOL, and the finer one is returned.  L is the cut of the per-point
oracle, ``splitsea.airy._fredholm_cut``.  Where the stacked Cholesky of the
compressed table fails, the minors come from ``splitsea.edge._log_minors``,
the leading-minor routine of the exact lattice tables.

F is analytic in s (Bornemann 2010), so a law block holds degree-16
Chebyshev interpolants of F_{2m+1} on the five unit panels from -12 + 5k.
``_build_law_block`` fills one from one such table, and it certifies what it
builds: every panel's last three coefficients (the chopping rule of Aurentz
and Trefethen 2017) must be under LAW_TAIL_TOL, and the interpolant must
reproduce the table at two check points per panel to LAW_CHECK_TOL, or it
raises NodeCountInsufficient.  ``_build_laws`` stacks the blocks of one
order over the desk range [-12, decay point], as the law file holds them.
"""

from __future__ import annotations

import math

import numpy as np

from splitsea.airy import (LAW_CHECK_TOL, TABLE_TOL, _DESK_FLOOR, _LAW_PANELS,
                           _block_count, _cheb_coefficients, _cheb_points,
                           _clenshaw, _decay_point, _fredholm_cut,
                           _gauss_legendre, _kernel_factor)
from splitsea.edge import _log_minors
from splitsea.errors import NodeCountInsufficient

LAW_TAIL_TOL = 1e-11         # most a law block panel's last 3 coefficients reach
RANK_RTOL = 1e-17            # kept eigenvalues of the table's Gram, relative
RANK_DROP_TOL = 1e-12        # most kernel trace the compressed table may drop


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
    top = s[-1] + refine * _fredholm_cut(m)
    x, w, above = _law_nodes(np.concatenate(([top], s[::-1])), refine)
    factor = _kernel_factor(m, x)
    factor *= np.sqrt(w)[:, None]
    return factor, above



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
    for J grid points.  Every product and factor runs in numpy's BLAS, the
    package's one thread pool: interleaving them with a second BLAS pool
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


def _build_law_block(m, k):
    """Chebyshev coefficients of F_{2m+1} on the _LAW_PANELS unit panels from
    _DESK_FLOOR + _LAW_PANELS k; the reference builder of the law blocks.

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


def _build_laws(m):
    """The decay point of order m and its law blocks over the desk range,
    stacked as the law file holds them, from the reference builder."""
    decay = _decay_point(m)
    return decay, np.stack([_build_law_block(m, k)
                            for k in range(_block_count(decay))])
