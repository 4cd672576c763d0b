"""Dispersion analysis: Fermi seas, limit densities, limit shapes and edge data.

Everything in this module is driven by the even, 2pi-periodic trigonometric
polynomial

    D(phi) = sum_r 2 r gamma_r cos(r phi),

built from a finite sequence of real hopping weights gamma_1..gamma_R.  For a
level x, the Fermi sea is the closed set {phi : D(phi) >= x}; by evenness it is
determined by its trace on [0, pi], which we store as a sorted even-length list
of boundary angles 0 <= chi_1 < chi_2 < ... <= pi (the union of
[chi_1, chi_2], [chi_3, chi_4], ... is the sea on [0, pi]).  The number of
"cuts" is the number of maximal arcs the symmetrised sea occupies on the unit
circle; arcs through 0 or pi are single arcs, so boundaries there do not open
cuts.

Conventions for degenerate levels:

* a level touching a local extremum of D from outside (e.g. x = max D) yields a
  zero-width interval; it is recorded in ``FermiSea.tangential`` and opens no
  cut;
* a level touching a local minimum from inside (a sea about to split) leaves
  the interval connected; the pinch angle is likewise recorded as tangential;
* a level through an inflection critical point (D' vanishing without changing
  sign) crosses there: the point is a boundary, not a tangency.

Root finding works on the monotone segments cut out by the critical points of
D.  With y = cos(phi), D(phi) = p(y) for the Chebyshev series
p = sum_r 2 r gamma_r T_r, so D'(phi) = -sin(phi) p'(y): the critical points
are 0, pi and the arccos of the real roots of p' in (-1, 1), all of them
eigenvalues of one colleague matrix (Trefethen, ATAP, ch. 18), so none can be
missed.  Roots near y = +-1 whose D value equals the endpoint's to roundoff
merge into the endpoint: arccos magnifies a root at 1 - 1e-16 into an angle of
1.5e-8, and the roundoff split of a multiple root at y = 1 (a maximizer of
order m >= 3 at phi = 0) into one near 1e-4.  On each segment one guarded
Newton iteration (``_polish_root``) finds the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.chebyshev import chebder, chebroots, chebtrim

from .errors import DegenerateEdge, SolverFailure, UnsupportedEdge

ROOT_RESIDUAL_TOL = 1e-12      # |D(chi) - x| after polishing, per unit amplitude
TANGENT_SLOPE_TOL = 1e-8       # |D'(chi)| under this, per unit D' scale: a tangential root
DERIV_ZERO_REL_TOL = 1e-9      # relative tolerance for "derivative vanishes"
CRIT_MERGE_REL_TOL = 1e-14     # |D(c) - D(endpoint)| that merges c into the endpoint
TIE_D_REL_TOL = 1e-6           # relative spread of tied maximizers' d that law_order allows
_MAX_SOLVER_STEPS = 200        # bisection alone ends well inside this
WAVE_CACHE_ENTRIES = 2 ** 16   # r x phi entries of the largest cached wave, 512 KiB


@dataclass(frozen=True)
class HoppingCoefficients:
    """Finite real hopping weights plus the coupling strength.

    Trailing zero weights are trimmed.  Every construction checks the model:
    the weights must be finite with a finite amplitude sum_r 2 r |gamma_r|
    of D, and ``theta`` finite and >= 0, where theta = 0 is the domain-wall
    limit; ValueError otherwise.  The geometric operations in this module
    ignore ``theta``.
    """

    gammas: tuple = ()
    theta: float = 1.0

    def __post_init__(self):
        g = tuple(float(v) for v in self.gammas)
        while g and g[-1] == 0.0:
            g = g[:-1]
        object.__setattr__(self, "gammas", g)
        object.__setattr__(self, "theta", float(self.theta))
        # nan or inf for a non-finite weight, inf where finite ones overflow
        if not math.isfinite(_derivative_scale(self, 0)):
            raise ValueError(f"hopping weights must be finite, and so must the amplitude "
                             f"sum_r 2 r |gamma_r| of D; got gamma={g}")
        if not (self.theta >= 0.0 and math.isfinite(self.theta)):
            raise ValueError("theta must be a nonnegative real for measure/kernel "
                             f"operations, got theta={self.theta!r}")

    @property
    def degree(self):
        return len(self.gammas)

    def miwa_times(self):
        """Miwa times theta*gamma_r driving the measure side."""
        return tuple(self.theta * g for g in self.gammas)

    def log_symbol(self, phi):
        """2 theta sum_r (-1)^(r-1) gamma_r cos(r phi), scalar, array or
        ``_AngleGrid`` phi.

        The log of both the Toeplitz symbol of the edge law and the
        one-angle weight of the unitary matrix model, by ``_harmonics``.
        """
        return _harmonics([2.0 * self.theta * (-1.0) ** (r - 1) * g
                           for r, g in enumerate(self.gammas, start=1)], phi)

    def check_symbol_amplitude(self):
        """Refuse, with a ValueError naming theta, a coupling whose symbol
        amplitude 2 theta sum_r |gamma_r| overflows: ``log_symbol`` would
        read inf * 0 and every angle scan after it NaN."""
        if not math.isfinite(2.0 * self.theta * sum(map(abs, self.gammas))):
            raise ValueError(f"theta={self.theta!r} with gamma={self.gammas!r} gives "
                             "a symbol amplitude past the largest float")

    def szego_constant(self):
        """theta^2 sum_r r gamma_r^2: strong Szego limit of log det T_ell."""
        return sum(r * (self.theta * g) ** 2
                   for r, g in enumerate(self.gammas, start=1))


@dataclass(frozen=True)
class FermiSea:
    """Fermi sea at level x, stored through its boundary angles on [0, pi]."""

    x: float
    boundaries: tuple
    cuts: int
    tangential: tuple = ()

    @property
    def intervals(self):
        """Pairs (a, b) whose union is the sea intersected with [0, pi]."""
        b = self.boundaries
        return tuple((b[i], b[i + 1]) for i in range(0, len(b), 2))

    @property
    def is_empty(self):
        return not self.boundaries

    @property
    def is_full(self):
        return self.boundaries == (0.0, math.pi)


@dataclass(frozen=True)
class Maximizer:
    """One maximizer of D: angle, multicriticality order and local constant."""

    chi_b: float
    m: int
    d: float

    @property
    def interior(self):
        return 0.0 < self.chi_b < math.pi


@dataclass(frozen=True)
class EdgeProfile:
    """Right-edge data: b = max D, b_tilde = -min D and the maximizers of D."""

    b: float
    b_tilde: float
    maximizers: tuple

    @property
    def n_cuts(self):
        """Cuts of the sea just below b: two per interior maximizer, one at 0 or pi."""
        return sum(2 if mx.interior else 1 for mx in self.maximizers)

    @property
    def principal(self):
        """Maximizer with the lowest order m; it sets the edge scaling."""
        return min(self.maximizers, key=lambda mx: mx.m)

    @property
    def law_order(self):
        """The order m shared by every maximizer: the edge law is F_{2m+1}^n_cuts.

        Maximizers of different orders, or of one order with constants d
        more than TIE_D_REL_TOL apart (each edge then fluctuates on its own
        scale), tie in no power of one F_{2m+1}; that edge raises
        UnsupportedEdge, naming the orders or the constants.
        """
        orders = sorted({mx.m for mx in self.maximizers})
        if len(orders) > 1:
            raise UnsupportedEdge(
                f"maximizers of orders {orders} tie at the edge: its limit "
                "law is no power of one F_{2m+1}")
        ds = [mx.d for mx in self.maximizers]
        if max(ds) - min(ds) > TIE_D_REL_TOL * max(map(abs, ds)):
            raise UnsupportedEdge(
                f"maximizers with constants d = {sorted(ds)} tie at the edge: "
                "each has its own scale, so the limit law is no power of one "
                "F_{2m+1}")
        return orders[0]

    def scale(self, theta):
        """Edge fluctuation scale (d theta)^(1/(2m+1)) of the principal maximizer."""
        if not theta > 0.0:
            raise ValueError(f"the edge scaling needs theta > 0, got theta={theta!r}")
        return (self.principal.d * theta) ** (1.0 / (2 * self.principal.m + 1))

    def s_of(self, ell, theta):
        """Scaled position (ell - b theta) / scale(theta) of scalar or array ell."""
        return (ell - self.b * theta) / self.scale(theta)

    def lattice_of(self, s, theta):
        """Lattice point ell with P(k_max < ell) the law of the scaled maximum at s.

        k_max sits on the half-integer lattice, so its CDF at s is
        P(k_max <= h) for the largest half-integer h at or below the image
        b theta + s scale(theta); that is P(k_max < ell) with
        ell = floor(b theta + s scale + 1/2).  Scalar s gives an int, an
        array an int64 array.
        """
        ell = np.floor(self.b * theta + np.asarray(s) * self.scale(theta) + 0.5)
        return int(ell) if ell.ndim == 0 else ell.astype(np.int64)


@dataclass(frozen=True)
class _AngleGrid:
    """A grid of ``size`` angles that every call builds bit for bit the same:
    the FFT grid 2 pi j / size, j < size, or (``closed``) linspace(0, pi, size).

    ``_harmonics`` reads its waves from a cache, so a log-symbol or phase on
    a fixed grid costs one matrix product.
    """

    size: int
    closed: bool = False

    def angles(self):
        if self.closed:
            return np.linspace(0.0, math.pi, self.size)
        return 2.0 * math.pi * np.arange(self.size) / self.size


def _wave(phi, count, parity):
    """cos(r phi) (parity 0) or sin(r phi) (1), r = 1..count along the first
    axis, for a 1-d array ``phi``."""
    return (np.cos, np.sin)[parity](np.multiply.outer(np.arange(1.0, count + 1.0), phi))


@lru_cache(maxsize=16)
def _cached_wave(grid, count, parity):
    wave = _wave(grid.angles(), count, parity)
    wave.flags.writeable = False
    return wave


def _grid_wave(grid, count, parity):
    """``_wave`` on an ``_AngleGrid``: cached and read-only while it has at
    most WAVE_CACHE_ENTRIES entries, so the 16 cached waves hold at most
    8 MiB; built afresh past that (a 2^20-point coefficient band)."""
    if count * grid.size > WAVE_CACHE_ENTRIES:
        return _wave(grid.angles(), count, parity)
    return _cached_wave(grid, count, parity)


def _harmonics(amplitudes, phi, order=0):
    """d^order/dphi^order of sum_r a_r cos(r phi), r = 1, 2, ..., for order >= -1.

    d^p/dphi^p cos(r phi) = r^p cos(r phi + p pi/2); order -1 is the
    antiderivative sum_r a_r sin(r phi) / r, zero at phi = 0.  One outer
    product r phi, one cos or sin of it and one matrix product with the
    scaled amplitudes, which order 0 leaves exact.  r runs along the first
    axis: an inner loop over the few r would cost as much as the cos on
    long arrays.  Scalar phi gives a float, an array or an ``_AngleGrid``
    (whose cos or sin is cached) an array.
    """
    if isinstance(phi, _AngleGrid):
        wave, shape = _grid_wave(phi, len(amplitudes), order % 2), (phi.size,)
    else:
        phi = np.asarray(phi, dtype=float)
        wave, shape = _wave(phi.ravel(), len(amplitudes), order % 2), phi.shape
    sign = (1.0, -1.0, -1.0, 1.0)[order % 4]
    total = (np.array([sign * r ** order * a for r, a in enumerate(amplitudes, start=1)])
             @ wave).reshape(shape)
    return total if shape else float(total)


def eval_dispersion(coeffs, phi, order=0):
    """D, one of its derivatives, or (order -1) its antiderivative G.

    D(phi) = sum_r 2 r gamma_r cos(r phi), so the p-th derivative is the
    trigonometric sum of 2 gamma_r r^(p+1) cos(r phi + p pi/2), and
    order -1 gives G(phi) = sum_r 2 gamma_r sin(r phi), with G' = D and
    G(0) = 0.  Accepts scalar, array or ``_AngleGrid`` ``phi``; orders outside
    -1 .. 2 R + 2 raise ValueError.
    """
    p = int(order)
    if p < -1:
        raise ValueError("order must be -1 (the antiderivative) or more")
    if p > 2 * len(coeffs.gammas) + 2:
        raise ValueError("derivative order beyond the supported cap")
    return _harmonics([2.0 * r * g for r, g in enumerate(coeffs.gammas, start=1)],
                      phi, p)


def _derivative_scale(coeffs, order):
    """Natural magnitude of D^(order): sum of its coefficient moduli."""
    return sum(abs(2.0 * g) * float(r) ** (order + 1)
               for r, g in enumerate(coeffs.gammas, start=1))


@lru_cache(maxsize=None)
def _critical_points(gammas):
    """Sorted critical points of D on [0, pi], endpoints included, and D there.

    The interior points are the arccos of the real roots of p' in (-1, 1)
    (see the module docstring) after one Newton step on D' in phi, which
    undoes the magnification by arccos.  A step is kept only where it
    lowers |D'|: at a multiple root of p' both D' and D'' are roundoff, and
    their ratio can throw the point far from any critical point.
    Chebyshev coefficients under roundoff are chopped first: a tiny leading
    one wrecks the colleague matrix.
    """
    coeffs = HoppingCoefficients(gammas)
    scale = _derivative_scale(coeffs, 0)
    series = chebtrim([0.0] + [2.0 * r * g for r, g in enumerate(gammas, start=1)],
                      np.finfo(float).eps * scale)
    ys = chebroots(chebder(series))
    phis = np.arccos(ys[(ys.imag == 0.0) & (np.abs(ys) < 1.0)].real)
    d1 = eval_dispersion(coeffs, phis, order=1)
    d2 = eval_dispersion(coeffs, phis, order=2)
    stepped = np.clip(phis - np.divide(d1, d2, out=np.zeros_like(phis), where=d2 != 0.0),
                      0.0, math.pi)
    better = np.abs(eval_dispersion(coeffs, stepped, order=1)) < np.abs(d1)
    phis = np.unique(np.concatenate(([0.0, math.pi], np.where(better, stepped, phis))))
    vals = eval_dispersion(coeffs, phis)
    # D is monotone between neighbouring critical points, so a run of them
    # next to an endpoint with its value to roundoff lies on a flat stretch
    tol = CRIT_MERGE_REL_TOL * scale
    lo, hi = 1, len(phis) - 1
    while lo < hi and abs(vals[lo] - vals[0]) <= tol:
        lo += 1
    while hi > lo and abs(vals[hi - 1] - vals[-1]) <= tol:
        hi -= 1
    keep = [0, *range(lo, hi), len(phis) - 1]
    return tuple(phis[keep].tolist()), tuple(vals[keep].tolist())


def global_extrema(coeffs):
    """(b, b_tilde) with b = max D and b_tilde = -min D over [0, pi]."""
    _, vals = _critical_points(coeffs.gammas)
    return max(vals), -min(vals)


def _polish_root(coeffs, x, lo, hi, rising):
    """Root of D - x on [lo, hi], where D is monotone (increasing if ``rising``).

    Guarded Newton from the midpoint: each iterate shrinks the bracket by
    the sign of D - x there, and a step that leaves the bracket bisects it.
    It stops once a step is a few ulps or the bracket ends are adjacent
    doubles.  The root must meet ROOT_RESIDUAL_TOL, or D's own roundoff
    4 eps sum_r 2 r |gamma_r| where that is larger, unless D' is under
    TANGENT_SLOPE_TOL there; SolverFailure otherwise.  Below unit scale
    both tolerances shrink with it (D's amplitude sum_r 2 r |gamma_r| for
    the residual, sum_r 2 r^2 |gamma_r| for D'), so the verdict is the
    same for 2^k gamma at 2^k x while those scales stay under 1.
    """
    f = lambda t: eval_dispersion(coeffs, t) - x
    root = 0.5 * (lo + hi)
    for _ in range(_MAX_SOLVER_STEPS):
        value = f(root)
        if value == 0.0:
            break
        if (value > 0.0) == rising:
            hi = root
        else:
            lo = root
        d1 = eval_dispersion(coeffs, root, order=1)
        newton = root - value / d1 if d1 != 0.0 else math.nan
        if abs(newton - root) <= 4.0 * math.ulp(root):
            root = min(max(newton, lo), hi)
            break
        root = newton if lo < newton < hi else 0.5 * (lo + hi)
        if math.nextafter(lo, hi) >= hi:
            break
    amplitude = _derivative_scale(coeffs, 0)
    gate = max(ROOT_RESIDUAL_TOL * min(1.0, amplitude),
               4.0 * np.finfo(float).eps * amplitude)
    if abs(f(root)) > gate and abs(eval_dispersion(coeffs, root, order=1)) > \
            TANGENT_SLOPE_TOL * min(1.0, _derivative_scale(coeffs, 1)):
        raise SolverFailure(
            f"boundary residual {abs(f(root)):.3e} at chi={root!r} for x={x!r}")
    return root


def _count_cuts(intervals):
    """Arcs of the symmetrised sea on the unit circle."""
    if not intervals:
        return 0
    if len(intervals) == 1 and intervals[0][0] <= 0.0 and intervals[0][1] >= math.pi:
        return 1  # whole circle
    n = 2 * len(intervals)
    if intervals[0][0] == 0.0:
        n -= 1
    if intervals[-1][1] == math.pi:
        n -= 1
    return n


def _is_extremum(crit_vals, i, tol):
    """Whether D' changes sign at critical point i.

    D is monotone between critical points, so D' keeps its sign exactly when
    the nearest critical values more than ``tol`` from D there, one on each
    side, lie on opposite sides of it.  The endpoints 0 and pi are always
    extrema, by evenness.
    """
    v = crit_vals[i]
    left = [u - v for u in crit_vals[:i] if abs(u - v) > tol]
    right = [u - v for u in crit_vals[i + 1:] if abs(u - v) > tol]
    return not (left and right and (left[-1] > 0.0) != (right[0] > 0.0))


def fermi_sea(coeffs, x):
    """Fermi sea {D >= x} at level x.

    Returns the empty sea for x above max D and the full circle for x below
    min D; otherwise solves D(chi) = x on every monotone segment of D and
    assembles the intervals by the sign of D - x between consecutive roots.
    A critical value within 1e-10 max|D(crit)| of x touches the level: with
    signs compared, not multiplied, 2^k gamma at 2^k x gives the same sea.
    A non-finite x raises ValueError.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"the level x must be finite, got {x!r}")
    crit, crit_vals = _critical_points(coeffs.gammas)
    touch_tol = 1e-10 * max(abs(v) for v in crit_vals)

    # A segment with an end at the level holds no crossing of its own: an
    # extremum there only touches the level, through an inflection the
    # critical point itself is the boundary, and the end's sign against the
    # level is roundoff that would place a spurious root next to it.
    roots = []
    for i in range(len(crit) - 1):
        fa, fb = crit_vals[i] - x, crit_vals[i + 1] - x
        if (fa > 0.0) != (fb > 0.0) and min(abs(fa), abs(fb)) > touch_tol:
            roots.append(_polish_root(coeffs, x, crit[i], crit[i + 1], fb > 0.0))

    at_level = [i for i, v in enumerate(crit_vals) if abs(v - x) <= touch_tol]
    tangential = []
    for i in at_level:
        (tangential if _is_extremum(crit_vals, i, touch_tol) else roots).append(crit[i])
    points = sorted(set([0.0] + roots + [math.pi]))

    intervals = []
    for i in range(len(points) - 1):
        a, b = points[i], points[i + 1]
        mid = 0.5 * (a + b)
        if eval_dispersion(coeffs, mid) - x > 0.0:
            if intervals and intervals[-1][1] == a:
                intervals[-1] = (intervals[-1][0], b)  # merge through a pinch
            else:
                intervals.append((a, b))

    boundaries = tuple(v for ab in intervals for v in ab)
    cuts = _count_cuts(intervals)
    return FermiSea(x=x, boundaries=boundaries, cuts=cuts,
                    tangential=tuple(tangential))


def limit_density(coeffs, x):
    """Limit density: alternating sum of Fermi-sea boundary angles over pi."""
    sea = fermi_sea(coeffs, x)
    rho = sum(b - a for a, b in sea.intervals) / math.pi
    return min(max(rho, 0.0), 1.0)


def limit_shape(coeffs, x):
    """Rescaled limit-shape profile Omega(x) = x + 2 * integral_x^b of the density.

    By the layer-cake identity the integral is (1/pi) int_0^pi (D - x)_+, and
    G(phi) = sum_r 2 gamma_r sin(r phi), ``eval_dispersion`` of order -1, is
    an antiderivative of D, so

        Omega(x) = x + (2/pi) sum_{(a, c) in sea(x)} [G(c) - G(a) - x (c - a)]

    exactly.  An empty sea gives Omega(x) = x, and the full sea below
    -b_tilde gives the frozen-side identity Omega(x) = -x by construction.
    """
    sea = fermi_sea(coeffs, x)
    area = sum(eval_dispersion(coeffs, c, order=-1) - eval_dispersion(coeffs, a, order=-1)
               - sea.x * (c - a) for a, c in sea.intervals)
    return sea.x + 2.0 * area / math.pi


def edge_profile(coeffs):
    """Locate all maximizers of D and their local edge data.

    The maximizers are the critical points within 1e-9 |b| of b = max D.
    For each maximizer chi_b the order m is the smallest integer with
    D^(2m)(chi_b) != 0 (detected against DERIV_ZERO_REL_TOL times the natural
    coefficient scale of that derivative), and d = -D^(2m)(chi_b)/(2m)!.
    Tolerances are relative (2^k gamma scales b, b_tilde, d by 2^k exactly);
    theta does not enter, so the profile is computed once per weight sequence.
    """
    return _edge_profile(coeffs.gammas)


@lru_cache(maxsize=None)
def _edge_profile(gammas):
    if not gammas:
        raise DegenerateEdge("dispersion is constant; no edge to analyse")
    coeffs = HoppingCoefficients(gammas)
    b, b_tilde = global_extrema(coeffs)
    crit, crit_vals = _critical_points(coeffs.gammas)
    maxima = [c for c, v in zip(crit, crit_vals) if abs(v - b) <= 1e-9 * abs(b)]

    maximizers = []
    for chi in maxima:
        m = None
        for cand in range(1, len(coeffs.gammas) + 2):
            val = eval_dispersion(coeffs, chi, order=2 * cand)
            if abs(val) >= DERIV_ZERO_REL_TOL * _derivative_scale(coeffs, 2 * cand):
                m = cand
                d2m = val
                break
        if m is None:
            raise DegenerateEdge(
                f"all even derivatives vanish at chi={chi!r}; dispersion degenerate")
        if d2m >= 0.0:
            raise SolverFailure(
                f"maximizer at chi={chi!r} has nonnegative D^(2m); detection failed")
        for p in range(1, 2 * m):
            if abs(eval_dispersion(coeffs, chi, order=p)) > \
                    1e-6 * _derivative_scale(coeffs, p):
                raise SolverFailure(
                    f"odd derivative {p} does not vanish at maximizer chi={chi!r}")
        d = -d2m / math.factorial(2 * m)
        maximizers.append(Maximizer(chi_b=chi, m=m, d=d))
    return EdgeProfile(b=b, b_tilde=b_tilde, maximizers=tuple(maximizers))
