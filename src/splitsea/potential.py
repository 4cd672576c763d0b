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
  the interval connected; the pinch angle is likewise recorded as tangential.

Root finding works on the monotone segments cut out by the critical points of
D, which are themselves located by a dense sign scan of D' (4096*R points on
[0, pi]) followed by bracketed refinement, so roots cannot be missed for the
finite-degree dispersions handled here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .errors import DegenerateEdge, SolverFailure

ROOT_RESIDUAL_TOL = 1e-12      # |D(chi) - x| after polishing
TANGENT_SLOPE_TOL = 1e-8       # |D'(chi)| below this marks a tangential root
DERIV_ZERO_REL_TOL = 1e-9      # relative tolerance for "derivative vanishes"


@dataclass(frozen=True)
class HoppingCoefficients:
    """Finite real hopping weights plus the coupling strength.

    Trailing zero weights are trimmed.  ``theta`` is only meaningful for the
    measure/kernel side of the package; the geometric operations in this
    module ignore it.
    """

    gammas: tuple = ()
    theta: float = 1.0

    def __post_init__(self):
        g = tuple(float(v) for v in self.gammas)
        if not all(math.isfinite(v) for v in g):
            raise ValueError(f"hopping weights must be finite; got {g}")
        while g and g[-1] == 0.0:
            g = g[:-1]
        object.__setattr__(self, "gammas", g)
        object.__setattr__(self, "theta", float(self.theta))

    @property
    def degree(self):
        return len(self.gammas)

    def require_theta(self):
        # theta = 0 is allowed as the exact degenerate (domain wall) limit
        if not self.theta >= 0.0 or not math.isfinite(self.theta):
            raise ValueError("theta must be a nonnegative real for measure/kernel operations")

    def miwa_times(self):
        """Miwa times theta*gamma_r driving the measure side."""
        return tuple(self.theta * g for g in self.gammas)


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
    """Right-edge data: b = max D, b_tilde = -min D, maximizers, cut count."""

    b: float
    b_tilde: float
    maximizers: tuple
    n_cuts: int

    @property
    def principal(self):
        """Maximizer with the lowest order m; it sets the edge scaling."""
        return min(self.maximizers, key=lambda mx: mx.m)


def eval_dispersion(coeffs, phi, order=0):
    """Evaluate D or one of its derivatives in closed form.

    d^p/dphi^p cos(r phi) = r^p cos(r phi + p pi/2), so every derivative is an
    explicit trigonometric sum.  Accepts scalar or array ``phi``.
    """
    p = int(order)
    if p < 0:
        raise ValueError("order must be nonnegative")
    if p > 2 * len(coeffs.gammas) + 2:
        raise ValueError("derivative order beyond the supported cap")
    phi_arr = np.asarray(phi, dtype=float)
    total = np.zeros_like(phi_arr)
    for r, g in enumerate(coeffs.gammas, start=1):
        if g == 0.0:
            continue
        k = p % 4
        if k == 0:
            osc = np.cos(r * phi_arr)
        elif k == 1:
            osc = -np.sin(r * phi_arr)
        elif k == 2:
            osc = -np.cos(r * phi_arr)
        else:
            osc = np.sin(r * phi_arr)
        total = total + 2.0 * g * float(r) ** (p + 1) * osc
    if np.isscalar(phi) or phi_arr.ndim == 0:
        return float(total)
    return total


def _derivative_scale(coeffs, order):
    """Natural magnitude of D^(order): sum of its coefficient moduli."""
    return sum(abs(2.0 * g) * float(r) ** (order + 1)
               for r, g in enumerate(coeffs.gammas, start=1))


@lru_cache(maxsize=None)
def _critical_points(gammas):
    """Sorted roots of D' on [0, pi], endpoints included (D' vanishes there)."""
    coeffs = HoppingCoefficients(gammas)
    if not gammas:
        return (0.0, math.pi)
    n = 4096 * len(gammas)
    grid = np.linspace(0.0, math.pi, n + 1)
    dvals = eval_dispersion(coeffs, grid, order=1)
    pts = [0.0]
    for i in range(n):
        a, b = grid[i], grid[i + 1]
        fa, fb = dvals[i], dvals[i + 1]
        if fa == 0.0 and 0.0 < a < math.pi:
            pts.append(a)
        elif fa * fb < 0.0:
            root = brentq(lambda t: eval_dispersion(coeffs, t, order=1),
                          a, b, xtol=1e-15, rtol=8.9e-16)
            if 0.0 < root < math.pi:
                pts.append(root)
    pts.append(math.pi)
    # dedupe near-coincident refinements
    out = [pts[0]]
    for p in sorted(pts[1:]):
        if p - out[-1] > 1e-12:
            out.append(p)
    return tuple(out)


@lru_cache(maxsize=None)
def _extrema(gammas):
    coeffs = HoppingCoefficients(gammas)
    crit = _critical_points(gammas)
    vals = [eval_dispersion(coeffs, c) for c in crit]
    return max(vals), -min(vals)


def global_extrema(coeffs):
    """(b, b_tilde) with b = max D and b_tilde = -min D over [0, pi]."""
    return _extrema(coeffs.gammas)


def _polish_root(coeffs, x, lo, hi):
    """Bracketed root of D - x on [lo, hi], polished to ROOT_RESIDUAL_TOL."""
    f = lambda t: eval_dispersion(coeffs, t) - x
    root = brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16)
    for _ in range(3):
        if abs(f(root)) <= ROOT_RESIDUAL_TOL:
            break
        d1 = eval_dispersion(coeffs, root, order=1)
        if abs(d1) < TANGENT_SLOPE_TOL:
            break
        step = f(root) / d1
        cand = root - step
        if lo - 1e-12 <= cand <= hi + 1e-12:
            root = min(max(cand, 0.0), math.pi)
    if abs(f(root)) > ROOT_RESIDUAL_TOL and \
            abs(eval_dispersion(coeffs, root, order=1)) > TANGENT_SLOPE_TOL:
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


def fermi_sea(coeffs, x):
    """Fermi sea {D >= x} at level x.

    Returns the empty sea for x above max D and the full circle for x below
    min D; otherwise solves D(chi) = x on every monotone segment of D and
    assembles the intervals by the sign of D - x between consecutive roots.
    """
    x = float(x)
    crit = _critical_points(coeffs.gammas)
    crit_vals = [eval_dispersion(coeffs, c) for c in crit]
    scale = max(1.0, max(abs(v) for v in crit_vals)) if crit_vals else 1.0
    touch_tol = 1e-10 * scale

    roots = []
    tangential = []
    for i in range(len(crit) - 1):
        a, b = crit[i], crit[i + 1]
        fa, fb = crit_vals[i] - x, crit_vals[i + 1] - x
        if fa * fb < 0.0:
            roots.append(_polish_root(coeffs, x, a, b))
    for c, v in zip(crit, crit_vals):
        if abs(v - x) <= touch_tol:
            tangential.append(c)

    # A critical point at the level itself is not a crossing; drop crossings
    # that collapsed onto a tangential point.
    roots = [r for r in roots
             if all(abs(r - t) > 1e-10 for t in tangential)]
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


def _kink_levels(gammas):
    """Critical values of D: the x where the cut structure can change."""
    coeffs = HoppingCoefficients(gammas)
    return sorted(set(eval_dispersion(coeffs, c)
                      for c in _critical_points(gammas)))


def limit_shape(coeffs, x):
    """Rescaled limit-shape profile Omega(x) = x + 2 * integral_x^b of the density.

    The quadrature runs over the whole requested range (including any frozen
    stretch where the density is exactly 1), so the known frozen-side identity
    Omega(x) = -x for x <= -b_tilde doubles as a consistency check in tests.
    """
    x = float(x)
    b, _ = global_extrema(coeffs)
    if x >= b:
        return x
    kinks = [v for v in _kink_levels(coeffs.gammas) if x < v < b]
    integral, _err = quad(lambda t: limit_density(coeffs, t), x, b,
                          points=kinks or None, limit=200,
                          epsabs=1e-11, epsrel=1e-11)
    return x + 2.0 * integral


def edge_profile(coeffs):
    """Locate all maximizers of D and their local edge data.

    For each maximizer chi_b the order m is the smallest integer with
    D^(2m)(chi_b) != 0 (detected against DERIV_ZERO_REL_TOL times the natural
    coefficient scale of that derivative), and d = -D^(2m)(chi_b)/(2m)!.
    The cut count is read off the sea at b - eps.
    """
    if not coeffs.gammas:
        raise DegenerateEdge("dispersion is constant; no edge to analyse")
    b, b_tilde = global_extrema(coeffs)
    crit = _critical_points(coeffs.gammas)
    scale_b = max(1.0, abs(b))
    maxima = [c for c in crit
              if abs(eval_dispersion(coeffs, c) - b) <= 1e-9 * scale_b]

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
                    1e-6 * max(1.0, _derivative_scale(coeffs, p)):
                raise SolverFailure(
                    f"odd derivative {p} does not vanish at maximizer chi={chi!r}")
        d = -d2m / math.factorial(2 * m)
        maximizers.append(Maximizer(chi_b=chi, m=m, d=d))

    eps = 1e-6 * max(1.0, b)
    n_cuts = fermi_sea(coeffs, b - eps).cuts
    return EdgeProfile(b=b, b_tilde=b_tilde, maximizers=tuple(maximizers),
                       n_cuts=n_cuts)


def quadratic_fermi_sea_oracle(gamma2, x):
    """Closed-form Fermi sea for gamma = (1, gamma2), all higher weights zero.

    The boundaries are arccos of the roots of y -> 8 g y^2 + 2 y - 4 g - x,
    split into three regimes by g = +-1/8.  Serves as an independent oracle
    for :func:`fermi_sea` on this two-parameter family.
    """
    g = float(gamma2)
    x = float(x)

    def sea(intervals, tangential=()):
        bounds = tuple(v for ab in intervals for v in ab)
        return FermiSea(x=x, boundaries=bounds, cuts=_count_cuts(intervals),
                        tangential=tuple(tangential))

    if g == 0.0:
        if x < -2.0:
            return sea([(0.0, math.pi)])
        if x >= 2.0:
            return sea([], tangential=(0.0,) if x == 2.0 else ())
        return sea([(0.0, math.acos(x / 2.0))],
                   tangential=(math.pi,) if x == -2.0 else ())

    disc = max(1.0 + 8.0 * x * g + 32.0 * g * g, 0.0)

    def _acos(y):
        return math.acos(min(1.0, max(-1.0, y)))

    def y_plus():
        return (-1.0 + math.sqrt(disc)) / (8.0 * g)

    def y_minus():
        return (-1.0 - math.sqrt(disc)) / (8.0 * g)

    if -0.125 <= g <= 0.125:
        # single sea throughout the bulk [4g-2, 4g+2]
        if x < 4.0 * g - 2.0:
            return sea([(0.0, math.pi)])
        if x >= 4.0 * g + 2.0:
            return sea([], tangential=(0.0,) if x == 4.0 * g + 2.0 else ())
        tang = (math.pi,) if x == 4.0 * g - 2.0 else ()
        return sea([(0.0, _acos(y_plus()))], tangential=tang)

    if g < -0.125:
        # split at the right edge: two cuts on (4g+2, b), b = -(1+32g^2)/(8g)
        b = -(1.0 + 32.0 * g * g) / (8.0 * g)
        if x < 4.0 * g - 2.0:
            return sea([(0.0, math.pi)])
        if x >= b:
            chi_b = _acos(-1.0 / (8.0 * g))
            return sea([], tangential=(chi_b,) if x == b else ())
        if x <= 4.0 * g + 2.0:
            tang = []
            if x == 4.0 * g - 2.0:
                tang.append(math.pi)
            if x == 4.0 * g + 2.0:
                tang.append(0.0)
            return sea([(0.0, _acos(y_plus()))], tangential=tang)
        return sea([(_acos(y_minus()), _acos(y_plus()))])

    # g > 1/8: split at the left edge; two cuts on (min D, 4g-2)
    lo = -(1.0 + 32.0 * g * g) / (8.0 * g)
    if x <= lo:
        chi_min = _acos(-1.0 / (8.0 * g))
        return sea([(0.0, math.pi)], tangential=(chi_min,) if x == lo else ())
    if x >= 4.0 * g + 2.0:
        return sea([], tangential=(0.0,) if x == 4.0 * g + 2.0 else ())
    if x >= 4.0 * g - 2.0:
        tang = (math.pi,) if x == 4.0 * g - 2.0 else ()
        return sea([(0.0, _acos(y_plus()))], tangential=tang)
    return sea([(0.0, _acos(y_plus())), (_acos(y_minus()), math.pi)])
