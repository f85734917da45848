"""Euclidean rearrangement of radial functions and Cavalieri bookkeeping.

A nonnegative nonincreasing radial function u on a model space is pushed to
its Euclidean rearrangement u* by the volume-radius change of variable
rho(r) = (vol(B_r)/omega_N)^{1/N}: the function on R^N with u*(rho(r)) = u(r).
By construction every superlevel set keeps its measure, so Lq norms are
preserved (Cavalieri) while gradient norms can only shrink modulo the AVR
factor (Polya-Szego).  This module computes the rearrangement itself, both
norms by two independent routes (the Cavalieri one integrates the superlevel
volumes V(t) = vol(B_{r(t)})), and the layer-cake identity for radial
integrals.  Ball volumes and sphere measures come from the space's own
``volume`` and ``content``.

Functions are supported on [0, r_end] of their grid and carry their value
and slope as callables; u* evaluates u's own callables through the inverse
volume radius.  The grid is the profile's break list: u is smooth between
nodes, so every norm is a composite Gauss rule on the grid (see
``isosharp.quadrature``).  The layer-cake identity, whose integrands are
vectorized callables smooth on (0, R], takes the same rule on equal panels
joined with the space's breaks.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvariantViolation
from .quadrature import Hermite, dyadic_breaks, gauss_on_segments
from .spaces import Euclidean, ModelSpace, vol_ball
from .specfun import omega

_LAYER_PANELS = 16   # equal Gauss panels on [0, R] for the layer-cake routes


class RadialFunction:
    """Nonnegative nonincreasing radial profile u(r) on [0, r_end]: its grid
    samples and the callables ``value_fn`` and ``deriv_fn`` of its value and
    slope, float arrays in and out.

    The samples locate the levels; every norm evaluates the callables.
    The grid is the profile's break list: the quadratures take u to be
    smooth between consecutive nodes, so every kink of a callable (a
    truncation, the end of a plateau) has to be a node.
    The function is treated as compactly supported in [0, r_end]: for norms
    to be exact the last sample should be zero (or negligibly small).
    """

    def __init__(self, r_grid, values, value_fn, deriv_fn):
        r = np.asarray(r_grid, dtype=float)
        v = np.asarray(values, dtype=float)
        if r.ndim != 1 or r.shape != v.shape or r.size < 2:
            raise DomainError("need matching 1-D grids of length >= 2")
        if (r[0] != 0.0 or not np.all(np.isfinite(r))
                or np.any(np.diff(r) <= 0.0)):
            raise DomainError("r_grid must be finite and ascend strictly "
                              "from 0")
        if not np.all(np.isfinite(v)) or np.any(v < 0.0):
            raise DomainError("values must be finite and nonnegative")
        scale = max(1.0, float(v[0]))
        if np.any(np.diff(v) > 1e-12 * scale):
            raise DomainError("values must be nonincreasing")
        probe = np.asarray(value_fn(r), dtype=float)
        scale = max(1.0, float(np.max(np.abs(probe), initial=0.0)))
        if np.any(np.diff(probe) > 1e-10 * scale):
            raise InvariantViolation(
                "profile is not nonincreasing on its own grid")
        self.r_grid, self.values, self.r_end = r, v, float(r[-1])
        self.value_fn, self.deriv_fn = value_fn, deriv_fn

    def value(self, r):
        return self.value_fn(np.asarray(r, dtype=float))

    def deriv(self, r):
        return self.deriv_fn(np.asarray(r, dtype=float))

    def node_slopes(self) -> np.ndarray:
        return np.asarray(self.deriv_fn(self.r_grid), dtype=float)


def _level_radii(u: RadialFunction, t) -> np.ndarray:
    """r(t) = sup{r : u(r) > t} on [0, r_end] for a level or an array of
    levels, by bisection.

    The node values bracket each r(t) between two grid nodes (0 when
    u(0) <= t, r_end when u(r_end) > t); all levels are then bisected
    together on the profile, in as many halvings as the widest bracket
    needs to reach 1e-13 r_end.
    """
    t = np.asarray(t, dtype=float)
    # the nodes valued above t are the first k of the grid
    k = np.searchsorted(-u.values, -t)
    lo = u.r_grid[np.maximum(k - 1, 0)]
    width = u.r_grid[np.minimum(k, u.values.size - 1)] - lo
    tol = 1e-13 * u.r_end
    t = t[()]   # a single level compares as a numpy scalar: cheaper per step
    for _ in range(int(np.ceil(np.log2(max(np.max(width), tol) / tol)))):
        width = 0.5 * width
        lo = lo + width * (u.value(lo + width) > t)
    return lo + 0.5 * width


def euclidean_rearrangement(space: ModelSpace, u: RadialFunction) -> RadialFunction:
    """The equimeasurable radial profile u* = u o R on Euclidean(N), R the
    inverse of the volume radius s(r) = (vol(B_r)/omega_N)^{1/N}: the cubic
    Hermite through the nodes (s_k, r_k) with the exact slopes dr/ds =
    N V / (s A), pole_density^{-1/N} at s = 0.  u's own callables are
    evaluated, so u*' = u'(R) R' keeps u's kinks."""
    N = space.effective_dimension
    omega_N = omega(N)
    if omega_N < sys.float_info.min:    # the volume radii divide by it
        raise DomainError(f"omega_N = {omega_N!r} at N = {N!r} is not a "
                          "normal double")
    r = u.r_grid
    vols = space.volume(r)
    s = (np.clip(vols, 0.0, None) / omega_N) ** (1.0 / N)
    s[0] = 0.0
    # the slopes divide by s, which collapses to 0 where V underflows
    if not (np.all(np.isfinite(s)) and np.all(np.diff(s) > 0.0)):
        raise DomainError(f"the volume radii of the profile's grid do not "
                          f"ascend strictly at N = {N!r}")
    # V / A <= r (A rises) cannot overflow where s A might
    slopes = np.concatenate([[space.pole_density ** (-1.0 / N)],
                             N * (vols[1:] / space.content(r[1:]) / s[1:])])
    radius = Hermite(s, r, slopes)

    def clamp(q, rq):   # R = r_end from s_end on; the cubic misses it
        return np.where(q < s[-1], np.minimum(rq, u.r_end), u.r_end)

    def value(q):
        return u.value_fn(clamp(q, radius(q)))

    def deriv(q):
        rq, dr = radius.jet(q)
        return np.where(q <= s[-1], u.deriv_fn(clamp(q, rq)) * dr, 0.0)

    return RadialFunction(s, u.values.copy(), value, deriv)


def _radial_integral(space: ModelSpace, u: RadialFunction, g,
                     vanishing) -> float:
    """int_0^{r_end} g(r) dA(r) for g = |w|^power, w being u or u' (smooth
    between nodes) and ``vanishing`` the nodes where w is 0.

    Composite Gauss on u's grid joined with the space's own breaks, graded
    toward r = 0, where dA ~ r^(N-1) is not smooth for real N, and toward
    each node where w vanishes next to a nonconstant segment, where
    |w|^power has an algebraic end.
    """
    live = np.diff(u.values) != 0.0
    edges = vanishing & (np.append(live, False) | np.insert(live, 0, False))
    own = space.breaks
    breaks = np.concatenate([u.r_grid, own[own < u.r_end]])
    targets = np.append(u.r_grid[edges], 0.0)
    with np.errstate(over="ignore"):
        value = gauss_on_segments(lambda r: g(r) * space.content(r),
                                  dyadic_breaks(breaks, targets))
    if not value < math.inf:
        raise DomainError("a power of the profile or its slope overflows "
                          "double precision")
    return value


def _cavalieri_integral(space: ModelSpace, u: RadialFunction,
                        q: float) -> float:
    """int_0^L q t^{q-1} V(t) dt, composite Gauss in t.

    r(t) is smooth between node values, since u is smooth between nodes.
    V jumps at plateau values, and r(t) has a square-root end at the value
    of a node where the slope is 0, so the breaks are the node values,
    graded toward those flat values, toward t = 0 (t^{q-1}) and toward
    t = L, where V ~ r(t)^N is not smooth for real N.  The level radii of
    all Gauss nodes are bisected together.
    """
    levels = np.append(u.values, 0.0)
    flat = u.values[u.node_slopes() == 0.0]
    breaks = dyadic_breaks(np.unique(levels),
                           np.unique(np.concatenate([flat, levels[[0, -1]]])))
    return gauss_on_segments(
        lambda t: q * t ** (q - 1.0) * space.volume(_level_radii(u, t)),
        breaks)


def lq_routes(space: ModelSpace, u: RadialFunction, q: float) -> tuple:
    """(direct, cavalieri): int |u|^q dm by two independent routes.

    Direct: int |u|^q against the space's radial area density, a composite
    Gauss rule in r on u's grid.  Cavalieri: int_0^L q t^{q-1} V(t) dt
    over the superlevel volumes, a composite Gauss rule in t on u's
    node values with a batched level-radius bisection.
    """
    if not (isinstance(q, (int, float)) and 0.0 < q < math.inf):
        raise DomainError(f"norm exponent must be positive and finite, "
                          f"got {q!r}")
    direct = _radial_integral(
        space, u, lambda r: np.abs(u.value(r)) ** q, u.values == 0.0)
    return direct, _cavalieri_integral(space, u, q)


def lq_norm(space: ModelSpace, u: RadialFunction, q: float) -> float:
    """Lq(m) norm of u, computed by two routes that must agree to 1e-7.

    The routes are those of ``lq_routes``: the direct r-integral and the
    Cavalieri t-integral, each a composite Gauss rule on the profile's own
    breakpoints.  The Cavalieri value is returned; disagreement raises
    InvariantViolation.
    """
    direct, cavalieri = lq_routes(space, u, q)
    gap = abs(direct - cavalieri)
    if gap > 1e-7 * max(abs(direct), abs(cavalieri), 1e-300):
        raise InvariantViolation(
            f"Cavalieri route {cavalieri!r} disagrees with direct "
            f"quadrature {direct!r} for q={q}")
    return max(cavalieri, 0.0) ** (1.0 / q)


def grad_lp_norm(space: ModelSpace, u: RadialFunction, p: float) -> float:
    """(int |u'(r)|^p dm)^{1/p}: radial Dirichlet seminorm of the profile.

    u' is smooth between nodes, so the integral is the composite Gauss
    rule of the direct Lq route on u's grid.
    """
    if not (isinstance(p, (int, float)) and 1.0 < p < math.inf):
        raise DomainError(f"gradient exponent must be finite and exceed 1, "
                          f"got {p!r}")
    val = _radial_integral(space, u, lambda r: np.abs(u.deriv(r)) ** p,
                           u.node_slopes() == 0.0)
    return max(val, 0.0) ** (1.0 / p)


@dataclass(frozen=True)
class PolyaSzegoResult:
    lhs: float
    rhs: float
    ratio: float


def polya_szego_check(space: ModelSpace, u: RadialFunction,
                      p: float) -> PolyaSzegoResult:
    """Gradient norms may only drop under rearrangement, AVR-weighted.

    lhs = |grad u|_p on the space; rhs = AVR^{1/N} |grad u*|_p on Euclidean.
    The inequality lhs >= rhs holds with equality exactly on cones.
    """
    lhs = grad_lp_norm(space, u, p)
    star = euclidean_rearrangement(space, u)
    N = space.effective_dimension
    rhs = space.avr() ** (1.0 / N) * grad_lp_norm(Euclidean(N), star, p)
    if rhs <= 0.0:
        raise DomainError("rearranged gradient vanishes; profile is flat")
    return PolyaSzegoResult(lhs=lhs, rhs=rhs, ratio=lhs / rhs)


def layer_cake_radial_integral(space: ModelSpace, f_and_slope, R: float):
    """int_{B(R)} f(d(x)) dm via f(R) vol(B_R) - int_0^R f'(r) vol(B_r) dr.

    ``f_and_slope`` is vectorized: an array of radii in, the pair
    ``(f(r), f'(r))`` out, f smooth on (0, R].  It is evaluated once per
    node for both routes, and f may stack several integrands on leading
    axes, which are returned as an array (one integrand: a float).  Each
    is cross-checked against the direct radial quadrature int f(r) dA(r)
    to 1e-8 relative; the layer-cake value is returned.  Both routes are
    composite Gauss on one break list: equal panels on [0, R], the space's
    own breaks below R (past the last one F is affine on a warped product),
    graded dyadically toward r = 0, where r^(N-1) is not smooth for real N.
    A route that overflows or is not a number raises DomainError.
    """
    volume = vol_ball(space, R)
    own = space.breaks
    breaks = dyadic_breaks(
        np.concatenate([np.linspace(0.0, R, _LAYER_PANELS + 1), own[own < R]]),
        [0.0])

    def routes(r):
        f, slope = f_and_slope(r)
        return np.stack([slope * space.volume(r), f * space.content(r)])

    with np.errstate(over="ignore", invalid="ignore"):
        sloped, direct = gauss_on_segments(routes, breaks)
        layer = f_and_slope(breaks[-1:])[0][..., 0] * volume - sloped
    for a, b in zip(np.ravel(layer).tolist(), np.ravel(direct).tolist()):
        if not (math.isfinite(a) and math.isfinite(b)):
            raise DomainError(f"layer cake value {a!r} or direct quadrature "
                              f"{b!r} is not finite")
        if abs(a - b) > 1e-8 * max(abs(a), abs(b), 1e-300):
            raise InvariantViolation(
                f"layer cake value {a!r} disagrees with direct "
                f"quadrature {b!r}")
    return float(layer) if np.ndim(layer) == 0 else layer
