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
nodes.  Every radial grid, a profile's or the layer cake's equal panels, is
joined with the space's own breaks by one rule (``_joined``).  Every
integral, in r on that join or in t, is one graded Gauss rule that rejects
a value that is not finite (``_graded_gauss``, see ``isosharp.quadrature``),
and every pair of routes passes one gate (``_gate``).  An r-integral is
graded toward r = 0 only as deep as its measure ~ r^(N-1) can move a
double (``_radial_breaks``); a t-integral takes the full 100 levels.  A
level radius r(t) of the Cavalieri route is a Newton candidate that u's
own values certify to 2^-41 of its node bracket, or else 40 halvings of
that bracket (``_level_radii``): u's slope steers, it never decides.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvariantViolation
from .quadrature import (LEVELS, Hermite, dyadic_breaks, gauss_nodes,
                         gauss_on_segments, gauss_sum)
from .spaces import Euclidean, ModelSpace, vol_ball
from .specfun import omega

_LAYER_PANELS = 16   # equal Gauss panels on [0, R] for the layer-cake routes
# Gauss nodes that close a group of layer-cake radii: a Faber-Krahn sweep
# on 8 radii from 2 to 2000 (warped, n = 3; 408 to 3,384 nodes a radius)
# makes 6 groups and has a traced peak of 0.46 MB with this budget, the
# same as one radius at a time; 0.91 MB with 4096 and 2.41 MB with all
# its radii in one group
_LAYER_NODES = 2048
_HALVINGS = 40       # bisection steps of a level radius in its node bracket
_NEWTON_STEPS = 4    # Newton steps of a level radius before its certificate


class RadialFunction:
    """Nonnegative nonincreasing radial profile u(r) on [0, r_end]: its grid
    and the callables ``value`` and ``deriv`` of its value and slope, float
    arrays in and out.

    The node values ``values`` and node slopes ``slopes`` are read from
    ``value`` and ``deriv`` once, at construction; the values locate the
    levels, the zero slopes the flat nodes, and every norm evaluates the
    callables.  The grid is the profile's break list: the quadratures take
    u to be smooth between consecutive nodes, so every kink of a callable
    (a truncation, the end of a plateau) has to be a node.
    The function is treated as compactly supported in [0, r_end]: for norms
    to be exact the last sample should be zero (or negligibly small).
    """

    def __init__(self, r_grid, value, deriv):
        r = np.asarray(r_grid, dtype=float)
        if r.ndim != 1 or r.size < 2:
            raise DomainError("need a 1-D grid of length >= 2")
        if (r[0] != 0.0 or not np.all(np.isfinite(r))
                or np.any(np.diff(r) <= 0.0)):
            raise DomainError("r_grid must be finite and ascend strictly "
                              "from 0")
        v = np.asarray(value(r), dtype=float)
        if (v.shape != r.shape or not np.all(np.isfinite(v))
                or np.any(v < 0.0)):
            raise DomainError("the value callable must give one finite "
                              "nonnegative value per node")
        if np.any(np.diff(v) > 1e-12 * max(1.0, float(v[0]))):
            raise DomainError("node values must be nonincreasing")
        self.r_grid, self.values, self.r_end = r, v, float(r[-1])
        self.slopes = np.asarray(deriv(r), dtype=float)
        self._value, self._deriv = value, deriv

    def value(self, r):
        return self._value(np.asarray(r, dtype=float))

    def deriv(self, r):
        return self._deriv(np.asarray(r, dtype=float))


def _bisected(u: RadialFunction, t, lo, width) -> np.ndarray:
    """The radii r(t) in their brackets [lo, lo + width], ``_HALVINGS``
    halvings each, all levels together: the midpoint of the last half."""
    for _ in range(_HALVINGS):
        width = 0.5 * width
        lo = lo + width * (u.value(lo + width) > t)
    return lo + 0.5 * width


def _level_radii(u: RadialFunction, t) -> np.ndarray:
    """r(t) = sup{r : u(r) > t} on [0, r_end] for an array of levels, each
    to 2^-(_HALVINGS+1) of its node bracket, wherever on the grid it lies.

    The node values bracket each r(t) between two grid nodes (0 when
    u(0) <= t, r_end when u(r_end) > t).  From the secant between the two
    node values, ``_NEWTON_STEPS`` Newton steps on u(r) = t, clipped to
    the bracket, give a candidate x; a step that is not finite (u' = 0)
    keeps x.  The slope only steers: x is taken where u itself proves it,
    u(x - tol) > t >= u(x + tol) with tol = 2^-(_HALVINGS+1) of the
    bracket, a probe at the bracket's end holding by the node values.  The
    levels that fail, mostly where u(x +- tol) - t is below u's rounding,
    are bisected in their brackets (``_bisected``).
    """
    t = np.asarray(t, dtype=float)
    # the nodes valued above t are the first k of the grid
    k = np.searchsorted(-u.values, -t)
    above, below = np.maximum(k - 1, 0), np.minimum(k, u.values.size - 1)
    lo, hi = u.r_grid[above], u.r_grid[below]
    width = hi - lo
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # an empty bracket (lo = hi, equal node values) gives 0/0 here
        x = lo + width * ((u.values[above] - t)
                          / (u.values[above] - u.values[below]))
        x = np.where(np.isfinite(x), x, lo)
        for _ in range(_NEWTON_STEPS):
            step = x - (u.value(x) - t) / u.deriv(x)
            x = np.where(np.isfinite(step), np.clip(step, lo, hi), x)
    tol = width * 2.0 ** -(_HALVINGS + 1)
    left, right = np.maximum(x - tol, lo), np.minimum(x + tol, hi)
    failed = ~(((left == lo) | (u.value(left) > t))
               & ((right == hi) | (u.value(right) <= t)))
    if failed.any():
        x[failed] = _bisected(u, t[failed], lo[failed], width[failed])
    return x


def _joined(space: ModelSpace, grid) -> np.ndarray:
    """The ascending union of ``grid`` and the space's own breaks below
    grid[-1]; a break within 1e-9 of a node, relative to the break, is
    dropped, since it would leave a segment of rounding width."""
    own = space.breaks
    own = own[own < grid[-1]]
    k = np.searchsorted(grid, own)      # grid[k - 1] < own <= grid[k]
    gap = np.minimum(own - grid[np.maximum(k - 1, 0)], grid[k] - own)
    return np.sort(np.concatenate([grid, own[gap > 1e-9 * own]]))


def euclidean_rearrangement(space: ModelSpace, u: RadialFunction) -> RadialFunction:
    """The equimeasurable radial profile u* = u o R on Euclidean(N), R the
    inverse of the volume radius s(r) = (vol(B_r)/omega_N)^{1/N}: the cubic
    Hermite through the knots (s_k, r_k) with the exact slopes dr/ds =
    N V / (s A), pole_density^{-1/N} at s = 0.  The knots r_k are u's grid
    joined with the space's breaks (``_joined``), geometric knots filling
    every segment past the first that spans more than a factor 2 in r, so R
    follows a warped product's density over its decay length and out to
    the profile's first node, and each knot's volume passes ``vol_ball``'s
    guard.  u's own callables are evaluated, so u*' = u'(R) R' keeps u's
    kinks."""
    N = space.effective_dimension
    omega_N = omega(N)
    if omega_N < sys.float_info.min:    # the volume radii divide by it
        raise DomainError(f"omega_N = {omega_N!r} at N = {N!r} is not a "
                          "normal double")
    r = _joined(space, u.r_grid)
    # the pieces of at most a factor 2 that each segment past the first needs
    pieces = np.ceil(np.log2(r[2:] / r[1:-1]))
    wide = np.flatnonzero(pieces > 1.0)
    if wide.size:
        r = np.sort(np.concatenate([r] + [
            np.geomspace(r[k + 1], r[k + 2], int(pieces[k]) + 1)[1:-1]
            for k in wide]))
    vols = vol_ball(space, r[1:])
    s = np.concatenate([[0.0], (vols / omega_N) ** (1.0 / N)])
    # the Hermite needs ascending knots, and the slopes divide by s
    if not (np.all(np.isfinite(s)) and np.all(np.diff(s) > 0.0)):
        raise DomainError(f"the volume radii of the profile's grid do not "
                          f"ascend strictly at N = {N!r}")
    # V / A <= r (A rises) cannot overflow where s A might
    slopes = np.concatenate([[space.pole_density ** (-1.0 / N)],
                             N * (vols / space.content(r[1:]) / s[1:])])
    radius = Hermite(s, r, slopes)

    def clamp(q, rq):   # R = r_end from s_end on; the cubic misses it
        return np.where(q < s[-1], np.minimum(rq, u.r_end), u.r_end)

    def value(q):
        return u._value(clamp(q, radius(q)))

    def deriv(q):
        rq, dr = radius.jet(q)
        return np.where(q <= s[-1], u._deriv(clamp(q, rq)) * dr, 0.0)

    return RadialFunction(s, value, deriv)


def _zero_ends(u: RadialFunction, vanishing) -> np.ndarray:
    """The nodes of the mask ``vanishing`` next to a nonconstant segment:
    where |w|^power has an algebraic end if w vanishes there."""
    live = np.diff(u.values) != 0.0
    return vanishing & (np.append(live, False) | np.insert(live, 0, False))


def _graded_gauss(f, breaks, names):
    """int f over [breaks[0], breaks[-1]], composite Gauss on the
    ascending, graded ``breaks``.  f may stack integrands on leading axes
    (an array out; one integrand: a float), named along the first by
    ``names``.  f may overflow, or give 0 * inf = NaN where an overflowing
    measure meets a zero of |u|^q; an integral that is not finite raises
    DomainError naming its integrand."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(gauss_on_segments(f, breaks), names)


def _finite(total, names):
    """``total``, once every integrand along its first axis, named by
    ``names``, is finite; else DomainError naming the first that is not."""
    finite = np.isfinite(np.reshape(total, (len(names), -1))).all(axis=1)
    if not finite.all():
        raise DomainError(f"{names[finite.argmin()]} overflows double "
                          f"precision or is not a number")
    return total


def _gate(value, direct, rtol, name):
    """``value``, once it and the ``direct`` route of the same integral
    are finite (else DomainError) and agree to ``rtol`` relative (else
    InvariantViolation); ``name`` says what ``value`` is."""
    if not (math.isfinite(value) and math.isfinite(direct)):
        raise DomainError(f"{name} {value!r} or direct quadrature "
                          f"{direct!r} is not finite")
    if abs(value - direct) > rtol * max(abs(value), abs(direct), 1e-300):
        raise InvariantViolation(f"{name} {value!r} disagrees with direct "
                                 f"quadrature {direct!r}")
    return value


def _radial_breaks(space: ModelSpace, grid, targets=()) -> np.ndarray:
    """``_joined(space, grid)`` graded toward the radii ``targets`` > 0
    (ends of f), ``LEVELS`` levels each, and toward r = 0, where the
    measure ~ r^(N-1) is not smooth for real N (a target there too), to
    the depth K = ceil(log2(S / r_1)) + ceil(54 / N), at most ``LEVELS``:
    S is the joined grid's end and r_1 its first positive break.

    The levels past the first ceil(log2(S / r_1)) halve [0, r_1]
    m = ceil(54 / N) times, so the one panel they leave at 0,
    [0, r_1 2^-m], holds at most 2^-mN <= 2^-54 of the measure of
    [0, r_1]: for f bounded near 0, deeper levels could move the integral
    by at most 2^-54 of sup f times that measure."""
    grid = _joined(space, grid)
    depth = min(LEVELS, math.ceil(math.log2(grid[-1] / grid[1]))
                + math.ceil(54.0 / space.effective_dimension))
    targets = np.append(targets, 0.0)
    return dyadic_breaks(grid, targets, np.where(targets > 0.0, LEVELS, depth))


def _radial_integral(space: ModelSpace, grid, f, names, targets=()):
    """``_graded_gauss`` of f dr on ``_radial_breaks(space, grid,
    targets)``: f is smooth between those breaks and carries its own
    measure ~ r^(N-1), times a factor bounded near r = 0 (|u|^q, |u'|^p),
    so the grading toward 0 stops at ``_radial_breaks``'s depth."""
    return _graded_gauss(f, _radial_breaks(space, grid, targets), names)


def _cavalieri_integral(space: ModelSpace, u: RadialFunction, qs):
    """int_0^L q t^{q-1} V(t) dt for each exponent q of ``qs``, composite
    Gauss in t, as an array.

    r(t) is smooth between node values, since u is smooth between nodes.
    V jumps at plateau values, and r(t) has a square-root end at the value
    of a node where the slope is 0, so the breaks are the node values,
    graded toward those flat values, toward t = 0 (t^{q-1}) and toward
    t = L, where V ~ r(t)^N is not smooth for real N.  The level radii of
    all Gauss nodes are solved together, once for every exponent.
    """
    levels = np.append(u.values, 0.0)
    flat = u.values[u.slopes == 0.0]
    return _graded_gauss(
        lambda t: np.stack([q * t ** (q - 1.0) for q in qs])
        * space.volume(_level_radii(u, t)),
        dyadic_breaks(np.unique(levels),
                      np.unique(np.concatenate([flat, levels[[0, -1]]]))),
        [f"the Cavalieri integral of |u|^q at q={q!r}" for q in qs])


def _route_pairs(space: ModelSpace, u: RadialFunction, qs) -> list:
    """[(direct, cavalieri)]: int |u|^q dm by two independent routes, one
    pair per exponent q of ``qs``: the r-integral of |u|^q against the
    sphere content, graded toward each node that ends a plateau or the
    support (|u|^q has a boundary layer of width ~1/q there), and
    ``_cavalieri_integral``.  Each route evaluates its nodes once for all
    exponents, and each exponent's values are those of a call with it
    alone.  No exponent, a bad one, a route value that is not finite, or
    a zero integral of a profile with u(0) > 0 (an underflow) raises
    DomainError naming q.
    """
    if not qs:
        raise DomainError("need at least one norm exponent")
    for q in qs:
        if not (isinstance(q, (int, float)) and 0.0 < q < math.inf):
            raise DomainError(f"norm exponent must be positive and finite, "
                              f"got {q!r}")
    live = np.diff(u.values) != 0.0
    ends = _zero_ends(u, u.values == 0.0)
    ends[1:-1] |= live[:-1] != live[1:]      # a plateau meets a slope

    def powers(r):
        a = np.abs(u.value(r))
        return np.stack([a ** q for q in qs]) * space.content(r)

    directs = _radial_integral(
        space, u.r_grid, powers,
        [f"the integral of |u|^q at q={q!r}" for q in qs],
        u.r_grid[ends]).tolist()
    cavalieris = _cavalieri_integral(space, u, qs).tolist()
    for q, direct, cavalieri in zip(qs, directs, cavalieris):
        if u.values[0] > 0.0 and not (direct > 0.0 and cavalieri > 0.0):
            raise DomainError(f"the integral of |u|^q underflows to 0 for "
                              f"q={q!r}")
    return list(zip(directs, cavalieris))


def lq_norm(space: ModelSpace, u: RadialFunction, *qs) -> float | tuple:
    """Lq(m) norm of u for one exponent q, a float; for several, a tuple
    of norms, one per exponent.  The two routes of ``_route_pairs``,
    taken once for all exponents, must agree to 1e-7 (``_gate``); the
    Cavalieri value is returned.
    """
    norms = [max(_gate(cavalieri, direct, 1e-7,
                       f"Cavalieri route at q={q!r}"), 0.0) ** (1.0 / q)
             for q, (direct, cavalieri) in zip(qs, _route_pairs(space, u, qs))]
    return norms[0] if len(norms) == 1 else tuple(norms)


def grad_lp_norm(space: ModelSpace, u: RadialFunction, p: float) -> float:
    """(int |u'(r)|^p dm)^{1/p}: radial Dirichlet seminorm of the profile.

    u' is smooth between nodes, so the integral is the composite Gauss
    rule of the direct Lq route on u's grid, graded toward each node where
    u' vanishes next to a nonconstant segment.
    """
    if not (isinstance(p, (int, float)) and 1.0 < p < math.inf):
        raise DomainError(f"gradient exponent must be finite and exceed 1, "
                          f"got {p!r}")
    val = _radial_integral(
        space, u.r_grid, lambda r: np.abs(u.deriv(r)) ** p * space.content(r),
        [f"the integral of |u'|^p at p={p!r}"],
        u.r_grid[_zero_ends(u, u.slopes == 0.0)])
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


def layer_cake_radial_integral(space: ModelSpace, f_and_slope, R):
    """int_{B(R)} f(d(x)) dm via f(R) vol(B_R) - int_0^R f'(r) vol(B_r) dr,
    for a radius R or for each radius of a 1-D array R, returned with
    vol(B_R): the pair (value, vol(B_R)).

    ``f_and_slope(r, R)`` is vectorized: an array of radii r and the ball
    radius each belongs to (an array of r's shape) in, the pair
    ``(f(r), f'(r))`` out, f smooth on (0, R].  f may stack several
    integrands on leading axes, returned as an array with the radii of an
    array R on the last axis (one integrand at one radius: a float, and
    vol(B_R) a float for a float R, an array for an array).  Each is
    cross-checked against the direct radial quadrature int f(r) dA(r) to
    1e-8 relative (``_gate``); the layer-cake value is returned.  Both
    routes of a radius are one Gauss rule on ``_radial_breaks`` of equal
    panels of [0, R] (past the space's last break F is affine on a warped
    product): f and f' are bounded near r = 0, so f A and f' V are
    bounded times r^(N-1) and the grading toward 0 stops at that
    helper's depth.

    Every radius passes ``vol_ball``'s guard before any grid is built.
    The radii are then taken in order, in groups that close once their
    nodes reach ``_LAYER_NODES``: a group makes one ``f_and_slope`` call
    on all its nodes and one on its radii, and one ``volume`` and one
    ``content`` call on its nodes.  Each radius keeps its own panel sums,
    finite check and gate, in order.  Its values are the bits of a call
    with that radius alone as long as ``f_and_slope``'s value at a node
    depends on no other radius's nodes in the same call.  It may depend on
    its own radius's (a Miller recurrence's start does), so f(R) takes a
    call apart from the nodes.
    """
    radii = np.ravel(R).tolist()
    if not radii:
        raise DomainError("the layer cake needs at least one radius")
    # a radius at a time: a float takes numpy's scalar arithmetic, whose
    # last bits may differ from an array's loops (a warped product's tail)
    vols = [vol_ball(space, radius) for radius in radii]
    values, group = [], []
    for i, radius in enumerate(radii):
        group.append(gauss_nodes(_radial_breaks(
            space, np.linspace(0.0, radius, _LAYER_PANELS + 1))))
        if (i + 1 == len(radii)
                or sum(x.size for x, _ in group) >= _LAYER_NODES):
            first = i + 1 - len(group)
            values += _layer_group(space, f_and_slope, group,
                                   radii[first:i + 1], vols[first:i + 1])
            group = []
    value = np.stack(values, axis=-1)
    value = value.reshape(value.shape[:-1] + np.shape(R))
    if np.ndim(R) == 0:
        return (float(value) if value.ndim == 0 else value), vols[0]
    return value, np.array(vols)


def _layer_group(space: ModelSpace, f_and_slope, nodes, radii, vols) -> list:
    """The layer-cake values of one group of ``radii`` with ball volumes
    ``vols``, in order: ``nodes`` holds each radius's (x, h) of
    ``gauss_nodes``, and one evaluation on all of them serves the group."""
    r = np.concatenate([x for x, _ in nodes])
    with np.errstate(over="ignore", invalid="ignore"):
        f, slope = f_and_slope(r, np.repeat(radii, [x.size for x, _ in nodes]))
        routes = np.stack([slope * space.volume(r), f * space.content(r)])
        at_R = f_and_slope(np.array(radii), np.array(radii))[0]
    values, start = [], 0
    for k, (x, h) in enumerate(nodes):
        with np.errstate(over="ignore", invalid="ignore"):
            sloped, direct = _finite(
                gauss_sum(routes[..., start:start + x.size], h),
                ["the layer-cake integral of f' V",
                 "the direct integral of f A"])
            layer = at_R[..., k] * vols[k] - sloped
        start += x.size
        for a, b in zip(np.ravel(layer).tolist(), np.ravel(direct).tolist()):
            _gate(a, b, 1e-8, "layer cake value")
        values.append(layer)
    return values
