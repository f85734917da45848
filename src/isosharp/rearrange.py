"""Euclidean rearrangement of radial functions and Cavalieri bookkeeping.

A nonnegative nonincreasing radial function u on a model space is pushed to
its Euclidean rearrangement u* by the volume-radius change of variable
rho(r) = (vol(B_r)/omega_N)^{1/N}: the function on R^N with u*(rho(r)) = u(r).
By construction every superlevel set keeps its measure, so Lq norms are
preserved (Cavalieri) while gradient norms can only shrink modulo the AVR
factor (Polya-Szego).  This module computes distribution functions, the
rearrangement itself, both norms by two independent routes, and the co-area
and layer-cake identities used to certify them.  Ball volumes and sphere
measures come from the space's own ``volume`` and ``content``.

Functions are supported on [0, r_end] of their grid, and are either
sampled (interpolated shape-preservingly between nodes) or exact (closed-form
value and slope).  The grid is the profile's break list either way: u is
smooth between nodes, so every norm is a composite Gauss rule on the grid
(see ``isosharp.quadrature``).  The layer-cake identity, whose integrands are
vectorized callables smooth on (0, R], takes the same rule on equal panels
joined with the space's breaks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import DomainError, InvariantViolation
from .quadrature import dyadic_breaks, gauss_on_segments
from .spaces import Euclidean, ModelSpace, PowerLawSpace, avr, vol_ball
from .specfun import omega

_JUMP = 2.0 ** -30   # relative ramp width standing in for a jump discontinuity
_LAYER_PANELS = 16   # equal Gauss panels on [0, R] for the layer-cake routes


class RadialFunction:
    """Nonnegative nonincreasing radial profile u(r) on [0, r_end], of one
    of two kinds.

    A sampled profile is its grid samples and the monotone piecewise-cubic
    (PCHIP) interpolant through them.  An exact profile carries the closed
    forms ``value_fn`` and ``deriv_fn`` together and builds no interpolant;
    its samples only locate its levels.  Passing one callable without the
    other raises DomainError.
    The grid is the profile's break list: the quadratures take u to be
    smooth between consecutive nodes, which the interpolant is by
    construction and an exact callable must be, so every kink of a
    callable (a truncation, the end of a plateau) has to be a node.
    The function is treated as compactly supported in [0, r_end]: for norms
    to be exact the last sample should be zero (or negligibly small).
    """

    def __init__(self, r_grid, values, value_fn=None, deriv_fn=None):
        r = np.asarray(r_grid, dtype=float)
        v = np.asarray(values, dtype=float)
        if r.ndim != 1 or r.shape != v.shape or r.size < 2:
            raise DomainError("need matching 1-D grids of length >= 2")
        if r[0] != 0.0 or np.any(np.diff(r) <= 0.0):
            raise DomainError("r_grid must ascend strictly from 0")
        if not np.all(np.isfinite(v)) or np.any(v < 0.0):
            raise DomainError("values must be finite and nonnegative")
        scale = max(1.0, float(v[0]))
        if np.any(np.diff(v) > 1e-12 * scale):
            raise DomainError("values must be nonincreasing")
        if (value_fn is None) != (deriv_fn is None):
            raise DomainError("an exact profile needs value_fn and deriv_fn "
                              "together")
        self.r_grid = r
        self.values = v
        self.value_fn = value_fn
        self.deriv_fn = deriv_fn
        self.r_end = float(r[-1])
        if value_fn is None:
            # the interpolant runs on x = r / r_end: in r its cubic
            # coefficients scale like r_end^-3 and overflow on tiny supports
            self._interp = PchipInterpolator(r / self.r_end, v,
                                             extrapolate=False)
            self._interp_deriv = self._interp.derivative()

    def value(self, r):
        r = np.asarray(r, dtype=float)
        if self.value_fn is not None:
            return self.value_fn(r)
        clamped = np.clip(r, 0.0, self.r_end)
        return self._interp(clamped / self.r_end)

    def deriv(self, r):
        r = np.asarray(r, dtype=float)
        if self.deriv_fn is not None:
            return self.deriv_fn(r)
        clamped = np.clip(r, 0.0, self.r_end)
        return np.where((r <= 0.0) | (r >= self.r_end), 0.0,
                        self._interp_deriv(clamped / self.r_end) / self.r_end)

    def node_slopes(self) -> np.ndarray:
        """u' at the grid nodes: the exact derivative of an exact profile,
        the interpolant's slopes of a sampled one (exactly 0 where PCHIP
        sets a node flat)."""
        if self.deriv_fn is not None:
            return np.asarray(self.deriv_fn(self.r_grid), dtype=float)
        return self._interp_deriv(self._interp.x) / self.r_end

    @property
    def height(self) -> float:
        return float(self.value(0.0))

    @property
    def support_radius(self) -> float:
        positive = np.nonzero(self.values > 0.0)[0]
        if positive.size == 0:
            return 0.0
        last = min(positive[-1] + 1, self.values.size - 1)
        return float(self.r_grid[last])

    @property
    def compactly_supported(self) -> bool:
        return self.values[-1] == 0.0

    def scaled(self, c: float) -> "RadialFunction":
        if not c > 0.0:
            raise DomainError("scale factor must be positive")
        vf = df = None
        if self.value_fn is not None:
            vf = lambda r, f=self.value_fn: c * f(r)
            df = lambda r, f=self.deriv_fn: c * f(r)
        return RadialFunction(self.r_grid, c * self.values, vf, df)

    def dilated(self, c: float) -> "RadialFunction":
        """Argument dilation r -> c r; the support shrinks by 1/c."""
        if not c > 0.0:
            raise DomainError("dilation factor must be positive")
        vf = df = None
        if self.value_fn is not None:
            vf = lambda r, f=self.value_fn: f(c * np.asarray(r, dtype=float))
            df = lambda r, f=self.deriv_fn: (
                c * f(c * np.asarray(r, dtype=float)))
        return RadialFunction(self.r_grid / c, self.values, vf, df)

    @classmethod
    def plateau(cls, height: float, radius: float) -> "RadialFunction":
        """Indicator-style profile: height on [0, radius], zero after."""
        if not (height > 0.0 and radius > 0.0):
            raise DomainError("plateau needs positive height and radius")
        grid = [0.0, radius, radius * (1.0 + _JUMP)]
        vals = [height, height, 0.0]

        def step(r, h=height, rad=radius):
            r = np.asarray(r, dtype=float)
            return np.where(r <= rad, h, 0.0)

        def zero(r):
            return np.zeros_like(np.asarray(r, dtype=float))

        return cls(grid, vals, value_fn=step, deriv_fn=zero)

    @classmethod
    def from_callable(cls, fn, r_max, nodes=401, grid=None, *,
                      deriv) -> "RadialFunction":
        """The exact profile of ``fn`` and its slope ``deriv``, sampled on
        ``grid``, by default ``nodes`` equal steps over [0, r_max].

        ``fn`` must be smooth between consecutive grid nodes: a kink inside
        a segment is invisible to the Gauss rules of the norms, so pass a
        grid that contains every kink.
        """
        if grid is None:
            grid = np.linspace(0.0, float(r_max), int(nodes))
        g = np.asarray(grid, dtype=float)
        vals = np.maximum(np.asarray(fn(g), dtype=float), 0.0)
        return cls(g, vals, value_fn=fn, deriv_fn=deriv)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("r,u\n")
            for r, u in zip(self.r_grid, self.values):
                fh.write(f"{float(r)!r},{float(u)!r}\n")

    @classmethod
    def from_csv(cls, path) -> "RadialFunction":
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if rows.shape[1] != 2:
            raise DomainError("radial CSV must have two columns (r, u)")
        return cls(rows[:, 0], rows[:, 1])


class DistributionProfile:
    """V(t) = measure of {u > t}, tabulated on a descending level grid."""

    def __init__(self, t_grid, volumes, radii=None):
        t = np.asarray(t_grid, dtype=float)
        v = np.asarray(volumes, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or t.size < 2:
            raise DomainError("need matching 1-D grids of length >= 2")
        if np.any(np.diff(t) >= 0.0):
            raise DomainError("t_grid must be strictly descending")
        if np.any(t < 0.0) or np.any(v < -0.0):
            raise DomainError("levels and volumes must be nonnegative")
        scale = max(1.0, float(np.max(v)))
        if np.any(np.diff(v) < -1e-9 * scale):
            raise InvariantViolation("V must be nondecreasing as t descends")
        self.t_grid = t
        self.volumes = v
        self.radii = None if radii is None else np.asarray(radii, dtype=float)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("t,V\n")
            for t, v in zip(self.t_grid, self.volumes):
                fh.write(f"{float(t)!r},{float(v)!r}\n")

    @classmethod
    def from_csv(cls, path) -> "DistributionProfile":
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if rows.shape[1] != 2:
            raise DomainError("distribution CSV must have two columns (t, V)")
        return cls(rows[:, 0], rows[:, 1])


def _check_monotone_probe(u: RadialFunction):
    vals = np.asarray(u.value(u.r_grid), dtype=float)
    scale = max(1.0, float(np.max(np.abs(vals), initial=0.0)))
    if np.any(np.diff(vals) > 1e-10 * scale):
        raise InvariantViolation(
            "profile is not nonincreasing on its own grid")


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


def distribution(space: ModelSpace, u: RadialFunction,
                 t_grid) -> DistributionProfile:
    """Superlevel volumes V(t) = vol({u > t}) on a descending level grid."""
    _check_monotone_probe(u)
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2 or np.any(np.diff(t) >= 0.0):
        raise DomainError("t_grid must be 1-D and strictly descending")
    if np.any(t < 0.0):
        raise DomainError("levels must be nonnegative")
    radii = _level_radii(u, t)
    vols = space.volume(radii)
    return DistributionProfile(t, vols, radii=radii)


def euclidean_rearrangement(space: ModelSpace, u: RadialFunction) -> RadialFunction:
    """The equimeasurable nonincreasing radial profile on Euclidean(N)."""
    _check_monotone_probe(u)
    N = space.effective_dimension
    vols = space.volume(u.r_grid)
    s_grid = (np.clip(vols, 0.0, None) / omega(N)) ** (1.0 / N)
    s_grid[0] = 0.0
    value_fn = deriv_fn = None
    if isinstance(space, PowerLawSpace) and u.value_fn is not None:
        # rho is linear for power-law volumes: an exact profile transports
        c = (space.unit_ball_volume / omega(N)) ** (1.0 / N)
        value_fn = lambda s, f=u.value_fn: f(np.asarray(s) / c)
        deriv_fn = lambda s, f=u.deriv_fn: f(np.asarray(s) / c) / c
    return RadialFunction(s_grid, u.values.copy(), value_fn, deriv_fn)


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
    through the distribution function, a composite Gauss rule in t on u's
    node values with a batched level-radius bisection.
    """
    _check_monotone_probe(u)
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

    u' is smooth between nodes, exact or interpolated, so the integral is
    the composite Gauss rule of the direct Lq route on u's grid.
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
    rhs = avr(space) ** (1.0 / N) * grad_lp_norm(Euclidean(N), star, p)
    if rhs <= 0.0:
        raise DomainError("rearranged gradient vanishes; profile is flat")
    return PolyaSzegoResult(lhs=lhs, rhs=rhs, ratio=lhs / rhs)


@dataclass(frozen=True)
class CoareaRow:
    t: float
    minus_v_prime: float
    coarea_value: float
    rel_err: float


@dataclass(frozen=True)
class CoareaReport:
    rows: tuple
    skipped: tuple
    passed: bool
    max_rel_err: float
    degenerate: bool


def coarea_derivative_check(space: ModelSpace, u: RadialFunction,
                            t_grid) -> CoareaReport:
    """-V'(t) must equal perimeter(r(t)) / |u'(r(t))| at regular levels.

    V' is a central difference on the tabulated distribution profile.
    Levels with |u'(r(t))| < 1e-8 are skipped (critical values; for a
    plateau every interior level is skipped and the report is flagged
    degenerate).
    """
    profile = distribution(space, u, t_grid)
    t, V, radii = profile.t_grid, profile.volumes, profile.radii[1:-1]
    slope = np.abs(u.deriv(radii))
    content = space.content(radii)
    regular = (slope >= 1e-8) & (radii > 0.0) & (radii < u.r_end)
    lhs = -((V[2:] - V[:-2]) / (t[2:] - t[:-2]))[regular]
    rhs = content[regular] / slope[regular]
    rel = np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)
    rows = tuple(CoareaRow(t=t_i, minus_v_prime=l, coarea_value=c, rel_err=e)
                 for t_i, l, c, e in zip(t[1:-1][regular].tolist(),
                                         lhs.tolist(), rhs.tolist(),
                                         rel.tolist()))
    max_rel = float(np.max(rel, initial=0.0))
    return CoareaReport(rows=rows, skipped=tuple(t[1:-1][~regular].tolist()),
                        passed=bool(max_rel <= 1e-4),
                        max_rel_err=max_rel,
                        degenerate=not rows)


def layer_cake_radial_integral(space: ModelSpace, f, f_prime,
                               R: float) -> float:
    """int_{B(R)} f(d(x)) dm via f(R) vol(B_R) - int_0^R f'(r) vol(B_r) dr.

    ``f`` and ``f_prime`` are vectorized (arrays in, arrays out) and smooth
    on (0, R].  Cross-checked against the direct radial quadrature
    int f(r) dA(r) to 1e-8 relative; the layer-cake value is returned.  Both
    routes are composite Gauss on one break list: equal panels on [0, R],
    the space's own breaks below R (past the last one F is affine on a
    warped product), graded dyadically toward r = 0, where r^(N-1) is not
    smooth for real N.
    """
    volume = vol_ball(space, R)
    own = space.breaks
    breaks = dyadic_breaks(
        np.concatenate([np.linspace(0.0, R, _LAYER_PANELS + 1), own[own < R]]),
        [0.0])
    layer = float(f(breaks[-1:])[0] * volume) - gauss_on_segments(
        lambda r: f_prime(r) * space.volume(r), breaks)
    direct = gauss_on_segments(lambda r: f(r) * space.content(r), breaks)
    if abs(layer - direct) > 1e-8 * max(abs(layer), abs(direct), 1e-300):
        raise InvariantViolation(
            f"layer cake value {layer!r} disagrees with direct "
            f"quadrature {direct!r}")
    return layer
