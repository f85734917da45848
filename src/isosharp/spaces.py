"""Model metric measure spaces with computable radial geometry.

Five variants, each with nonnegative Ricci curvature (in the generalized
CD(0,N) sense) and Euclidean volume growth:

    Euclidean(n)            flat R^n, the reference space
    WarpedProduct(n, f)     g = dr^2 + F(r)^2 dtheta^2 with F = int_0^r f,
                            f nonincreasing from f(0)=1 to a limit a > 0
    EuclideanCone(n, m_M)   cone over an n-manifold of measure m_M
    MonomialHalfSpace(n,aw) half-space {x_n > 0} weighted by x_n^aw
    AleQuotient(n, k)       R^n/G at infinity, Card(G) = k; no radial data

The first four own the radial geometry every other module builds on: the
ball volume ``volume(r)`` = vol(B_r) and its derivative, the sphere measure
``content(r)``, both taking and returning arrays, and the asymptotic volume
ratio AVR = lim vol(B_r)/(omega_N r^N) with N the effective dimension.  The
power-law spaces (Euclidean, cone, monomial) have vol(B_r) = c r^N exactly,
with c in closed form (a beta function for the monomial weight); the warped
product integrates its sphere measure once into a cumulative Gauss table.
The ALE variant carries only its AVR = 1/k: computing its ball volumes
would need metric data this package does not model, so radial operations
reject it.  ``VARIANTS`` declares each variant's descriptor fields, their
CLI defaults and the constructor they feed.

``vol_ball`` and ``minkowski_content_ball`` take a radius (float result) or
an array of radii (array result) through one guard: every radius positive
and finite, every volume a normal double, every sphere measure positive and
finite.  The sweeps and checks below make one array call each, and the
sharp isoperimetric bound they compare against is
``constants.isoperimetric_constant``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import isoperimetric_constant
from .errors import DomainError, UnsupportedOperationError
from .quadrature import dyadic_breaks, gauss_panels, pchip
from .specfun import beta, omega

_SLACK = 1.0 + 1e-12


# ---------------------------------------------------------------------------
# warping profiles

class WarpingProfile:
    """Base for the warping function f of g = dr^2 + F(r)^2 dtheta^2."""

    def f(self, s):
        raise NotImplementedError

    def f_prime(self, s):
        raise NotImplementedError

    def F(self, s):
        raise NotImplementedError

    @property
    def asymptote(self) -> float:
        raise NotImplementedError

    @property
    def breaks(self):
        """Ascending s-grid from 0 on whose segments f is smooth; beyond
        the last point f equals its asymptote, so F is affine there."""
        raise NotImplementedError


@dataclass(frozen=True)
class ExponentialTail(WarpingProfile):
    """f(s) = a + (1-a) e^{-beta s}: analytic profile with limit a."""

    a: float
    beta: float

    def __post_init__(self):
        if not (isinstance(self.a, (int, float)) and 0.0 < self.a <= 1.0):
            raise DomainError(f"profile limit a must lie in (0,1], got {self.a}")
        # the breaks end at 60/beta, which must be finite too
        if not (isinstance(self.beta, (int, float))
                and 0.0 < self.beta < math.inf and 60.0 / self.beta < math.inf):
            raise DomainError(
                f"profile rate beta must be positive with 60/beta finite, "
                f"got {self.beta}")

    def f(self, s):
        return self.a + (1.0 - self.a) * np.exp(-self.beta * np.asarray(s, float))

    def f_prime(self, s):
        return -self.beta * (1.0 - self.a) * np.exp(-self.beta * np.asarray(s, float))

    def F(self, s):
        s = np.asarray(s, dtype=float)
        # exact antiderivative; expm1 keeps small-s accuracy
        return self.a * s - (1.0 - self.a) * np.expm1(-self.beta * s) / self.beta

    @property
    def asymptote(self) -> float:
        return self.a

    @property
    def breaks(self):
        # quarter decay lengths out to s = 60/beta, where e^{-beta s} < 1e-26
        # leaves f equal to a and F affine to double precision
        return np.linspace(0.0, 60.0 / self.beta, 241)


class SampledProfile(WarpingProfile):
    """Profile given by samples (s_i, f_i), monotone-cubic interpolated.

    Beyond the last node the profile continues as the constant f(s_end),
    which therefore serves as its asymptote.  Construction validates the
    profile invariants (f(0)=1, nonincreasing, 0 < f <= 1).
    """

    def __init__(self, s_grid, f_values):
        s = np.asarray(s_grid, dtype=float)
        f = np.asarray(f_values, dtype=float)
        if s.ndim != 1 or s.shape != f.shape or s.size < 2:
            raise DomainError("profile needs matching 1-D grids of length >= 2")
        if s[0] != 0.0 or np.any(np.diff(s) <= 0.0):
            raise DomainError("profile grid must ascend from s=0")
        if not (np.all(np.isfinite(s)) and np.all(np.isfinite(f))):
            raise DomainError("profile grid and values must be finite")
        if abs(f[0] - 1.0) > 1e-12:
            raise DomainError(f"profile must start at f(0)=1, got {f[0]}")
        if np.any(f <= 0.0) or np.any(f > _SLACK):
            raise DomainError("profile values must lie in (0, 1]")
        if np.any(np.diff(f) > 1e-12):
            raise DomainError("profile must be nonincreasing")
        self.s_grid = s
        self.f_values = f
        self._interp = pchip(s, f)
        self._s_end = float(s[-1])
        self._f_end = float(f[-1])
        self._F_end = float(self._interp.antideriv(self._s_end))

    def f(self, s):
        s = np.asarray(s, dtype=float)
        return np.where(s <= self._s_end, self._interp(s), self._f_end)

    def f_prime(self, s):
        s = np.asarray(s, dtype=float)
        return np.where(s <= self._s_end, self._interp.jet(s)[1], 0.0)

    def F(self, s):
        s = np.asarray(s, dtype=float)
        return np.where(s <= self._s_end, self._interp.antideriv(s),
                        self._F_end + self._f_end * (s - self._s_end))

    @property
    def asymptote(self) -> float:
        return self._f_end

    @property
    def breaks(self):
        return self.s_grid


# ---------------------------------------------------------------------------
# model spaces

class ModelSpace:
    radial_supported = True
    pole_density = 1.0      # lim vol(B_r) / (omega_N r^N) as r -> 0

    @property
    def effective_dimension(self) -> float:
        raise NotImplementedError

    def avr(self) -> float:
        raise NotImplementedError

    def volume(self, r):
        """vol(B_r) about the pole, elementwise over the array r >= 0."""
        raise UnsupportedOperationError(
            f"{type(self).__name__} carries no radial ball-volume model")

    def content(self, r):
        """Sphere measure (Minkowski content of B_r), d/dr of volume."""
        raise UnsupportedOperationError(
            f"{type(self).__name__} carries no radial perimeter model")

    @property
    def breaks(self):
        """Ascending radii from 0 where the content may lose smoothness;
        past the last one it is smooth (F is affine on a warped product).
        Empty for the power-law spaces, smooth for every r > 0."""
        return np.empty(0)

    def descriptor(self) -> dict:
        raise NotImplementedError


class PowerLawSpace(ModelSpace):
    """vol(B_r) = c r^N exactly; a subclass supplies c = unit_ball_volume."""

    def volume(self, r):
        N = self.effective_dimension
        return self.unit_ball_volume * np.asarray(r, dtype=float) ** N

    def content(self, r):
        N = self.effective_dimension
        return N * self.unit_ball_volume * np.asarray(r, dtype=float) ** (N - 1.0)

    @property
    def pole_density(self) -> float:
        return self.unit_ball_volume / omega(self.effective_dimension)

    def avr(self) -> float:
        N = self.effective_dimension
        omega_N, c = omega(N), self.unit_ball_volume
        if not (0.0 < omega_N < math.inf and 0.0 < c < math.inf):
            raise DomainError(
                f"unit-ball volumes omega_N = {omega_N:g} and c = {c:g} at "
                f"N = {N:g} lie outside double precision")
        return min(c / omega_N, 1.0)


def _check_int(value, what, minimum):
    if not (isinstance(value, (int, np.integer)) and value >= minimum):
        raise DomainError(f"{what} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class Euclidean(PowerLawSpace):
    """Flat space; real dimension n > 1 admitted (CD(0,N) statements)."""

    n: float

    def __post_init__(self):
        if not (isinstance(self.n, (int, float)) and math.isfinite(self.n)
                and self.n > 1.0):
            raise DomainError(f"Euclidean dimension must exceed 1, got {self.n!r}")

    @property
    def effective_dimension(self) -> float:
        return float(self.n)

    @cached_property
    def unit_ball_volume(self) -> float:
        return omega(self.n)

    def avr(self) -> float:
        return 1.0

    def descriptor(self):
        return {"variant": "euclidean", "n": float(self.n)}


@dataclass(frozen=True)
class WarpedProduct(ModelSpace):
    """Rotationally invariant metric dr^2 + F(r)^2 dtheta^2 on R^n."""

    n: int
    profile: WarpingProfile

    def __post_init__(self):
        _check_int(self.n, "warped-product dimension", 2)

    @property
    def effective_dimension(self) -> float:
        return float(self.n)

    def avr(self) -> float:
        # vol(B_r)/(omega_n r^n) -> a^{n-1} by L'Hospital on F(r)/r -> a
        return float(self.profile.asymptote) ** (self.n - 1)

    @cached_property
    def _sphere_coef(self) -> float:
        return self.n * omega(float(self.n))

    def content(self, r):
        F = np.asarray(self.profile.F(r), dtype=float)
        return self._sphere_coef * F ** (self.n - 1)

    @property
    def breaks(self):
        # past the profile's last break F is affine
        return self.profile.breaks

    @cached_property
    def _volume_table(self):
        """(breaks, cumulative volume at each break) up to the last profile
        break.

        The profile's breaks are joined by a dyadic grid down to 2^-100 of
        the last, so no segment past the first spans more than a factor 2
        in radius: on such a segment, or any part of one, the 12-point rule
        holds F^{n-1} to ~1e-14 relative for n up to 30.
        """
        breaks = dyadic_breaks(self.profile.breaks, [0.0])
        seg = gauss_panels(self.content, breaks[:-1], breaks[1:])
        return breaks, np.concatenate([[0.0], np.cumsum(seg)])

    def volume(self, r):
        r = np.asarray(r, dtype=float)
        breaks, cum = self._volume_table
        end = breaks[-1]
        inside = np.minimum(r, end)
        idx = np.clip(np.searchsorted(breaks, inside, side="right") - 1,
                      0, breaks.size - 2)
        vol = cum[idx] + gauss_panels(self.content, breaks[idx], inside)
        if not np.any(r > end):
            return vol
        # past the last break F = F_e + a s, s = r - end, is affine, and
        # n omega_n int F^{n-1} = omega_n (F^n - F_e^n) / a exactly; F^n
        # (1 - (F_e/F)^n) stays finite where F_e^n underflows and (F/F_e)^n
        # overflows
        n, a = self.n, float(self.profile.asymptote)
        F_e = self.profile.F(end)
        s = np.maximum(r, end) - end
        F = F_e + a * s
        with np.errstate(over="ignore"):
            # a s / F_e may overflow; log1p(inf) = inf gives the exact limit
            tail = F ** n * -np.expm1(-n * np.log1p(a * s / F_e))
        return vol + self._sphere_coef * tail / (n * a)

    def descriptor(self):
        if not isinstance(self.profile, ExponentialTail):
            raise UnsupportedOperationError(
                "only analytic (exponential-tail) profiles serialize to the "
                "flat descriptor record")
        return {"variant": "warped", "n": float(self.n),
                "a": self.profile.a, "beta": self.profile.beta}


@dataclass(frozen=True)
class EuclideanCone(PowerLawSpace):
    """Metric cone over an n-dimensional link of total measure m_M.

    Only (n, m_M) matter for ball volumes and contents; the link itself is
    never represented.  m_M <= (n+1) omega_{n+1} keeps AVR <= 1, which the
    Bishop inequality imposes on links with Ric >= n-1.
    """

    n: int
    m_M: float

    def __post_init__(self):
        _check_int(self.n, "cone link dimension", 1)
        top = (self.n + 1) * omega(float(self.n + 1))
        if not (isinstance(self.m_M, (int, float)) and 0.0 < self.m_M <= top * _SLACK):
            raise DomainError(
                f"link measure must lie in (0, {top:g}], got {self.m_M!r}")

    @property
    def effective_dimension(self) -> float:
        return float(self.n + 1)

    @cached_property
    def unit_ball_volume(self) -> float:
        return self.m_M / (self.n + 1)

    def descriptor(self):
        return {"variant": "cone", "n": float(self.n), "m_M": float(self.m_M)}


@dataclass(frozen=True)
class MonomialHalfSpace(PowerLawSpace):
    """Half-space {x_n > 0} in R^n with weight w(x) = x_n^alpha_w.

    w^{1/alpha_w} = x_n is linear hence concave, so the space is CD(0, N)
    with effective dimension N = n + alpha_w.  The unit-ball weighted
    volume Lambda = int_{B(1), x_n>0} w has a closed form in the beta
    function.  Construction requires Lambda <= omega_N so that AVR <= 1; for
    very large alpha_w relative to n the monomial model leaves that regime
    and is rejected.
    """

    n: int
    alpha_w: float

    def __post_init__(self):
        _check_int(self.n, "half-space dimension", 1)
        if not (isinstance(self.alpha_w, (int, float))
                and math.isfinite(self.alpha_w) and self.alpha_w >= 0.0):
            raise DomainError(f"weight exponent must be >= 0, got {self.alpha_w!r}")
        if self.n + self.alpha_w <= 1.0:
            raise DomainError("effective dimension n + alpha_w must exceed 1")
        if self.unit_ball_volume > omega(self.effective_dimension) * _SLACK:
            raise DomainError(
                f"weighted unit-ball volume {self.unit_ball_volume:g} exceeds "
                f"omega_N = {omega(self.effective_dimension):g}; AVR would "
                "exceed 1 outside the model's admissible regime")

    @cached_property
    def unit_ball_volume(self) -> float:
        """Lambda = int over the unit half-ball of x_n^alpha_w: slices at
        x_n = t are (n-1)-balls of radius sqrt(1-t^2), which integrate to
        omega_{n-1} B((a+1)/2, (n+1)/2) / 2, and to 1/(a+1) for n = 1."""
        a = float(self.alpha_w)
        if self.n == 1:
            return 1.0 / (a + 1.0)
        return (omega(float(self.n - 1))
                * 0.5 * beta(0.5 * (a + 1.0), 0.5 * (self.n + 1)))

    @property
    def effective_dimension(self) -> float:
        return float(self.n) + float(self.alpha_w)

    def descriptor(self):
        return {"variant": "monomial", "n": float(self.n),
                "alpha_w": float(self.alpha_w)}


@dataclass(frozen=True)
class AleQuotient(ModelSpace):
    """ALE space, Euclidean at infinity modulo a free group of order k."""

    n: int
    k: int
    radial_supported = False

    def __post_init__(self):
        _check_int(self.n, "ALE dimension", 2)
        _check_int(self.k, "group order", 1)
        if self.k > 1.0 / sys.float_info.min:
            raise DomainError("group order must be at most 2^1022, where "
                              "1/k is still a normal double")

    @property
    def effective_dimension(self) -> float:
        return float(self.n)

    def avr(self) -> float:
        return 1.0 / self.k

    def descriptor(self):
        return {"variant": "ale", "n": float(self.n), "k": float(self.k)}


# each variant's fields after "variant", in descriptor order, with their CLI
# defaults (None marks a required field), and the constructor they feed
VARIANTS = {
    "euclidean": ({"n": 3}, Euclidean),
    "warped": ({"n": 2, "a": 0.5, "beta": 1.0},
               lambda n, a, beta: WarpedProduct(n, ExponentialTail(a, beta))),
    "cone": ({"n": 2, "m_M": None}, EuclideanCone),
    "monomial": ({"n": 2, "alpha_w": 1.0}, MonomialHalfSpace),
    "ale": ({"n": 2, "k": 2}, AleQuotient),
}


# ---------------------------------------------------------------------------
# operations

def _radii(r) -> np.ndarray:
    """r as a float array (0-d for one radius), every radius positive and
    finite."""
    radii = np.asarray(r)
    if radii.dtype.kind not in "iuf" or not np.all(
            (radii > 0.0) & (radii < math.inf)):
        raise DomainError(f"radius must be a positive real, got {r!r}")
    return radii.astype(float)


def _guarded(r, evaluate, what, least=sys.float_info.min):
    """evaluate(radii), a float for a radius and an array for an array; every
    value finite and >= least (0 is underflow and inf overflow for r > 0).
    The default least admits normal doubles only: a subnormal has lost
    leading digits."""
    radii = _radii(r)
    with np.errstate(all="ignore"):
        values = np.asarray(evaluate(radii), dtype=float)
    outside = ~((values >= least) & (values < math.inf))
    if outside.any():
        raise DomainError(f"{what} at r={float(radii[outside][0])!r} lies "
                          "outside double precision")
    return values if radii.ndim else float(values)


def vol_ball(space: ModelSpace, r):
    """Measure of the metric ball of radius r (or of each r) about the pole."""
    return _guarded(r, space.volume, "ball volume")


def minkowski_content_ball(space: ModelSpace, r):
    """Outer Minkowski content (sphere measure) of each radius-r ball.

    A positive subnormal passes: the Faber-Krahn shooting starts at radii
    where it is subnormal at large n, and only ratios of densities enter.
    """
    return _guarded(r, space.content, "sphere measure", least=math.ulp(0.0))


@dataclass(frozen=True)
class MonotoneReport:
    passed: bool
    max_increase: float


def bishop_gromov_check(space: ModelSpace, r_grid) -> MonotoneReport:
    """vol(B_r)/r^N must be nonincreasing along the grid (1e-10 slack)."""
    radii = np.asarray(r_grid, dtype=float)
    if np.any(np.diff(radii) <= 0.0):
        raise DomainError("r_grid must be strictly ascending")
    N = space.effective_dimension
    ratios = vol_ball(space, radii) / _guarded(radii, lambda r: r ** N, "r^N")
    max_inc = float(np.diff(ratios).max()) if ratios.size > 1 else 0.0
    slack = 1e-10 * float(np.max(np.abs(ratios), initial=1.0))
    return MonotoneReport(passed=max_inc <= slack, max_increase=max_inc)


@dataclass(frozen=True)
class CurvatureReport:
    passed: bool
    worst_fpp: float
    worst_slope_excess: float


def curvature_check(profile: WarpingProfile, grid) -> CurvatureReport:
    """Sufficient curvature-sign conditions F'' <= 0 and F' <= 1 on a grid."""
    g = np.asarray(list(grid), dtype=float)
    if g.size == 0 or np.any(np.diff(g) <= 0.0):
        raise DomainError("grid must be nonempty and strictly ascending")
    fpp = np.asarray(profile.f_prime(g), dtype=float)
    slope = np.asarray(profile.f(g), dtype=float)
    worst_fpp = float(np.max(fpp))
    worst_excess = float(np.max(slope - 1.0))
    return CurvatureReport(
        passed=worst_fpp <= 1e-12 and worst_excess <= 1e-12,
        worst_fpp=worst_fpp, worst_slope_excess=worst_excess)


@dataclass(frozen=True)
class SweepRow:
    r: float
    vol: float
    mink_content: float
    ratio: float
    sharp_bound: float
    margin: float


@dataclass(frozen=True)
class SweepTable:
    rows: tuple
    sharp_bound: float
    tail_gap: float


def isoperimetric_sharpness_sweep(space: ModelSpace, r_list) -> SweepTable:
    """Tabulates m+(B_r)/m(B_r)^{(N-1)/N} against the sharp constant.

    The ratio column is >= the sharp constant N omega_N^{1/N} AVR^{1/N}
    everywhere and converges to it as r grows; tail_gap reports how far the
    last row still is.
    """
    radii = np.asarray(r_list, dtype=float)
    if radii.size == 0:
        raise DomainError("empty radius list")
    N = space.effective_dimension
    vol = vol_ball(space, radii)
    content = minkowski_content_ball(space, radii)
    bound = isoperimetric_constant(N, space.avr())
    ratio = content / vol ** ((N - 1.0) / N)
    rows = tuple(SweepRow(r=r, vol=v, mink_content=c, ratio=q,
                          sharp_bound=bound, margin=q - bound)
                 for r, v, c, q in zip(radii.tolist(), vol.tolist(),
                                       content.tolist(), ratio.tolist()))
    return SweepTable(rows=rows, sharp_bound=bound,
                      tail_gap=abs(rows[-1].ratio - bound))
