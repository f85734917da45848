"""End-to-end inequality verifiers and sharpness sweeps.

Evaluates Sobolev and Gagliardo-Nirenberg quotients against the sharp
constants, solves the radial Dirichlet eigenvalue problem by shooting, and
reproduces the Bessel test-function limits that drive the Faber-Krahn
sharpness argument.  Every operation is a pure function of immutable
inputs, so sweeps over radii or function suites can run concurrently and
deterministically.

Margins are always signed in the inequality's favorable direction: a report
with margin >= -tolerance certifies the inequality, whether the sharp
constant bounds the quotient from above (Sobolev, GN) or below
(Faber-Krahn, Polya-Szego ratios).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

from .constants import (
    SobolevParams,
    fk_constant,
    gn_sharp_constant,
    gn_theta,
    sobolev_constant,
)
from .errors import ConvergenceError, DomainError
from .quadrature import dyadic_breaks, gauss_on_segments
from .rearrange import (
    RadialFunction,
    grad_lp_norm,
    layer_cake_radial_integral,
    lq_norm,
    polya_szego_check,
)
from .spaces import ModelSpace, _radii, avr, minkowski_content_ball, vol_ball
from .specfun import (bessel_first_zero, bessel_j, bessel_j_scaled,
                      log_gamma, omega)

_EXTREMAL_NODES = 241   # grid of the truncated extremal, geometric to r_cut
_SHOOT_STEPS = 1100     # RK4 steps on [R/10, R]; a third as many graded below
_BESSEL_NODES = 257     # grid of a Bessel test profile


@dataclass(frozen=True)
class QuotientReport:
    lhs: float
    rhs_constant: float
    quotient: float
    margin: float
    space: dict
    params: dict

    def as_dict(self) -> dict:
        return {"lhs": self.lhs, "rhs_constant": self.rhs_constant,
                "quotient": self.quotient, "margin": self.margin,
                "space": dict(self.space), "params": dict(self.params)}


@dataclass(frozen=True)
class EigenResult:
    lambda_1: float
    eigenfunction: RadialFunction
    iterations: int
    mismatch: float


# ---------------------------------------------------------------------------
# extremal families

def _h(lam, pp, expo, r):
    # h(r) = (lam + r^{p'})^expo with expo = 1/(1-alpha), r >= 0 or an array
    return (lam + r ** pp) ** expo


def _h_deriv(lam, pp, expo, r):
    return expo * pp * r ** (pp - 1.0) * (lam + r ** pp) ** (expo - 1.0)


def extremal_h(alpha: float, p: float, lam: float, r: float) -> float:
    """h(r) = (lam + r^{p'})^{1/(1-alpha)}: the sharp-quotient profile."""
    if not (isinstance(alpha, (int, float)) and alpha > 1.0):
        raise DomainError(f"alpha must exceed 1, got {alpha!r}")
    if not (isinstance(p, (int, float)) and p > 1.0):
        raise DomainError(f"p must exceed 1, got {p!r}")
    if not (isinstance(lam, (int, float)) and lam > 0.0):
        raise DomainError(f"lambda must be positive, got {lam!r}")
    if not (isinstance(r, (int, float)) and r >= 0.0):
        raise DomainError(f"radius must be nonnegative, got {r!r}")
    return _h(lam, p / (p - 1.0), 1.0 / (1.0 - alpha), r)


def extremal_h_deriv(alpha: float, p: float, lam: float, r: float) -> float:
    """d/dr of extremal_h; zero at r=0, negative elsewhere."""
    extremal_h(alpha, p, lam, r)   # parameter validation
    return _h_deriv(lam, p / (p - 1.0), 1.0 / (1.0 - alpha), r)


def _cut(g, dg, cut: float, grid) -> RadialFunction:
    """The exact profile (g - g(cut))_+, with slope g' on [0, cut) and 0
    from cut on.

    ``g`` and ``dg`` are vectorized, and g is nonincreasing on [0, inf), so
    the profile vanishes past cut; ``grid`` runs from 0 to cut.  The shift
    is ``g`` at the float ``cut``.
    """
    shift = g(cut)

    def val(r):
        return np.maximum(g(np.asarray(r, dtype=float)) - shift, 0.0)

    def dval(r):
        r = np.asarray(r, dtype=float)
        return np.where(r < cut, dg(r), 0.0)

    return RadialFunction(grid, val(grid), value_fn=val, deriv_fn=dval)


def truncated_extremal(params: SobolevParams, lam: float = 1.0,
                       r_cut: float | None = None) -> RadialFunction:
    """Compactly supported shift of the extremal: (h - h(r_cut))_+.

    Defaults scale r_cut with the family dilation lam^{1/p'}, so quotients
    of different lam agree exactly up to quadrature error.  The truncation
    biases the Sobolev quotient by O(sqrt(lam)/r_cut) for the endpoint
    alpha = n/(n-p) profile (slow-decaying gradient tail) and by
    O((lam/r_cut)^2)-level terms for interior alpha; pick r_cut from that
    budget.
    """
    if not (isinstance(lam, (int, float)) and lam > 0.0):
        raise DomainError(f"lambda must be positive, got {lam!r}")
    pp = params.p_prime
    expo = 1.0 / (1.0 - params.alpha)
    if r_cut is None:
        r_cut = 1000.0 * lam ** (1.0 / pp)
    if not r_cut > 0.0:
        raise DomainError("truncation radius must be positive")
    grid = np.concatenate([[0.0], np.geomspace(r_cut * 1e-6, r_cut,
                                               _EXTREMAL_NODES - 1)])
    try:
        return _cut(lambda r: _h(lam, pp, expo, r),
                    lambda r: _h_deriv(lam, pp, expo, r), float(r_cut), grid)
    except OverflowError:       # float ** raises where numpy would give inf
        raise DomainError(f"r_cut^p' = {r_cut!r}^{pp!r} lies outside double "
                          "precision") from None


# ---------------------------------------------------------------------------
# quotients

def sobolev_quotient(space: ModelSpace, u: RadialFunction,
                     p: float) -> QuotientReport:
    """|u|_{p*} / |grad u|_p against the sharp constant S = AT AVR^{-1/n}."""
    N = space.effective_dimension
    params = SobolevParams(n=N, p=p)
    grad = grad_lp_norm(space, u, p)
    if grad <= 0.0:
        raise DomainError("profile has vanishing gradient")
    lhs = lq_norm(space, u, params.p_star)
    quotient = lhs / grad
    rhs = sobolev_constant(params, avr(space))
    return QuotientReport(
        lhs=lhs, rhs_constant=rhs, quotient=quotient, margin=rhs - quotient,
        space=space.descriptor(),
        params={"p": p, "p_star": params.p_star, "direction": "upper"})


def gn_quotient(space: ModelSpace, u: RadialFunction,
                params: SobolevParams) -> QuotientReport:
    """|u|_{ap} / (|grad u|_p^theta |u|_{a(p-1)+1}^{1-theta}) vs K^GN."""
    N = space.effective_dimension
    if abs(params.n - N) > 1e-9:
        raise DomainError(
            f"params dimension {params.n} does not match the space's {N}")
    alpha, p = params.alpha, params.p
    theta = gn_theta(params)
    grad = grad_lp_norm(space, u, p)
    if grad <= 0.0:
        raise DomainError("profile has vanishing gradient")
    top = lq_norm(space, u, alpha * p)
    low = lq_norm(space, u, alpha * (p - 1.0) + 1.0)
    quotient = top / (grad ** theta * low ** (1.0 - theta))
    rhs = gn_sharp_constant(params, avr(space))
    return QuotientReport(
        lhs=top, rhs_constant=rhs, quotient=quotient, margin=rhs - quotient,
        space=space.descriptor(),
        params={"p": p, "alpha": alpha, "theta": theta, "direction": "upper"})


# ---------------------------------------------------------------------------
# radial Dirichlet eigenvalue by shooting

def _mul(a, b):
    """Entrywise 2x2 product a @ b of matrices held as (m00, m01, m10, m11)."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
            a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)


def _trace(mu, s0, h, rho_mid, rho_end, N):
    """phi at every node of the RK4 scheme for -(A phi')' = mu A phi, R = 1.

    The state is (phi, psi/A), so one step is the 2x2 matrix of RK4 on
    [[0, 1/rho], [-mu rho, 0]] with rho = A/A_k, rescaled by A_k/A_{k+1}
    at its end: only the density ratios enter, never 1/A.  Each matrix is
    held as its four entries, arrays over all steps, and the steps are
    multiplied by a doubling prefix scan of explicit 2x2 products.
    """
    one, zero = np.ones_like(h), np.zeros_like(h)
    F0, Fm, F1 = ((zero, 1.0 / rho, -mu * rho, zero)
                  for rho in (one, rho_mid, rho_end))

    def plus_eye(c, K):     # I + c K
        return (1.0 + c * K[0], c * K[1], c * K[2], 1.0 + c * K[3])

    k2 = _mul(Fm, plus_eye(0.5 * h, F0))
    k3 = _mul(Fm, plus_eye(0.5 * h, k2))
    k4 = _mul(F1, plus_eye(h, k3))
    M = [e + h / 6.0 * (f0 + 2.0 * f2 + 2.0 * f3 + f4)
         for e, f0, f2, f3, f4 in zip((one, zero, zero, one), F0, k2, k3, k4)]
    M[2] /= rho_end
    M[3] /= rho_end
    step = 1
    while step < h.size:
        later = _mul([m[step:] for m in M], [m[:-step] for m in M])
        for m, v in zip(M, later):
            m[step:] = v
        step *= 2
    start = (1.0 - mu * s0 * s0 / (2.0 * N), -mu * s0 / N)
    return np.concatenate([start[:1], M[0] * start[0] + M[1] * start[1]])


def fk_eigenvalue(space: ModelSpace, R: float) -> EigenResult:
    """First Dirichlet eigenvalue of the radial Laplacian on B(R).

    Solves -(A phi')' = lam A phi with A the space's radial area density,
    phi'(0)=0, phi(R)=0, in units of R (mu = lam R^2).  A fourth-order
    one-step scheme integrates from a series start near zero on a grid
    graded geometrically through the coordinate singularity; ``_trace``
    returns its node values for one mu.  By Sturm oscillation the node
    values change sign once for every eigenvalue below mu.  So the top of
    [0, 2 j_{N/2-1}^2], twice Cheng's bound mu_1 <= j^2 (equality on
    power-law spaces), is bisected until it shows exactly one sign change;
    inside that bracket phi(R) changes sign only at mu_1, and Brent's
    method finds it to 1e-12 relative.  ``iterations`` counts trace
    evaluations, Brent's included; the eigenfunction and ``mismatch`` =
    |phi(R)| come from the trace at the returned eigenvalue.
    """
    N = space.effective_dimension
    nu = N / 2.0 - 1.0
    R = float(_radii(R))      # R and r0 are checked before the grid uses them
    r0 = R * 1e-8
    if not r0 > 0.0:
        raise DomainError(f"radius {R!r} puts the first grid node R*1e-8 "
                          "outside double precision")
    graded = np.geomspace(r0, 0.1 * R, _SHOOT_STEPS // 3)
    uniform = np.linspace(0.1 * R, R, _SHOOT_STEPS)
    r = np.unique(np.concatenate([graded, uniform]))
    # the density rises with r, so guarding it at the nodes covers the
    # midpoints too
    A_nodes = minkowski_content_ball(space, r)
    A_mids = space.content(0.5 * (r[:-1] + r[1:]))
    j = bessel_first_zero(nu)
    k = j / R
    if not 0.0 < k * k < math.inf:
        raise DomainError(
            f"radius {R!r} puts the eigenvalue outside double precision")
    steps = (r0 / R, np.diff(r) / R, A_mids / A_nodes[:-1],
             A_nodes[1:] / A_nodes[:-1], N)
    # phi(R) by mu, one entry per trace (phi = 1 at mu = 0); only the end
    # values are kept, since holding every trace fragments the heap
    ends = {0.0: 1.0}

    def nodes(mu):
        trace = _trace(mu, *steps)
        ends[mu] = trace[-1]
        return trace

    def sign_changes(mu):
        positive = nodes(mu) > 0.0
        return np.count_nonzero(positive[1:] != positive[:-1])

    lo, hi = 0.0, 2.0 * j * j
    changes = sign_changes(hi)
    if changes == 0:
        raise ConvergenceError(
            f"no sign change up to lambda={hi / R / R:g}",
            bracket=(0.0, hi / R / R))
    while changes > 1:
        if hi - lo <= 1e-12 * hi:
            raise ConvergenceError(
                "no bracket holds lambda_1 alone",
                bracket=(lo / R / R, hi / R / R))
        mid = 0.5 * (lo + hi)
        mid_changes = sign_changes(mid)
        if mid_changes == 0:
            lo = mid
        else:
            hi, changes = mid, mid_changes
    mu = brentq(lambda m: ends[m] if m in ends else nodes(m)[-1], lo, hi,
                rtol=1e-12)
    trace = _trace(mu, *steps)
    iterations = len(ends)      # the traces in ends but mu = 0, and this one

    vals = np.minimum.accumulate(np.clip(trace, 0.0, None))
    vals[-1] = 0.0
    grid = np.concatenate([[0.0], r])
    vals = np.concatenate([[1.0], vals])
    # thin to ~256 nodes so downstream quadratures of the interpolant stay
    # cheap; node values are scheme-accurate, the quotient is variational
    stride = max(1, grid.size // 256)
    keep = np.unique(np.concatenate([[0, grid.size - 1],
                                     np.arange(2, grid.size, stride)]))
    phi = RadialFunction(grid[keep], vals[keep])
    return EigenResult(lambda_1=mu / R / R, eigenfunction=phi,
                       iterations=iterations, mismatch=abs(trace[-1]))


def fk_check(space: ModelSpace, R: float) -> QuotientReport:
    """lambda_1(B_R) vol(B_R)^{2/N} >= Lambda = j^2 (omega_N AVR)^{2/N}.

    Scale-invariant product against the sharp Faber-Krahn constant; the
    margin is quotient - constant (lower-bound direction), zero exactly
    when the space is a Euclidean ball configuration.
    """
    eig = fk_eigenvalue(space, R)
    N = space.effective_dimension
    vol = vol_ball(space, R)
    quotient = eig.lambda_1 * vol ** (2.0 / N)
    rhs = fk_constant(N, avr(space))
    return QuotientReport(
        lhs=eig.lambda_1, rhs_constant=rhs, quotient=quotient,
        margin=quotient - rhs, space=space.descriptor(),
        params={"R": R, "vol": vol, "direction": "lower"})


# ---------------------------------------------------------------------------
# Faber-Krahn sharpness sweep with Bessel test functions

@lru_cache(maxsize=32)
def bessel_level_integrals(nu: float) -> tuple:
    """(I0, I1) with Ik = int_0^1 t J_{nu+k}(j_nu t)^2 dt.

    I0 = J_{nu+1}(j_nu)^2 / 2 by orthogonality, and I1 = I0 because the
    test function is the exact unit-ball eigenfunction; both are computed
    by quadrature here so the identities stay testable: composite Gauss on
    equal panels, each spanning at most 4 in the Bessel argument j_nu t,
    graded toward t = 0, where t^(2 nu + 1) is not smooth for non-integer
    nu.
    """
    jnu = bessel_first_zero(nu)
    breaks = dyadic_breaks(np.linspace(0.0, 1.0, math.ceil(jnu / 4) + 1), [0])
    return tuple(
        gauss_on_segments(lambda t, m=m: t * bessel_j(m, jnu * t) ** 2, breaks)
        for m in (nu, nu + 1.0))


def bessel_test_profile(N: float, R: float) -> RadialFunction:
    """u_R(r) = r^{-nu} J_nu(k r), nu = N/2 - 1, k = j_nu / R, on [0, R].

    Formed as u_R = c S_nu(k r) and u_R' = -c k x S_{nu+1}(x) / (2 nu + 2)
    with c = u_R(0) = (k/2)^nu / Gamma(nu + 1), formed in log space, and
    S = ``bessel_j_scaled``, which stays finite at large nu and small r
    where r^{-nu} does not.
    """
    nu = N / 2.0 - 1.0
    jnu = bessel_first_zero(nu)
    k = jnu / R
    c = math.exp(nu * math.log(k / 2.0) - log_gamma(nu + 1.0))

    def val(r):
        x = np.minimum(k * np.asarray(r, dtype=float), jnu)
        return c * np.maximum(bessel_j_scaled(nu, x), 0.0)

    def dval(r):
        x = np.minimum(k * np.asarray(r, dtype=float), jnu)
        return -c * k * x / (2.0 * nu + 2.0) * bessel_j_scaled(nu + 1.0, x)

    grid = np.linspace(0.0, R, _BESSEL_NODES)
    vals = val(grid)
    vals[-1] = 0.0
    return RadialFunction(grid, vals, value_fn=val, deriv_fn=dval)


@dataclass(frozen=True)
class FkSweepRow:
    R: float
    quotient: float
    grad_integral: float
    mass_integral: float
    vol: float
    margin: float


@dataclass(frozen=True)
class FkSweepTable:
    rows: tuple
    lambda_g: float
    inequality_ok: bool
    limits: dict
    limits_ok: bool
    monotone: bool
    monotone_max_increase: float
    tail_rel_gap: float
    passed: bool


def fk_sharpness_sweep(space: ModelSpace, R_list) -> FkSweepTable:
    """Rayleigh quotients of the Bessel test functions across radii.

    Q(R) = (int |grad u_R|^2 dm / int u_R^2 dm) vol(B_R)^{2/N}, each
    integral evaluated through the layer-cake identity.  Q(R) >= Lambda
    always, and Q(R) -> Lambda as R grows.  The two displayed integrals
    tend to closed forms with a bias falling like 1/R, so their limits are
    Richardson-extrapolated in 1/R from the two largest radii (the last row
    alone for one radius) and checked within 1%, the raw errors at the
    largest R reported beside them.  Monotonicity of Q is only a flag.
    """
    R_sorted = sorted(float(R) for R in R_list)
    if not R_sorted or R_sorted[0] <= 0.0:
        raise DomainError("R_list must contain positive radii")
    N = space.effective_dimension
    nu = N / 2.0 - 1.0
    jnu = bessel_first_zero(nu)
    lambda_g = fk_constant(N, avr(space))
    rows = []
    for R in R_sorted:
        # the volume guard rejects radii outside double precision before
        # the profile's scale c is formed
        vol = vol_ball(space, R)
        u = bessel_test_profile(N, R)
        k = jnu / R

        c = u.height

        def second(r):      # u_R'' = -c k^2 (S_nu - S_{nu+1} (2nu+1)/(2nu+2))
            x = np.minimum(k * r, jnu)
            return -c * k * k * (bessel_j_scaled(nu, x) - bessel_j_scaled(
                nu + 1.0, x) * (2.0 * nu + 1.0) / (2.0 * nu + 2.0))

        num = layer_cake_radial_integral(
            space, lambda r: u.deriv(r) ** 2,
            lambda r: 2.0 * u.deriv(r) * second(r), R)
        den = layer_cake_radial_integral(
            space, lambda r: u.value(r) ** 2,
            lambda r: 2.0 * u.value(r) * u.deriv(r), R)
        q = num / den * vol ** (2.0 / N)
        rows.append(FkSweepRow(R=R, quotient=q, grad_integral=num,
                               mass_integral=den, vol=vol,
                               margin=q - lambda_g))
    i0, i1 = bessel_level_integrals(nu)
    coef = N * omega(N) * avr(space)
    last = rows[-1]
    prev = rows[-2] if len(rows) > 1 else last
    limits = {}
    for name, expected, value in (
            ("grad", jnu ** 2 * coef * i1, lambda row: row.grad_integral),
            ("mass", coef * i0, lambda row: row.mass_integral / row.R ** 2)):
        raw = value(last)
        # Richardson in 1/R from the two largest radii; raw for one radius
        limit = raw if prev.R == last.R else (
            (last.R * raw - prev.R * value(prev)) / (last.R - prev.R))
        limits.update({f"{name}_expected": expected, f"{name}_actual": raw,
                       f"{name}_rel_err": abs(raw - expected) / expected,
                       f"{name}_extrapolated": limit,
                       f"{name}_extrapolated_rel_err":
                           abs(limit - expected) / expected})
    limits_ok = bool(limits["grad_extrapolated_rel_err"] <= 0.01
                     and limits["mass_extrapolated_rel_err"] <= 0.01)
    inequality_ok = bool(all(row.margin >= -1e-6 * lambda_g for row in rows))
    increases = [b.quotient - a.quotient for a, b in zip(rows, rows[1:])]
    max_inc = max(increases, default=0.0)
    monotone = bool(max_inc <= 1e-6 * lambda_g)
    tail_rel_gap = last.quotient / lambda_g - 1.0
    return FkSweepTable(rows=tuple(rows), lambda_g=lambda_g,
                        inequality_ok=inequality_ok, limits=limits,
                        limits_ok=limits_ok, monotone=monotone,
                        monotone_max_increase=max_inc,
                        tail_rel_gap=tail_rel_gap,
                        passed=bool(inequality_ok and limits_ok))


# ---------------------------------------------------------------------------
# curated suites

def curated_profiles() -> list:
    """Labeled radial test functions spanning the shapes the proofs use."""
    def bump(g, dg, cut, nodes):
        return _cut(g, dg, cut, np.linspace(0.0, cut, nodes))

    def tent(m):
        return bump(lambda r: 1.0 - r / m, lambda r: -1.0 / m, m, 161)

    def gauss(s, cut):
        return bump(lambda r: np.exp(-(r / s) ** 2),
                    lambda r: -2.0 * r / s ** 2 * np.exp(-(r / s) ** 2),
                    cut, 221)

    def trapezoid(r_in, r_out):
        w = r_out - r_in
        # a plateau, then a ramp: the kink at r_in must be a node, and the
        # even grid misses it
        return RadialFunction.from_callable(
            lambda r: np.clip((r_out - np.asarray(r)) / w, 0.0, 1.0),
            r_out, grid=np.union1d(np.linspace(0.0, r_out, 161), [r_in]),
            deriv=lambda r: np.where(
                (np.asarray(r) > r_in) & (np.asarray(r) < r_out), -1.0 / w,
                0.0))

    def quartic(m):
        # clipped at m, past which (1 - (r/m)^2)^2 would rise again
        return bump(lambda r: np.maximum(1.0 - (r / m) ** 2, 0.0) ** 2,
                    lambda r: -4.0 * r / m ** 2 * (1.0 - (r / m) ** 2),
                    m, 161)

    def exp_bump(k, cut):
        return bump(lambda r: np.exp(-k * r),
                    lambda r: -k * np.exp(-k * r), cut, 221)

    def power_bump(cut):
        return bump(lambda r: (1.0 + r ** 2) ** -2,
                    lambda r: -4.0 * r * (1.0 + r ** 2) ** -3, cut, 221)

    return [
        ("tent_1", tent(1.0)),
        ("tent_2.5", tent(2.5)),
        ("tent_5", tent(5.0)),
        ("gauss_1_2.5", gauss(1.0, 2.5)),
        ("gauss_0.6_2", gauss(0.6, 2.0)),
        ("gauss_1.5_4", gauss(1.5, 4.0)),
        ("trapezoid_0.5_1.5", trapezoid(0.5, 1.5)),
        ("trapezoid_1_3", trapezoid(1.0, 3.0)),
        ("quartic_2", quartic(2.0)),
        ("exp_2_3", exp_bump(2.0, 3.0)),
        ("power_3", power_bump(3.0)),
    ]


SUITE_NAMES = ("polya-szego", "sobolev", "gn", "faber-krahn", "fk-sweep")


@dataclass(frozen=True)
class SuiteRow:
    label: str
    report: QuotientReport


@dataclass(frozen=True)
class SuiteResult:
    name: str
    space: dict
    rows: tuple
    passed: bool


def _polya_rows(space, p):
    rows = []
    for label, u in curated_profiles():
        res = polya_szego_check(space, u, p)
        rows.append(SuiteRow(
            label=f"{label}" if p == 2.0 else f"{label},p={p}",
            report=QuotientReport(
                lhs=res.lhs, rhs_constant=1.0, quotient=res.ratio,
                margin=res.ratio - 1.0, space=space.descriptor(),
                params={"p": p, "direction": "lower"})))
    return rows


def run_suite(space: ModelSpace, name: str, p: float = 2.0,
              params: SobolevParams | None = None,
              R_list=None, tol: float | None = None) -> SuiteResult:
    """Runs one named verification suite and aggregates pass/fail.

    A suite passes iff every row's margin clears -tol, by default 1e-6
    times the relevant constant (1 for ratio-style rows); the fk-sweep
    also needs its extrapolated limits within 1%.
    """
    desc = space.descriptor()
    N = space.effective_dimension
    limits_ok = True
    if name == "polya-szego":
        rows = _polya_rows(space, p)
    elif name == "sobolev":
        rows = [SuiteRow(label, sobolev_quotient(space, u, p))
                for label, u in curated_profiles()]
        sob = SobolevParams(n=N, p=p)
        rows.append(SuiteRow("extremal_endpoint",
                             sobolev_quotient(space, truncated_extremal(sob), p)))
    elif name == "gn":
        if params is None:
            params = SobolevParams(n=N, p=p, alpha=2.0)
        rows = [SuiteRow(label, gn_quotient(space, u, params))
                for label, u in curated_profiles()]
        rows.append(SuiteRow("extremal_gn",
                             gn_quotient(space, truncated_extremal(params),
                                         params)))
    elif name == "faber-krahn":
        radii = [1.0, 5.0, 20.0] if R_list is None else list(R_list)
        rows = [SuiteRow(f"R={R:g}", fk_check(space, float(R))) for R in radii]
    elif name == "fk-sweep":
        radii = list(np.geomspace(2.0, 500.0, 8)) if R_list is None else R_list
        table = fk_sharpness_sweep(space, radii)
        rows = [SuiteRow(f"R={row.R:g}",
                         QuotientReport(lhs=row.grad_integral,
                                        rhs_constant=table.lambda_g,
                                        quotient=row.quotient,
                                        margin=row.margin, space=desc,
                                        params={"R": row.R,
                                                "direction": "lower"}))
                for row in table.rows]
        limits_ok = table.limits_ok
    else:
        raise DomainError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    if tol is None:
        tol = 1e-6 * rows[0].report.rhs_constant
    passed = bool(limits_ok and all(row.report.margin >= -tol for row in rows))
    return SuiteResult(name=name, space=desc, rows=tuple(rows), passed=passed)
