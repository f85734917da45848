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

from .constants import (
    SobolevParams,
    fk_constant,
    gn_sharp_constant,
    gn_theta,
    sobolev_constant,
)
from .errors import ConvergenceError, DomainError
from .quadrature import integrate
from .rearrange import (
    RadialFunction,
    grad_lp_norm,
    layer_cake_radial_integral,
    lq_norm,
    polya_szego_check,
)
from .spaces import ModelSpace, _require_radial, avr, vol_ball
from .specfun import DEFAULT_PRECISION, Precision, bessel_first_zero, bessel_j, gamma, omega


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
    pp = p / (p - 1.0)
    return (lam + r ** pp) ** (1.0 / (1.0 - alpha))


def extremal_h_deriv(alpha: float, p: float, lam: float, r: float) -> float:
    """d/dr of extremal_h; zero at r=0, negative elsewhere."""
    if r == 0.0:
        extremal_h(alpha, p, lam, 0.0)   # parameter validation
        return 0.0
    pp = p / (p - 1.0)
    expo = 1.0 / (1.0 - alpha)
    return expo * pp * r ** (pp - 1.0) * (lam + r ** pp) ** (expo - 1.0)


def truncated_extremal(params: SobolevParams, lam: float = 1.0,
                       r_cut: float | None = None,
                       nodes: int = 241) -> RadialFunction:
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
    alpha, p = params.alpha, params.p
    pp = params.p_prime
    if r_cut is None:
        r_cut = 1000.0 * lam ** (1.0 / pp)
    if not r_cut > 0.0:
        raise DomainError("truncation radius must be positive")
    expo = 1.0 / (1.0 - alpha)
    shift = (lam + r_cut ** pp) ** expo

    def val(r):
        r = np.asarray(r, dtype=float)
        h = (lam + np.abs(r) ** pp) ** expo
        return np.where(r <= r_cut, np.maximum(h - shift, 0.0), 0.0)

    def dval(r):
        r = np.asarray(r, dtype=float)
        rr = np.maximum(np.abs(r), 1e-300)
        core = expo * pp * rr ** (pp - 1.0) * (lam + rr ** pp) ** (expo - 1.0)
        return np.where((r <= 0.0) | (r >= r_cut), 0.0, core)

    grid = np.concatenate([[0.0], np.geomspace(r_cut * 1e-6, r_cut, nodes - 1)])
    return RadialFunction(grid, val(grid), value_fn=val, deriv_fn=dval)


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

def _shoot(lam, r, mids, A_nodes, A_mids, N, record=False):
    """RK4 on phi' = psi/A, psi' = -lam A phi from r[0] with series data."""
    r0 = r[0]
    phi = 1.0 - lam * r0 * r0 / (2.0 * N)
    psi = -lam * A_nodes[0] * r0 / N
    trace = [phi] if record else None
    for k in range(r.size - 1):
        h = r[k + 1] - r[k]
        a0, am, a1 = A_nodes[k], A_mids[k], A_nodes[k + 1]
        d1p = psi / a0
        d1q = -lam * a0 * phi
        p2 = phi + 0.5 * h * d1p
        q2 = psi + 0.5 * h * d1q
        d2p = q2 / am
        d2q = -lam * am * p2
        p3 = phi + 0.5 * h * d2p
        q3 = psi + 0.5 * h * d2q
        d3p = q3 / am
        d3q = -lam * am * p3
        p4 = phi + h * d3p
        q4 = psi + h * d3q
        d4p = q4 / a1
        d4q = -lam * a1 * p4
        phi += h * (d1p + 2.0 * d2p + 2.0 * d3p + d4p) / 6.0
        psi += h * (d1q + 2.0 * d2q + 2.0 * d3q + d4q) / 6.0
        if record:
            trace.append(phi)
    return (phi, trace) if record else phi


def fk_eigenvalue(space: ModelSpace, R: float,
                  precision: Precision = DEFAULT_PRECISION,
                  steps: int = 1100) -> EigenResult:
    """First Dirichlet eigenvalue of the radial Laplacian on B(R).

    Solves -(A phi')' = lam A phi with A the space's radial area density,
    phi'(0)=0, phi(R)=0.  A fourth-order one-step scheme integrates from a
    series start near zero on a grid graded geometrically through the
    coordinate singularity; the eigenvalue bracket seeded by the Euclidean
    closed form j_{N/2-1}^2/R^2 is widened geometrically, then bisected on
    the sign of phi(R).
    """
    _require_radial(space, R)
    N = space.effective_dimension
    nu = N / 2.0 - 1.0
    r0 = R * 1e-8
    graded = np.geomspace(r0, 0.1 * R, max(200, steps // 3))
    uniform = np.linspace(0.1 * R, R, steps)
    r = np.unique(np.concatenate([graded, uniform]))
    mids = 0.5 * (r[:-1] + r[1:])
    with np.errstate(over="ignore"):
        A_nodes = space.content(r)
        A_mids = space.content(mids)
    k = bessel_first_zero(nu) / R
    guess = k * k
    # the density rises with r, so its nodes bound it on the midpoints too
    if not (math.isfinite(guess) and np.isfinite(A_nodes[-1])
            and A_nodes[0] > 0.0):
        raise DomainError(
            f"radius {R!r} puts the radial density or the eigenvalue "
            "outside double precision")
    lo, hi = 0.5 * guess, 2.0 * guess
    iterations = 0
    while _shoot(lo, r, mids, A_nodes, A_mids, N) <= 0.0:
        lo *= 0.5
        iterations += 1
        if iterations > precision.max_iter:
            raise ConvergenceError(
                f"no lower shooting bracket below lambda={lo:g}",
                bracket=(lo, hi))
    while _shoot(hi, r, mids, A_nodes, A_mids, N) > 0.0:
        hi *= 2.0
        iterations += 1
        if iterations > precision.max_iter:
            raise ConvergenceError(
                f"no sign change up to lambda={hi:g}", bracket=(lo, hi))
    while hi - lo > 1e-12 * hi:
        iterations += 1
        if iterations > max(precision.max_iter, 80):
            raise ConvergenceError(
                f"bisection stalled at width {hi - lo:g}", bracket=(lo, hi))
        mid = 0.5 * (lo + hi)
        if _shoot(mid, r, mids, A_nodes, A_mids, N) > 0.0:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    end, trace = _shoot(lam, r, mids, A_nodes, A_mids, N, record=True)

    vals = np.minimum.accumulate(np.clip(np.asarray(trace), 0.0, None))
    vals[-1] = 0.0
    grid = np.concatenate([[0.0], r])
    vals = np.concatenate([[1.0], vals])
    # thin to ~256 nodes so downstream quadratures of the interpolant stay
    # cheap; node values are scheme-accurate, the quotient is variational
    stride = max(1, grid.size // 256)
    keep = np.unique(np.concatenate([[0, grid.size - 1],
                                     np.arange(2, grid.size, stride)]))
    phi = RadialFunction(grid[keep], vals[keep])
    return EigenResult(lambda_1=lam, eigenfunction=phi,
                       iterations=iterations, mismatch=abs(end))


def fk_check(space: ModelSpace, R: float,
             precision: Precision = DEFAULT_PRECISION) -> QuotientReport:
    """lambda_1(B_R) vol(B_R)^{2/N} >= Lambda = j^2 (omega_N AVR)^{2/N}.

    Scale-invariant product against the sharp Faber-Krahn constant; the
    margin is quotient - constant (lower-bound direction), zero exactly
    when the space is a Euclidean ball configuration.
    """
    eig = fk_eigenvalue(space, R, precision)
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
    by quadrature here so the identities stay testable.
    """
    jnu = bessel_first_zero(nu)
    i0 = integrate(lambda t: t * bessel_j(nu, jnu * t) ** 2, 0.0, 1.0,
                   rel_tol=1e-12, abs_tol=1e-15)
    i1 = integrate(lambda t: t * bessel_j(nu + 1.0, jnu * t) ** 2, 0.0, 1.0,
                   rel_tol=1e-12, abs_tol=1e-15)
    return (i0, i1)


def bessel_test_profile(N: float, R: float, nodes: int = 257) -> RadialFunction:
    """u_R(r) = r^{-nu} J_nu(j_nu r / R), nu = N/2 - 1, on [0, R].

    The r^{-nu} prefactor is finite at zero by the Bessel series:
    u_R(0) = (j_nu / 2R)^nu / Gamma(nu + 1).
    """
    nu = N / 2.0 - 1.0
    jnu = bessel_first_zero(nu)
    k = jnu / R
    tiny = R * 1e-12
    at_zero = (k / 2.0) ** nu / gamma(nu + 1.0)

    def val_scalar(rr):
        if rr < tiny:
            return at_zero
        return max(rr ** (-nu) * bessel_j(nu, min(k * rr, jnu)), 0.0)

    def dval_scalar(rr):
        if rr < tiny:
            return 0.0
        return -k * rr ** (-nu) * bessel_j(nu + 1.0, min(k * rr, jnu))

    def val(r):
        arr = np.asarray(r, dtype=float)
        if arr.ndim == 0:
            return val_scalar(float(arr))
        flat = np.array([val_scalar(float(x)) for x in arr.ravel()])
        return flat.reshape(arr.shape)

    def dval(r):
        arr = np.asarray(r, dtype=float)
        if arr.ndim == 0:
            return dval_scalar(float(arr))
        flat = np.array([dval_scalar(float(x)) for x in arr.ravel()])
        return flat.reshape(arr.shape)

    grid = np.linspace(0.0, R, nodes)
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
    always, and Q(R) -> Lambda as R grows; the two displayed integral
    limits are checked within 1% at the largest R.  Monotonicity of Q is
    recorded as a flag, never a failure.
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
        u = bessel_test_profile(N, R)
        k = jnu / R

        def fg(r, u=u):
            return float(u.deriv(r)) ** 2

        def dfg(r, u=u, k=k):
            rr = max(float(r), R * 1e-12)
            j1 = bessel_j(nu + 1.0, min(k * rr, jnu))
            second = -k * rr ** (-nu) * (
                k * bessel_j(nu, min(k * rr, jnu)) - (2 * nu + 1) / rr * j1)
            return 2.0 * float(u.deriv(rr)) * second

        def fm(r, u=u):
            return float(u.value(r)) ** 2

        def dfm(r, u=u):
            return 2.0 * float(u.value(r)) * float(u.deriv(r))

        num = layer_cake_radial_integral(space, fg, dfg, R)
        den = layer_cake_radial_integral(space, fm, dfm, R)
        vol = vol_ball(space, R)
        q = num / den * vol ** (2.0 / N)
        rows.append(FkSweepRow(R=R, quotient=q, grad_integral=num,
                               mass_integral=den, vol=vol,
                               margin=q - lambda_g))
    i0, i1 = bessel_level_integrals(nu)
    coef = N * omega(N) * avr(space)
    grad_expected = jnu ** 2 * coef * i1
    mass_expected = coef * i0
    last = rows[-1]
    grad_rel = abs(last.grad_integral - grad_expected) / grad_expected
    mass_rel = abs(last.mass_integral / last.R ** 2 - mass_expected) / mass_expected
    limits = {"grad_expected": grad_expected,
              "grad_actual": last.grad_integral,
              "grad_rel_err": grad_rel,
              "mass_expected": mass_expected,
              "mass_actual": last.mass_integral / last.R ** 2,
              "mass_rel_err": mass_rel}
    limits_ok = bool(grad_rel <= 0.01 and mass_rel <= 0.01)
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
    def tent(r_max):
        return RadialFunction.from_callable(
            lambda r, m=r_max: np.maximum(1.0 - np.asarray(r) / m, 0.0),
            r_max, nodes=161,
            deriv=lambda r, m=r_max: np.where(np.asarray(r) < m, -1.0 / m, 0.0))

    def gauss(sigma, cut):
        c = math.exp(-(cut / sigma) ** 2)
        return RadialFunction.from_callable(
            lambda r, s=sigma, c=c: np.maximum(
                np.exp(-(np.asarray(r) / s) ** 2) - c, 0.0),
            cut, nodes=221,
            deriv=lambda r, s=sigma, cut=cut: np.where(
                np.asarray(r) < cut,
                -2.0 * np.asarray(r) / s ** 2 * np.exp(-(np.asarray(r) / s) ** 2),
                0.0))

    def trapezoid(r_in, r_out):
        w = r_out - r_in
        # the kink at r_in must be a node; the even grid misses it
        return RadialFunction.from_callable(
            lambda r, a=r_in, b=r_out, w=w: np.clip(
                (b - np.asarray(r)) / w, 0.0, 1.0),
            r_out, grid=np.union1d(np.linspace(0.0, r_out, 161), [r_in]),
            deriv=lambda r, a=r_in, b=r_out, w=w: np.where(
                (np.asarray(r) > a) & (np.asarray(r) < b), -1.0 / w, 0.0))

    def quartic(r_max):
        return RadialFunction.from_callable(
            lambda r, m=r_max: np.maximum(1.0 - (np.asarray(r) / m) ** 2, 0.0) ** 2,
            r_max, nodes=161,
            deriv=lambda r, m=r_max: np.where(
                np.asarray(r) < m,
                -4.0 * np.asarray(r) / m ** 2
                * np.maximum(1.0 - (np.asarray(r) / m) ** 2, 0.0),
                0.0))

    def exp_bump(rate, cut):
        c = math.exp(-rate * cut)
        return RadialFunction.from_callable(
            lambda r, k=rate, c=c: np.maximum(np.exp(-k * np.asarray(r)) - c, 0.0),
            cut, nodes=221,
            deriv=lambda r, k=rate, cut=cut: np.where(
                np.asarray(r) < cut, -k * np.exp(-k * np.asarray(r)), 0.0))

    def power_bump(cut):
        c = (1.0 + cut * cut) ** -2
        return RadialFunction.from_callable(
            lambda r, c=c: np.maximum((1.0 + np.asarray(r) ** 2) ** -2 - c, 0.0),
            cut, nodes=221,
            deriv=lambda r, cut=cut: np.where(
                np.asarray(r) < cut,
                -4.0 * np.asarray(r) * (1.0 + np.asarray(r) ** 2) ** -3, 0.0))

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
              R_list=None) -> SuiteResult:
    """Runs one named verification suite and aggregates pass/fail.

    A suite passes iff every row's margin clears -1e-6 times the relevant
    constant (1 for ratio-style rows).
    """
    desc = space.descriptor()
    N = space.effective_dimension
    if name == "polya-szego":
        rows = _polya_rows(space, p)
        tol = 1e-6
    elif name == "sobolev":
        rows = [SuiteRow(label, sobolev_quotient(space, u, p))
                for label, u in curated_profiles()]
        sob = SobolevParams(n=N, p=p)
        rows.append(SuiteRow("extremal_endpoint",
                             sobolev_quotient(space, truncated_extremal(sob), p)))
        tol = 1e-6 * rows[0].report.rhs_constant
    elif name == "gn":
        if params is None:
            params = SobolevParams(n=N, p=p, alpha=2.0)
        rows = [SuiteRow(label, gn_quotient(space, u, params))
                for label, u in curated_profiles()]
        rows.append(SuiteRow("extremal_gn",
                             gn_quotient(space, truncated_extremal(params),
                                         params)))
        tol = 1e-6 * rows[0].report.rhs_constant
    elif name == "faber-krahn":
        radii = [1.0, 5.0, 20.0] if R_list is None else list(R_list)
        rows = [SuiteRow(f"R={R:g}", fk_check(space, float(R))) for R in radii]
        tol = 1e-6 * rows[0].report.rhs_constant
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
        return SuiteResult(name=name, space=desc, rows=tuple(rows),
                           passed=table.passed)
    else:
        raise DomainError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    passed = bool(all(row.report.margin >= -tol for row in rows))
    return SuiteResult(name=name, space=desc, rows=tuple(rows), passed=passed)
