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
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .constants import (
    SobolevParams,
    fk_constant,
    gn_sharp_constant,
    gn_theta,
    sobolev_constant,
)
from .errors import ConvergenceError, DomainError, InvariantViolation
from .quadrature import Hermite
from .rearrange import (
    RadialFunction,
    grad_lp_norm,
    layer_cake_radial_integral,
    lq_norm,
    polya_szego_check,
)
from .spaces import ModelSpace, _radii, minkowski_content_ball, vol_ball
from .specfun import (_SERIES_SWITCH, _brent, bessel_first_zero, bessel_j,
                      bessel_j_scaled, log_gamma, omega)

_EXTREMAL_NODES = 241   # extremal grid, geometric from its scale to r_cut
_SHOOT_STEPS = 1100     # RK4 steps on [R/10, R]; a third as many graded below
_BRENT_XTOL = 2e-12     # Brent stops within _BRENT_XTOL + _BRENT_RTOL |mu|
_BRENT_RTOL = 1e-12


@dataclass(frozen=True)
class QuotientReport:
    lhs: float
    rhs_constant: float
    quotient: float
    margin: float
    params: dict


@dataclass(frozen=True)
class EigenResult:
    """The first Dirichlet eigenvalue that ``fk_eigenvalue`` solved for.

    ``iterations`` counts the solve's traces.  The solve stops at its root
    mu = lambda_1 R^2 and keeps the shot (s0, grid, N) of ``_trace`` and
    the radii of its nodes, so ``eigenfunction`` (one trace with slopes)
    and ``mismatch`` = |phi(R)| (one end-only trace) are built on first
    access, and never by a caller that reads lambda_1 alone.
    """
    lambda_1: float
    iterations: int
    mu: float
    radii: np.ndarray = field(repr=False, compare=False)
    shot: tuple = field(repr=False, compare=False)

    @cached_property
    def mismatch(self) -> float:
        """|phi(R)| at mu: the same bits as the eigenfunction trace's last
        node, by ``_trace_end``."""
        return abs(_trace_end(self.mu, *self.shot))

    @cached_property
    def eigenfunction(self) -> RadialFunction:
        """The ``Hermite`` of the trace's node values and slopes at mu, the
        values clipped at 0 and made nonincreasing; 0 from R on."""
        trace, dtrace = _trace(self.mu, *self.shot, slopes=True)
        r = self.radii
        R = float(r[-1])
        vals = np.minimum.accumulate(np.clip(trace, 0.0, None))
        vals[-1] = 0.0
        grid = np.concatenate([[0.0], r])
        vals = np.concatenate([[1.0], vals])
        # thin to ~256 nodes so downstream quadratures stay cheap; node
        # values and slopes are scheme-accurate, the quotient is variational
        stride = max(1, grid.size // 256)
        keep = np.unique(np.concatenate([[0, grid.size - 1],
                                         np.arange(2, grid.size, stride)]))
        # in x = r / R: in r the cubic's coefficients scale like R^-3
        cubic = Hermite(grid[keep] / R, vals[keep],
                        np.append(0.0, dtrace)[keep])
        # 0 from R on: the cubic's own value there is a rounding off 0
        return RadialFunction(
            grid[keep], lambda r: np.where(r < R, cubic(r / R), 0.0),
            lambda r: cubic.jet(np.asarray(r) / R)[1] / R)


# ---------------------------------------------------------------------------
# extremal families

def _h(lam, pp, expo, r):
    # h(r) = (lam + r^{p'})^expo with expo = 1/(1-alpha), r >= 0 or an array;
    # log1p keeps r^{p'}/lam, which expo (about -1e11 near alpha = 1) would
    # magnify, from rounding away in lam + r^{p'}
    return lam ** expo * np.exp(expo * np.log1p(r ** pp / lam))


def _h_deriv(lam, pp, expo, r):
    return expo * pp * r ** (pp - 1.0) * _h(lam, pp, expo, r) / (lam + r ** pp)


def _cut(g, dg, cut: float, grid) -> RadialFunction:
    """The exact profile (g - g(cut))_+, with slope g' on [0, cut] (the
    left slope at the cut) and 0 past it.

    ``g`` and ``dg`` are vectorized, and g is nonincreasing on [0, inf), so
    the profile vanishes past cut; ``grid`` runs from 0 to cut.  The shift
    is ``g`` at the float ``cut``.
    """
    shift = g(cut)

    def val(r):
        return np.maximum(g(r) - shift, 0.0)

    def dval(r):
        return np.where(r <= cut, dg(r), 0.0)

    return RadialFunction(grid, val, dval)


def truncated_extremal(params: SobolevParams, lam: float = 1.0,
                       r_cut: float | None = None) -> RadialFunction:
    """Compactly supported shift of the extremal: (h - h(r_cut))_+.

    Defaults scale r_cut with the family dilation lam^{1/p'}, so quotients
    of different lam agree exactly up to quadrature error.  The truncation
    biases the Sobolev quotient by O(sqrt(lam)/r_cut) for the endpoint
    alpha = n/(n-p) profile (slow-decaying gradient tail) and by
    O((lam/r_cut)^2)-level terms for interior alpha; pick r_cut from that
    budget.

    The grid is 0 and ``_EXTREMAL_NODES - 1`` geometric nodes up to r_cut
    from min(1e-6 r_cut, 1e-2 (lam (alpha - 1))^{1/p'}): near alpha = 1, h
    falls like exp(-r^{p'}/(lam (alpha - 1))), and the first segment would
    otherwise hold the whole profile.
    """
    if not (isinstance(lam, (int, float)) and lam > 0.0):
        raise DomainError(f"lambda must be positive, got {lam!r}")
    pp = params.p_prime
    expo = 1.0 / (1.0 - params.alpha)
    if r_cut is None:
        r_cut = 1000.0 * lam ** (1.0 / pp)
    if not r_cut > 0.0:
        raise DomainError("truncation radius must be positive")
    start = min(1e-6 * r_cut,
                1e-2 * (lam * (params.alpha - 1.0)) ** (1.0 / pp))
    grid = np.concatenate([[0.0], np.geomspace(start, r_cut,
                                               _EXTREMAL_NODES - 1)])
    try:
        return _cut(lambda r: _h(lam, pp, expo, r),
                    lambda r: _h_deriv(lam, pp, expo, r), float(r_cut), grid)
    except OverflowError:       # float ** raises where numpy would give inf
        raise DomainError(f"(lam + r^p')^(1/(1-alpha)) on [0, r_cut] lies "
                          f"outside double precision at lam = {lam!r}, "
                          f"r_cut = {r_cut!r}, p' = {pp!r}") from None


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
    rhs = sobolev_constant(params, space.avr())
    return QuotientReport(
        lhs=lhs, rhs_constant=rhs, quotient=quotient, margin=rhs - quotient,
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
    top, low = lq_norm(space, u, alpha * p, alpha * (p - 1.0) + 1.0)
    denominator = grad ** theta * low ** (1.0 - theta)
    if not 0.0 < denominator < math.inf:
        raise DomainError(f"|grad u|_p^theta |u|_q^(1-theta) = "
                          f"{denominator!r} lies outside double precision "
                          f"at theta = {theta!r}")
    quotient = top / denominator
    rhs = gn_sharp_constant(params, space.avr())
    return QuotientReport(
        lhs=top, rhs_constant=rhs, quotient=quotient, margin=rhs - quotient,
        params={"p": p, "alpha": alpha, "theta": theta, "direction": "upper"})


# ---------------------------------------------------------------------------
# radial Dirichlet eigenvalue by shooting

def _mul(a, b):
    """The 2x2 products a @ b of matrices stacked as (2, 2, n) arrays, each
    entry a_i0 b_0j + a_i1 b_1j in that order."""
    return a[:, 0, None] * b[None, 0] + a[:, 1, None] * b[None, 1]


def _step_matrices(mu, h, half, sixth, rho_mid, inv_mid, rho_end, inv_end):
    """The RK4 step matrices on [[0, 1/rho], [-mu rho, 0]], second row
    divided by rho_end, as one (2, 2, n) array over all n steps.

    The stages are written out entry by entry, without the terms that
    multiply a structural zero of generic 2x2 products (0 x + y is y);
    every other term keeps the generic order of operations, so the entries
    are the same bits.  ``half``, ``sixth``, ``inv_mid`` and ``inv_end``
    are h/2, h/6 and 1/rho, which do not depend on mu.
    """
    b, d = -mu * rho_mid, -mu * rho_end
    k2 = (inv_mid * (half * -mu), inv_mid, b, b * half)
    k3 = (inv_mid * (half * b), inv_mid * (1.0 + half * k2[3]),
          b * (1.0 + half * k2[0]), b * (half * inv_mid))
    k4 = (inv_end * (h * k3[2]), inv_end * (1.0 + h * k3[3]),
          d * (1.0 + h * k3[0]), d * (h * k3[1]))
    return np.array([
        [1.0 + sixth * (2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
         sixth * (1.0 + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])],
        [sixth * (-mu + 2.0 * k2[2] + 2.0 * k3[2] + k4[2]) / rho_end,
         (1.0 + sixth * (2.0 * k2[3] + 2.0 * k3[3] + k4[3])) / rho_end]])


def _start(mu, s0, N):
    """(phi, phi') at s0 from the series start phi = 1 - mu s^2 / (2N)."""
    return 1.0 - mu * s0 * s0 / (2.0 * N), -mu * s0 / N


def _trace(mu, s0, grid, N, slopes=False):
    """phi at every node of the RK4 scheme for -(A phi')' = mu A phi, R = 1,
    and with ``slopes`` phi' there too.

    The state is (phi, psi/A), so one step is the 2x2 matrix of RK4 on
    [[0, 1/rho], [-mu rho, 0]] with rho = A/A_k, rescaled by A_k/A_{k+1}
    at its end: only the density ratios enter, never 1/A.  Each step
    matrix is built in closed form by ``_step_matrices`` from ``grid``, the
    arrays that do not depend on mu, and the steps are multiplied by a
    doubling prefix scan of explicit 2x2 products, O(n log n) work.
    ``_trace_end`` gives phi(R) alone, the same bits, by an end-only
    product in O(n) work.
    """
    M = _step_matrices(mu, *grid)
    step = 1
    while step < M.shape[-1]:
        M[..., step:] = _mul(M[..., step:], M[..., :-step])
        step *= 2
    start = _start(mu, s0, N)
    phi = np.concatenate([start[:1], M[0, 0] * start[0] + M[0, 1] * start[1]])
    if not slopes:
        return phi
    return phi, np.concatenate([start[1:],
                                M[1, 0] * start[0] + M[1, 1] * start[1]])


def _trace_end(mu, s0, grid, N):
    """phi(R), the last node of ``_trace``, in O(n) work.

    Neighbouring step matrices are paired from the right, later times
    earlier, with the first one left over when their count is odd, until
    one product remains.  That is the association the prefix scan gives
    its last element, so the result is the same bits.
    """
    M = _step_matrices(mu, *grid)
    while M.shape[-1] > 1:
        odd = M.shape[-1] % 2
        paired = _mul(M[..., odd + 1::2], M[..., odd::2])
        M = np.concatenate([M[..., :1], paired], axis=-1) if odd else paired
    start = _start(mu, s0, N)
    return M[0, 0, 0] * start[0] + M[0, 1, 0] * start[1]


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
    method finds it to 1e-12 relative.  Brent's evaluations read phi(R)
    alone, so they call ``_trace_end``.  ``iterations`` counts trace
    evaluations, Brent's included.  The solve ends there: the result keeps
    mu and the shot, and builds the eigenfunction and ``mismatch`` =
    |phi(R)| from the trace at mu only when they are read.
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
    h = np.diff(r) / R
    rho_mid, rho_end = A_mids / A_nodes[:-1], A_nodes[1:] / A_nodes[:-1]
    shot = (r0 / R, (h, 0.5 * h, h / 6.0, rho_mid, 1.0 / rho_mid,
                     rho_end, 1.0 / rho_end), N)
    traces = 0

    def end(mu):
        nonlocal traces
        traces += 1
        return _trace_end(mu, *shot)

    def end_and_changes(mu):
        nonlocal traces
        traces += 1
        trace = _trace(mu, *shot)
        positive = trace > 0.0
        return trace[-1], np.count_nonzero(positive[1:] != positive[:-1])

    lo, hi = 0.0, 2.0 * j * j
    end_lo = 1.0                # phi = 1 at mu = 0
    end_hi, changes = end_and_changes(hi)
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
        end_mid, mid_changes = end_and_changes(mid)
        if mid_changes == 0:
            lo, end_lo = mid, end_mid
        else:
            hi, end_hi, changes = mid, end_mid, mid_changes
    try:
        mu = _brent(end, lo, hi, end_lo, end_hi, _BRENT_XTOL, _BRENT_RTOL)
    except ConvergenceError as exc:     # its bracket is in mu; report lambda
        lo, hi = exc.bracket
        raise ConvergenceError(
            str(exc), bracket=(lo / R / R, hi / R / R)) from None
    return EigenResult(lambda_1=mu / R / R, iterations=traces, mu=mu,
                       radii=r, shot=shot)


def fk_check(space: ModelSpace, R: float) -> QuotientReport:
    """lambda_1(B_R) vol(B_R)^{2/N} >= Lambda = j^2 (omega_N AVR)^{2/N}.

    Scale-invariant product against the sharp Faber-Krahn constant; the
    margin is quotient - constant (lower-bound direction), zero exactly
    when the space is a Euclidean ball configuration.
    """
    N = space.effective_dimension
    rhs = fk_constant(N, space.avr())     # checks n before the shooting
    eig = fk_eigenvalue(space, R)
    vol = vol_ball(space, R)
    quotient = eig.lambda_1 * vol ** (2.0 / N)
    return QuotientReport(
        lhs=eig.lambda_1, rhs_constant=rhs, quotient=quotient,
        margin=quotient - rhs,
        params={"R": R, "vol": vol, "direction": "lower"})


# ---------------------------------------------------------------------------
# Faber-Krahn sharpness sweep with Bessel test functions

def _bessel_jet(nu: float, x):
    """(U, U', U'') of U(x) = S_nu(min(x, j_nu)), with U(0) = 1.

    S = ``bessel_j_scaled``, which stays finite at large nu and small x
    where x^{-nu} J_nu(x) does not.  U is the test function
    u_R(r) = r^{-nu} J_nu(k r) = c U(k r), k = j_nu / R, at unit height,
    and U' = -x S_{nu+1} / (2 nu + 2), U'' = -U - (2 nu + 1) U' / x are
    read from S_nu and S_{nu+1}, both from one ``bessel_j_scaled`` call.
    """
    x = np.minimum(x, bessel_first_zero(nu))
    s0, s1 = bessel_j_scaled((nu, nu + 1.0), x)
    return (np.maximum(s0, 0.0), -x / (2.0 * nu + 2.0) * s1,
            (2.0 * nu + 1.0) / (2.0 * nu + 2.0) * s1 - s0)


def _failed_limits(limits: dict) -> tuple:
    """A line naming each extrapolated limit more than 1% off, or NaN."""
    errs = [(k, limits[f"{k}_extrapolated_rel_err"]) for k in ("grad", "mass")]
    return tuple(f"{k} limit: extrapolated relative error {err:.3g} > 0.01"
                 for k, err in errs if not err <= 0.01)


@dataclass(frozen=True)
class FkSweepTable:
    rows: tuple
    lambda_g: float
    limits: dict
    failed: tuple       # a line per failed limit: _failed_limits(limits)
    passed: bool


def fk_sharpness_sweep(space: ModelSpace, R_list) -> FkSweepTable:
    """Rayleigh quotients of the Bessel test functions across radii.

    Q(R) = (int |grad u_R|^2 dm / int u_R^2 dm) vol(B_R)^{2/N}, each
    integral evaluated through the layer-cake identity; each row's ``lhs``
    is the gradient integral.  Q(R) >= Lambda always, and Q(R) -> Lambda
    as R grows.  The two displayed integrals tend to closed forms with a
    bias falling like 1/R, so their limits are Richardson-extrapolated in
    1/R from the two largest radii (the last row alone for one radius) and
    checked within 1%, the raw errors at the largest R reported beside
    them.  ``passed`` needs both limits and every margin >= -1e-6 Lambda.

    All the radii, ascending, go to one ``layer_cake_radial_integral``
    call, which evaluates them in groups and returns vol(B_R) beside the
    integrals.  Each row has the bits of a sweep over its radius alone:
    the Bessel series (x <= 9) is elementwise, and where j_nu > 9 each
    radius's nodes make their own Bessel call, as a Miller recurrence
    starts from the order its call's largest x needs.
    Where that call raises, the radii are taken again one at a time, so
    the smallest failing radius raises its own error, as in a loop.
    """
    R_sorted = sorted(float(R) for R in R_list)
    if not R_sorted or R_sorted[0] <= 0.0:
        raise DomainError("R_list must contain positive radii")
    N = space.effective_dimension
    nu = N / 2.0 - 1.0
    lambda_g = fk_constant(N, space.avr())     # checks n before j_nu
    jnu = bessel_first_zero(nu)

    def integrands(r, R):
        # (U'(kr)^2, U(kr)^2) and their slopes in r, k = j_nu / R per node
        if jnu <= _SERIES_SWITCH:
            u, du, d2u = _bessel_jet(nu, jnu / R * r)
        else:
            # a Miller recurrence (x > 9) starts from the order its call's
            # largest x needs: a call per ball radius's run of nodes, whose
            # bits no other radius's nodes can move
            cuts = np.flatnonzero(R[1:] != R[:-1]) + 1
            u, du, d2u = map(np.concatenate, zip(*(
                _bessel_jet(nu, x) for x in np.split(jnu / R * r, cuts))))
        return (np.stack([du ** 2, u ** 2]),
                jnu / R * np.stack([2.0 * du * d2u, 2.0 * u * du]))

    def row(R, num, den, vol):
        k = jnu / R
        # u_R = c U(kr) with c = (k/2)^nu / Gamma(nu + 1): c^2 cancels from
        # Q and scales only the displayed integrals.  It stays below 1e307
        # wherever vol(B_R) <= omega_N R^N passes its guard
        c2 = math.exp(2.0 * (nu * math.log(k / 2.0) - log_gamma(nu + 1.0)))
        grad, mass = c2 * k * k * num, c2 * den
        # a subnormal integral has lost its leading digits
        if not all(sys.float_info.min <= v < math.inf
                   for v in (num, den, grad, mass)):
            raise DomainError(f"radius {R!r} puts the test function's "
                              "integrals outside double precision")
        q = num / den * (k * vol ** (1.0 / N)) ** 2
        return QuotientReport(
            lhs=grad, rhs_constant=lambda_g, quotient=q, margin=q - lambda_g,
            params={"R": R, "direction": "lower"}), mass

    try:
        (nums, dens), vols = layer_cake_radial_integral(
            space, integrands, np.array(R_sorted))
    except (DomainError, InvariantViolation, ConvergenceError):
        # the radii again one at a time, so that the first radius to fail
        # raises its own error: its volume guard, its integrals, then row's
        for R in R_sorted:
            (num, den), vol = layer_cake_radial_integral(space, integrands, R)
            row(R, num, den, vol)
        raise
    rows, masses = zip(*map(row, R_sorted, nums.tolist(), dens.tolist(),
                            vols.tolist()))
    # int_0^1 t J_{nu+k}(j_nu t)^2 dt for k = 0 and 1: both are
    # J_{nu+1}(j_nu)^2 / 2, by orthogonality and because u_R is the exact
    # unit-ball eigenfunction
    level = 0.5 * bessel_j(nu + 1.0, jnu) ** 2
    coef = N * omega(N) * space.avr()
    i = max(len(rows) - 2, 0)       # the row before the last, if any
    R_prev, R_last = R_sorted[i], R_sorted[-1]
    limits = {}
    for name, expected, values in (
            ("grad", jnu ** 2 * coef * level, [row.lhs for row in rows]),
            ("mass", coef * level,
             [m / R ** 2 for m, R in zip(masses, R_sorted)])):
        raw = values[-1]
        # Richardson in 1/R from the two largest radii; raw for one radius
        limit = raw if R_prev == R_last else (
            (R_last * raw - R_prev * values[i]) / (R_last - R_prev))
        limits.update({f"{name}_expected": expected, f"{name}_actual": raw,
                       f"{name}_rel_err": abs(raw - expected) / expected,
                       f"{name}_extrapolated": limit,
                       f"{name}_extrapolated_rel_err":
                           abs(limit - expected) / expected})
    failed = _failed_limits(limits)
    passed = not failed and all(row.margin >= -1e-6 * lambda_g for row in rows)
    return FkSweepTable(rows=tuple(rows), lambda_g=lambda_g, limits=limits,
                        failed=failed, passed=passed)


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
        return _cut(lambda r: np.minimum((r_out - r) / w, 1.0),
                    lambda r: np.where(r > r_in, -1.0 / w, 0.0), r_out,
                    np.union1d(np.linspace(0.0, r_out, 161), [r_in]))

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


@dataclass(frozen=True)
class SuiteRow:
    label: str
    report: QuotientReport


@dataclass(frozen=True)
class SuiteResult:
    name: str
    rows: tuple
    failed: tuple       # a line for each failed gate beyond the margins
    passed: bool


def _polya_rows(space, p):
    rows = []
    for label, u in curated_profiles():
        res = polya_szego_check(space, u, p)
        rows.append(SuiteRow(label, QuotientReport(
            lhs=res.lhs, rhs_constant=1.0, quotient=res.ratio,
            margin=res.ratio - 1.0, params={"p": p, "direction": "lower"})))
    return rows, ()


def _sobolev_rows(space, p):
    rows = [SuiteRow(label, sobolev_quotient(space, u, p))
            for label, u in curated_profiles()]
    sob = SobolevParams(n=space.effective_dimension, p=p)
    rows.append(SuiteRow("extremal_endpoint",
                         sobolev_quotient(space, truncated_extremal(sob), p)))
    return rows, ()


def _gn_rows(space, p, alpha):
    params = SobolevParams(n=space.effective_dimension, p=p, alpha=alpha)
    rows = [SuiteRow(label, gn_quotient(space, u, params))
            for label, u in curated_profiles()]
    rows.append(SuiteRow("extremal_gn", gn_quotient(
        space, truncated_extremal(params), params)))
    return rows, ()


def _fk_rows(space, R):
    rows = [SuiteRow(f"R={r:g}", fk_check(space, float(r))) for r in R]
    if not rows:
        raise DomainError("faber-krahn needs at least one radius")
    return rows, ()


def _fk_sweep_rows(space, R):
    table = fk_sharpness_sweep(space, R)
    rows = [SuiteRow(f"R={row.params['R']:g}", row) for row in table.rows]
    return rows, table.failed


# each suite's own flags with their defaults (a tuple: a repeatable flag),
# and the function that turns a space and those flags into (rows, failed)
SUITES = {
    "polya-szego": ({"p": 2.0}, _polya_rows),
    "sobolev": ({"p": 2.0}, _sobolev_rows),
    "gn": ({"p": 2.0, "alpha": 2.0}, _gn_rows),
    "faber-krahn": ({"R": (1.0, 5.0, 20.0)}, _fk_rows),
    "fk-sweep": ({"R": tuple(np.geomspace(2.0, 500.0, 8))}, _fk_sweep_rows),
}


def run_suite(space: ModelSpace, name: str, tol: float | None = None,
              **flags) -> SuiteResult:
    """Runs one named verification suite and aggregates pass/fail.

    ``flags`` are the suite's own (``SUITES``), each defaulted when absent.
    A suite passes iff every row's margin clears -tol, by default 1e-6
    times the relevant constant (1 for ratio-style rows); the fk-sweep
    also needs its extrapolated limits within 1%.
    """
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from {[*SUITES]}")
    defaults, build = SUITES[name]
    if tol is not None and not tol > 0.0:
        raise DomainError(f"tolerance must be positive, got {tol!r}")
    rows, failed = build(space, **{**defaults, **flags})
    if tol is None:
        tol = 1e-6 * rows[0].report.rhs_constant
    passed = not failed and all(row.report.margin >= -tol for row in rows)
    return SuiteResult(name, tuple(rows), failed, passed)
