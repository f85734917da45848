"""Closed-form sharp constants for the inequalities on AVR-positive spaces.

Every formula is evaluated in log space and exponentiated at the end, since
the Gamma factors overflow for moderate dimension otherwise.  The notation
follows the inequalities themselves:

    AT(n,p)             best Euclidean Sobolev constant
    theta               Gagliardo-Nirenberg interpolation exponent
    G_{alpha,p,n}       best Euclidean Gagliardo-Nirenberg constant
    S_g   = AT(n,p) * AVR^{-1/n}
    K_gGN = G * AVR^{-theta/n}
    Lam_g = j_{n/2-1}^2 * (omega_n * AVR)^{2/n}     (Faber-Krahn)
    R_g   = 1 / Lam_g                                (Rayleigh)

Real (non-integer) dimension is admitted where the CD(0,N) statements allow
it; the Sobolev/GN/FK constants keep the constraints of their theorems.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError
from .specfun import bessel_first_zero, log_gamma, log_omega, omega

_ENDPOINT_SLACK = 1.0 + 1e-12


def _check_avr(avr):
    # below the smallest normal double, avr^(-1/n) (n near 1) and the
    # Rayleigh constant can overflow
    if not (isinstance(avr, (int, float)) and sys.float_info.min <= avr <= 1.0):
        raise DomainError(f"avr must be a normal double in (0, 1], got {avr!r}")


@dataclass(frozen=True)
class SobolevParams:
    """Exponent bundle (n, p, alpha) with 1 < p < n, 1 < alpha <= n/(n-p).

    ``alpha`` defaults to the Sobolev endpoint n/(n-p), where the
    Gagliardo-Nirenberg family degenerates to the Sobolev inequality.
    """

    n: float
    p: float
    alpha: float = None

    def __post_init__(self):
        if not (isinstance(self.n, (int, float)) and math.isfinite(self.n)
                and self.n > 1.0):
            raise DomainError(f"dimension violated: need n > 1, got n={self.n}")
        if not (isinstance(self.p, (int, float)) and math.isfinite(self.p)
                and 1.0 < self.p < self.n):
            raise DomainError(
                f"p < n violated or p <= 1: got p={self.p}, n={self.n}")
        endpoint = self.n / (self.n - self.p)
        if self.alpha is None:
            object.__setattr__(self, "alpha", endpoint)
        a = self.alpha
        if not (isinstance(a, (int, float)) and math.isfinite(a)
                and 1.0 < a <= endpoint * _ENDPOINT_SLACK):
            raise DomainError(
                f"alpha must lie in (1, n/(n-p)] = (1, {endpoint:g}], got {a}")

    @property
    def p_star(self) -> float:
        return self.n * self.p / (self.n - self.p)

    @property
    def p_prime(self) -> float:
        return self.p / (self.p - 1.0)


@dataclass(frozen=True)
class SharpConstants:
    """All sharp constants for one (n, p, alpha, AVR) quadruple."""

    omega_n: float
    at: float
    theta: float
    gn: float
    sobolev: float
    gn_sharp: float
    fk: float
    rayleigh: float
    avr: float


def aubin_talenti(params: SobolevParams) -> float:
    """AT(n,p), the sharp Euclidean Sobolev constant."""
    n, p = params.n, params.p
    log_ratio = (log_gamma(1.0 + 0.5 * n) + log_gamma(n)
                 - log_gamma(n / p) - log_gamma(1.0 + n - n / p))
    return math.exp(-0.5 * math.log(math.pi) - math.log(n) / p
                    + (1.0 - 1.0 / p) * math.log((p - 1.0) / (n - p))
                    + log_ratio / n)


def gn_theta(params: SobolevParams) -> float:
    """Interpolation exponent theta = p*(alpha-1)/(alpha p (p*-alpha p+alpha-1))."""
    n, p, a = params.n, params.p, params.alpha
    ps = params.p_star
    den = a * p * (ps - a * p + a - 1.0)
    if not den > 0.0:
        raise DomainError(
            f"theta denominator must be positive, got {den:g} "
            f"(n={n}, p={p}, alpha={a})")
    theta = ps * (a - 1.0) / den
    return min(theta, 1.0)


def gn_constant(params: SobolevParams) -> float:
    """Best Euclidean Gagliardo-Nirenberg constant G_{alpha,p,n}."""
    n, p, a = params.n, params.p, params.alpha
    th = gn_theta(params)
    pp = params.p_prime
    A = (a * (p - 1.0) + 1.0) / (a - 1.0)
    s = A - n / pp
    if not s > 0.0:
        raise DomainError(
            f"beta-function argument must be positive, got {s:g}")
    # B(A - n/p', n/p') = Gamma(s) Gamma(n/p') / Gamma(A) since s + n/p' = A
    log_beta = log_gamma(s) + log_gamma(n / pp) - log_gamma(A)
    log_num = ((th / p + th / n) * math.log(pp / n)
               + math.log(s) / (a * p)
               + (th / p - 1.0 / (a * p)) * math.log(A))
    log_den = (th / n) * (log_omega(n) + log_beta)
    return math.exp(th * math.log((a - 1.0) / pp) + log_num - log_den)


def sobolev_constant(params: SobolevParams, avr: float) -> float:
    """S_g = AT(n,p) * avr^{-1/n}."""
    _check_avr(avr)
    return aubin_talenti(params) * avr ** (-1.0 / params.n)


def gn_sharp_constant(params: SobolevParams, avr: float) -> float:
    """K_g^GN = G_{alpha,p,n} * avr^{-theta/n}."""
    _check_avr(avr)
    return gn_constant(params) * avr ** (-gn_theta(params) / params.n)


def fk_constant(n: float, avr: float) -> float:
    """Lam_g = j_{n/2-1}^2 (omega_n avr)^{2/n}: sharp Faber-Krahn constant."""
    if not (isinstance(n, (int, float)) and math.isfinite(n) and n >= 2.0):
        raise DomainError(f"fk_constant requires n >= 2, got {n!r}")
    _check_avr(avr)
    j = bessel_first_zero(0.5 * n - 1.0)
    return j * j * math.exp((2.0 / n) * (log_omega(n) + math.log(avr)))


def rayleigh_constant(n: float, avr: float) -> float:
    """R_g = j_{n/2-1}^{-2} (omega_n avr)^{-2/n}, the reciprocal route."""
    if not (isinstance(n, (int, float)) and math.isfinite(n) and n >= 2.0):
        raise DomainError(f"rayleigh_constant requires n >= 2, got {n!r}")
    _check_avr(avr)
    j = bessel_first_zero(0.5 * n - 1.0)
    return math.exp(-(2.0 / n) * (log_omega(n) + math.log(avr))) / (j * j)


def noncollapse_lower_bound(params: SobolevParams, C: float) -> float:
    """AVR lower bound (AT/C)^n implied by a Sobolev constant C.

    C below AT(n,p) is rejected: no space satisfies the inequality with a
    constant beating the sharp Euclidean one.
    """
    at = aubin_talenti(params)
    if not (isinstance(C, (int, float)) and math.isfinite(C)):
        raise DomainError(f"C must be a finite real, got {C!r}")
    if C < at * (1.0 - 1e-13):
        raise DomainError(
            f"C = {C:g} is below AT(n,p) = {at:g}; no such space exists")
    return min((at / C) ** params.n, 1.0)


def isoperimetric_constant(N: float, avr: float) -> float:
    """Sharp isoperimetric constant N omega_N^{1/N} avr^{1/N}, real N > 1."""
    if not (isinstance(N, (int, float)) and math.isfinite(N) and N > 1.0):
        raise DomainError(f"isoperimetric_constant requires N > 1, got {N!r}")
    _check_avr(avr)
    return N * math.exp((log_omega(N) + math.log(avr)) / N)


def sharp_constants(params: SobolevParams, avr: float) -> SharpConstants:
    """Assemble the full record; requires n >= 2 for the Faber-Krahn part."""
    _check_avr(avr)
    return SharpConstants(
        omega_n=omega(params.n),
        at=aubin_talenti(params),
        theta=gn_theta(params),
        gn=gn_constant(params),
        sobolev=sobolev_constant(params, avr),
        gn_sharp=gn_sharp_constant(params, avr),
        fk=fk_constant(params.n, avr),
        rayleigh=rayleigh_constant(params.n, avr),
        avr=avr,
    )
