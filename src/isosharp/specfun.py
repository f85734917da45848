"""Special functions the standard library lacks.

Log-gamma is the C library's ``math.lgamma`` behind this package's domain
checks.  Bessel functions of the first kind for real nonnegative order are
evaluated by the ascending power series for small argument and by Miller
backward recurrence otherwise; the recurrence is normalized by the Neumann
series identity, which works for non-integer order too.  Both kernels are
duck-typed, so an array argument runs the same arithmetic elementwise.
First positive zeros start from McMahon / Olver-type guesses and are found
by Brent's method, once per order; the same ``_brent`` finds the
Faber-Krahn eigenvalue in ``verify``.

Everything else here is plain arithmetic on purpose: this module is the
kernel the rest of the package is checked against, so it must not import a
library that would make the checks circular.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

from .errors import ConvergenceError, DomainError


def _check_positive(x, what):
    if not (isinstance(x, (int, float)) and math.isfinite(x) and x > 0):
        raise DomainError(f"{what} requires a positive finite real, got {x!r}")


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0, the C library's; inf above ~2.55e305."""
    _check_positive(x, "log_gamma")
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


def beta(a: float, b: float) -> float:
    """Euler beta function, computed in log space to dodge overflow."""
    _check_positive(a, "beta")
    _check_positive(b, "beta")
    return math.exp(log_gamma(a) + log_gamma(b) - log_gamma(a + b))


def log_omega(N: float) -> float:
    """log of the unit-ball volume omega_N for real N >= 1.

    Finite up to N ~ 5.12e305, where it is about -1.795e308.  Past that
    log Gamma(1 + N/2) overflows and the result is -inf (``omega`` 0.0);
    the true value leaves double precision from N ~ 5.128e305 on.
    """
    if not (isinstance(N, (int, float)) and math.isfinite(N) and N >= 1):
        raise DomainError(f"omega requires real N >= 1, got {N!r}")
    return 0.5 * N * math.log(math.pi) - log_gamma(1.0 + 0.5 * N)


def omega(N: float) -> float:
    """Volume of the unit ball in dimension N, real N >= 1 allowed."""
    return math.exp(log_omega(N))


_SERIES_SWITCH = 9.0
# step cap of each bracket widening of the first zero and of Brent's method
_MAX_ITER = 100
# the Miller recurrence starts near order nu in pure Python, so a first zero
# (6-7 J evaluations) costs about 2 us per unit of order: 18 ms at this bound
_MAX_ZERO_ORDER = 1e4


def _leading(nu, x):
    # (x/2)^nu / Gamma(nu + 1), the first term of the ascending series
    scale = math.exp(-log_gamma(nu + 1.0) / nu) if nu else 1.0
    return (0.5 * scale * x) ** nu


def _bessel_series(nu, x):
    # ascending series over its first term, J_nu(x) / _leading(nu, x); safe
    # for x <= ~9 where the terms never grow enough to cost more than
    # ~1e-13 absolute in cancellation.  Duck-typed like the Miller kernel:
    # an array x runs elementwise until every element converges
    vector = hasattr(x, "all")
    term = total = 1.0
    q = 0.25 * x * x
    for k in range(1, 400):
        term = term * (-q / (k * (nu + k)))
        total = total + term
        done = abs(term) <= 1e-17 * (abs(total) + 1e-300)
        if k > 3 and (done.all() if vector else done):
            return total
    raise ConvergenceError(f"bessel series stalled at nu={nu}")


def _bessel_miller(nu, x):
    # backward recurrence from well above the turning point, normalized by
    #   (x/2)^f = sum_k (f+2k) Gamma(f+k)/k! * J_{f+2k}(x)
    # which reduces to the classical J_0 + 2*sum J_2k = 1 when f = 0; an
    # array starts at the order its largest x needs
    nint = int(math.floor(nu + 1e-12))
    f = nu - nint
    if f < 1e-12:
        f = 0.0
        nint = int(round(nu))
    vector = hasattr(x, "any")
    top = max(x.max() if vector else x, nu)
    m_start = nint + int(top - nint + 20 + 12.0 * top ** (1.0 / 3.0))
    if m_start % 2:
        m_start += 1
    jp = 0.0
    j = 1e-30
    norm = 0.0
    result = 0.0
    for m in range(m_start, 0, -1):
        # step J at order f+m down to order f+(m-1)
        jm1 = (2.0 * (f + m) / x) * j - jp
        jp, j = j, jm1
        big = abs(j) > 1e250
        if big.any() if vector else big:
            shrink = 1e-250 ** big      # 1e-250 where big, 1 elsewhere
            j, jp, norm, result = (j * shrink, jp * shrink, norm * shrink,
                                   result * shrink)
        order = m - 1
        if order == nint:
            result = j
        if order % 2 == 0:
            k = order // 2
            if f == 0.0:
                norm = norm + (j if k == 0 else 2.0 * j)
            else:
                c = math.exp(log_gamma(f + k) - log_gamma(k + 1.0)) * (f + 2 * k)
                norm = norm + c * j
    if f == 0.0:
        return result / norm
    return result * (0.5 * x) ** f / norm


def _by_path(nu, x, series, miller):
    # validates (nu, x) and sends each x to the series (x <= 9) or Miller
    # path; a float gives a float, an array an array of its shape
    if not (isinstance(nu, (int, float)) and math.isfinite(nu) and nu >= 0):
        raise DomainError(f"bessel_j requires order nu >= 0, got {nu!r}")
    nu = float(nu)
    scalar = isinstance(x, (int, float))
    lo, hi = (x, x) if scalar or not x.size else (x.min(), x.max())
    if not (lo >= 0 and math.isfinite(hi)):
        raise DomainError(f"bessel_j requires finite x >= 0, got {x!r}")
    if scalar:
        x = float(x)
        return series(nu, x) if x <= _SERIES_SWITCH else miller(nu, x)
    x = x.astype(float)     # a copy, which becomes the result
    small = x <= _SERIES_SWITCH
    if small.any():
        x[small] = series(nu, x[small])
    if not small.all():
        x[~small] = miller(nu, x[~small])
    return x


def bessel_j(nu: float, x):
    """Bessel function of the first kind, real order nu >= 0, x >= 0.

    ``x`` is a float or a numpy array; an array gives an array of its
    shape, each element on the path (series or Miller) its size selects.
    """
    return _by_path(nu, x,
                    lambda nu, x: _leading(nu, x) * _bessel_series(nu, x),
                    _bessel_miller)


def bessel_j_scaled(nu: float, x):
    """Gamma(nu + 1) (2/x)^nu J_nu(x), float or array as in ``bessel_j``:
    1 at x = 0, and representable where J_nu(x) and (x/2)^nu underflow."""
    return _by_path(nu, x, _bessel_series,
                    lambda nu, x: _bessel_miller(nu, x) / _leading(nu, x))


def _brent(f, a, b, fa, fb, xtol, rtol):
    """The root of f in [a, b], given fa = f(a) != 0 and fb = f(b) of the
    other sign or 0, by Brent's method (*Algorithms for Minimization
    without Derivatives*, 1973, ch. 4) to within xtol + rtol |root|:
    inverse quadratic or secant steps while they shrink the bracket fast
    enough, bisection otherwise, step for step as in scipy's ``brentq``.
    """
    xpre, xcur, fpre, fcur = float(a), float(b), float(fa), float(fb)
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAX_ITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            # xcur becomes the better of the two bracket ends
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = None
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:        # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                   # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
        if stry is not None and (
                2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta)):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
    other = xpre if (fpre < 0.0) != (fcur < 0.0) else xblk
    raise ConvergenceError(
        f"Brent's method did not converge in {_MAX_ITER} steps",
        bracket=(min(other, xcur), max(other, xcur)))


def _first_zero_guess(nu):
    if nu < 1.5:
        # McMahon expansion around beta = (nu/2 + 3/4) pi
        b = (0.5 * nu + 0.75) * math.pi
        mu = 4.0 * nu * nu
        e = 8.0 * b
        return (b - (mu - 1.0) / e
                - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * e ** 3))
    # Olver-type expansion in powers of nu^(1/3)
    c = nu ** (1.0 / 3.0)
    return (nu + 1.8557571 * c + 1.033150 / c - 0.00397 / nu
            - 0.0908 / (c ** 5) + 0.043 / (c ** 7))


def bessel_first_zero(nu: float) -> float:
    """Smallest positive zero of J_nu, by Brent's method in a bracket
    around an asymptotic guess, computed once per order."""
    if not (isinstance(nu, (int, float)) and 0 <= nu <= _MAX_ZERO_ORDER):
        raise DomainError(f"bessel_first_zero requires 0 <= nu <= "
                          f"{_MAX_ZERO_ORDER:g}, got {nu!r}")
    return _first_zero(float(nu))


@lru_cache(maxsize=256)
def _first_zero(nu: float) -> float:
    guess = _first_zero_guess(nu)
    # J_nu > 0 on (0, j_nu) and the next zero is more than 2 away, so a +-1
    # window around a decent guess brackets the first zero and nothing else
    lo = max(guess - 1.0, 0.25 * guess)
    hi = guess + 1.0
    j_lo, j_hi = bessel_j(nu, lo), bessel_j(nu, hi)
    it = 0
    while j_lo <= 0.0:
        lo = max(0.5 * lo, lo - 1.0)
        j_lo = bessel_j(nu, lo)
        it += 1
        if it > _MAX_ITER:
            raise ConvergenceError(
                f"no positive bracket endpoint for nu={nu}", bracket=(lo, hi))
    it = 0
    while j_hi >= 0.0:
        hi += 1.0
        j_hi = bessel_j(nu, hi)
        it += 1
        if it > _MAX_ITER:
            raise ConvergenceError(
                f"no sign change located for nu={nu}", bracket=(lo, hi))
    # brentq's floor: the root to within 2 ulps
    return _brent(lambda x: bessel_j(nu, x), lo, hi, j_lo, j_hi,
                  0.0, 4.0 * sys.float_info.epsilon)
