"""Special functions the standard library lacks.

Log-gamma is the C library's ``math.lgamma`` behind this package's domain
checks.  Bessel functions of the first kind for real nonnegative order are
evaluated by the ascending power series for small argument and by Miller
backward recurrence otherwise; the recurrence is normalized by the Neumann
series identity, which works for non-integer order too.  Both kernels are
duck-typed, so an array argument runs the same arithmetic elementwise, and
the series also takes a column of orders against a row of x, which is how
``bessel_j_scaled`` computes several orders in one pass.
A first positive zero is one Brent solve in a +-1 window around a McMahon /
Olver-type guess, once per order; the same ``_brent`` finds the
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
# terms of the ascending series before it counts as stalled
_SERIES_TERMS = 399
# step cap of Brent's method
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
    # ~1e-13 absolute in cancellation.  Duck-typed like the Miller kernel,
    # with nu broadcast against x: an array x runs elementwise, and a column
    # of orders against a row of x runs every order in one recurrence,
    # until every element converges.  Convergence is tested on every fourth
    # term and on the last: a term that passes is at most 1e-17 of its
    # total, below half an ulp, and the later terms only shrink, so adding
    # them leaves that total unchanged
    vector = hasattr(x, "all") or hasattr(nu, "all")
    term = total = 1.0
    minus_q = -(0.25 * x * x)
    for k in range(1, _SERIES_TERMS + 1):
        # in place once they are arrays: the same arithmetic with fewer
        # temporaries, which set the peak memory of a long x
        term *= minus_q / (k * (nu + k))
        total += term
        if k % 4 == 0 or k == _SERIES_TERMS:
            bound = abs(total)
            bound += 1e-300
            bound *= 1e-17
            done = abs(term) <= bound
            if done.all() if vector else done:
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


def _order(nu):
    if not (isinstance(nu, (int, float)) and math.isfinite(nu) and nu >= 0):
        raise DomainError(f"bessel_j requires order nu >= 0, got {nu!r}")
    return float(nu)


def _by_path(nu, x, series, miller, rows=False):
    # validates (nu, x) and sends each x to the series (x <= 9) or Miller
    # path; a float gives a float, an array an array of its shape.  With
    # ``rows``, nu is a sequence of orders, giving one such result per
    # order: a tuple for a float x, the rows of one array otherwise, where
    # the series runs once, on a column of the orders, and Miller once per
    # order
    orders = tuple(map(_order, nu)) if rows else (_order(nu),)
    scalar = isinstance(x, (int, float))
    lo, hi = ((x, x) if scalar else (x.min(), x.max()) if x.size
              else (0.0, 0.0))
    if not (lo >= 0 and math.isfinite(hi)):
        raise DomainError(f"bessel_j requires finite x >= 0, got {x!r}")
    if scalar:
        x = float(x)
        out = tuple(series(n, x) if x <= _SERIES_SWITCH else miller(n, x)
                    for n in orders)
        return out if rows else out[0]
    shape = (len(orders),) + x.shape if rows else x.shape
    flat = x.astype(float, copy=False).reshape(-1)
    small = flat <= _SERIES_SWITCH
    out = flat[None].repeat(len(orders), axis=0)    # becomes the result
    if small.any():
        if rows:
            # a column of the orders, of x's own array type
            nu = out[:, :1].copy()
            nu[:, 0] = orders
        else:
            nu = orders[0]
        out[:, small] = series(nu, flat[small])
    if not small.all():
        large = flat[~small]
        for row, n in zip(out, orders):
            row[~small] = miller(n, large)
    return out.reshape(shape)


def bessel_j(nu: float, x):
    """Bessel function of the first kind, real order nu >= 0, x >= 0.

    ``x`` is a float or a numpy array; an array gives an array of its
    shape, each element on the path (series or Miller) its size selects.
    """
    return _by_path(nu, x,
                    lambda nu, x: _leading(nu, x) * _bessel_series(nu, x),
                    _bessel_miller)


def bessel_j_scaled(nu, x):
    """Gamma(nu + 1) (2/x)^nu J_nu(x), float or array as in ``bessel_j``:
    1 at x = 0, and representable where J_nu(x) and (x/2)^nu underflow.

    ``nu`` may also be a tuple or list of orders, which gives one result
    per order: a tuple of floats for a float x, an array of shape
    (len(nu), *x.shape) for an array x.  Each is the same bits as that
    order's own call; the series (x <= 9) runs all the orders in one
    recurrence, and the Miller recurrence runs each order alone.
    """
    return _by_path(nu, x, _bessel_series,
                    lambda nu, x: _bessel_miller(nu, x) / _leading(nu, x),
                    rows=isinstance(nu, (tuple, list)))


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


def _first_zero_window(nu):
    """(lo, hi) around an asymptotic guess of the first zero j_nu.

    J_nu > 0 on (0, j_nu) and the next zero is more than 2 away, so the
    +-1 window around a guess this close (under 2e-3 off) holds the first
    zero and nothing else; below it is cut at a quarter of the guess.
    """
    if nu < 1.5:
        # McMahon expansion around beta = (nu/2 + 3/4) pi
        b = (0.5 * nu + 0.75) * math.pi
        mu = 4.0 * nu * nu
        e = 8.0 * b
        guess = (b - (mu - 1.0) / e
                 - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * e ** 3))
    else:
        # Olver-type expansion in powers of nu^(1/3)
        c = nu ** (1.0 / 3.0)
        guess = (nu + 1.8557571 * c + 1.033150 / c - 0.00397 / nu
                 - 0.0908 / (c ** 5) + 0.043 / (c ** 7))
    return max(guess - 1.0, 0.25 * guess), guess + 1.0


def bessel_first_zero(nu: float) -> float:
    """Smallest positive zero of J_nu, by one Brent solve in the +-1
    window around an asymptotic guess, computed once per order."""
    if not (isinstance(nu, (int, float)) and 0 <= nu <= _MAX_ZERO_ORDER):
        raise DomainError(f"bessel_first_zero requires 0 <= nu <= "
                          f"{_MAX_ZERO_ORDER:g}, got {nu!r}")
    return _first_zero(float(nu))


@lru_cache(maxsize=256)
def _first_zero(nu: float) -> float:
    lo, hi = _first_zero_window(nu)
    j_lo, j_hi = bessel_j(nu, lo), bessel_j(nu, hi)
    if not (j_lo > 0.0 and j_hi < 0.0):
        raise ConvergenceError(f"the window around the guess for nu={nu} "
                               "does not bracket the first zero",
                               bracket=(lo, hi))
    # brentq's floor: the root to within 2 ulps
    return _brent(lambda x: bessel_j(nu, x), lo, hi, j_lo, j_hi,
                  0.0, 4.0 * sys.float_info.epsilon)
