"""Self-contained special-function kernel.

Gamma and log-gamma use a Lanczos rational approximation (g = 7, 9 terms),
with the large exponent assembled in double-double arithmetic so the result
stays within ~1e-14 relative error all the way up to the overflow edge.
Bessel functions of the first kind for real nonnegative order are evaluated
by the ascending power series for small argument and by Miller backward
recurrence otherwise; the recurrence is normalized by the Neumann series
identity, which works for non-integer order too.  Both kernels are
duck-typed, so an array argument runs the same arithmetic elementwise.
First positive zeros come from McMahon / Olver-type initial guesses refined
by bracketed Newton, once per order.

Everything here is plain arithmetic on purpose: this module is the kernel
the rest of the package is checked against, so it must not import a library
that would make the checks circular.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import ConvergenceError, DomainError

# Godfrey's g = 9 coefficient set: intrinsic relative error < 1e-16 on
# (0, 170], where the classic g = 7 nine-term set degrades to ~1e-13
_LANCZOS_G = 9.0
_LANCZOS_COEF = (
    1.0000000000000002,
    5716.400188274341,
    -14815.30426768414,
    14291.492776574785,
    -6348.160217641459,
    1301.608286058322,
    -108.17670535143696,
    2.605696505611756,
    -0.007423452510201416,
    5.384136432509564e-08,
    -4.023533141268236e-09,
)
_SQRT_TWO_PI = 2.5066282746310002
_LOG_SQRT_TWO_PI = 0.9189385332046727
_GAMMA_OVERFLOW = 171.62


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a, b):
    # Veltkamp split; exact product as hi + lo
    p = a * b
    c = 134217729.0 * a
    ahi = c - (c - a)
    alo = a - ahi
    c = 134217729.0 * b
    bhi = c - (c - b)
    blo = b - bhi
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def _lanczos_sum(xm):
    acc = _LANCZOS_COEF[0]
    for i in range(1, len(_LANCZOS_COEF)):
        acc += _LANCZOS_COEF[i] / (xm + i)
    return acc


_LN2_HI = 0.6931471805599453
_LN2_LO = 2.3190468138462996e-17


def _dd_log(t):
    # log(t) as a hi/lo pair; the correction term removes the libm log
    # rounding, which otherwise dominates gamma's error at large argument
    m, k = math.frexp(t)
    if m < 0.7071067811865476:
        m *= 2.0
        k -= 1
    hi = math.log(m)
    p, perr = _two_prod(m, math.exp(-hi))
    lo = math.log1p((p - 1.0) + perr)
    h1, l1 = _two_prod(float(k), _LN2_HI)
    s, e1 = _two_sum(h1, hi)
    return s, l1 + e1 + lo + k * _LN2_LO


def _check_positive(x, what):
    if not (isinstance(x, (int, float)) and math.isfinite(x) and x > 0):
        raise DomainError(f"{what} requires a positive finite real, got {x!r}")


def gamma(x: float) -> float:
    """Gamma function for x > 0, relative error within ~1e-13 up to 170."""
    _check_positive(x, "gamma")
    if x > _GAMMA_OVERFLOW:
        raise DomainError(f"gamma({x}) overflows double precision")
    if x < 0.5:
        return gamma(x + 1.0) / x
    xm = x - 1.0
    t = xm + _LANCZOS_G + 0.5
    # exponent (xm + 0.5)*log(t) - t in double-double; a plain product loses
    # ~1e-13 relative accuracy near the overflow edge
    ls, ll = _dd_log(t)
    hi, lo = _two_prod(xm + 0.5, ls)
    lo += (xm + 0.5) * ll
    ehi, e1 = _two_sum(hi, -t)
    elo = lo + e1
    return _SQRT_TWO_PI * _lanczos_sum(xm) * math.exp(ehi) * (1.0 + elo)


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0 (no overflow limit)."""
    _check_positive(x, "log_gamma")
    if x < 0.5:
        return log_gamma(x + 1.0) - math.log(x)
    xm = x - 1.0
    t = xm + _LANCZOS_G + 0.5
    return (_LOG_SQRT_TWO_PI + (xm + 0.5) * math.log(t) - t
            + math.log(_lanczos_sum(xm)))


def beta(a: float, b: float) -> float:
    """Euler beta function, computed in log space to dodge overflow."""
    _check_positive(a, "beta")
    _check_positive(b, "beta")
    return math.exp(log_gamma(a) + log_gamma(b) - log_gamma(a + b))


def log_omega(N: float) -> float:
    """log of the unit-ball volume omega_N, finite for every real N >= 1."""
    if not (isinstance(N, (int, float)) and math.isfinite(N) and N >= 1):
        raise DomainError(f"omega requires real N >= 1, got {N!r}")
    return 0.5 * N * math.log(math.pi) - log_gamma(1.0 + 0.5 * N)


def omega(N: float) -> float:
    """Volume of the unit ball in dimension N, real N >= 1 allowed."""
    return math.exp(log_omega(N))


_SERIES_SWITCH = 9.0
# Newton budget of the first zero: step tolerance (relative above 1) and
# the iteration cap of each bracket widening and of the refinement
_ABS_TOL = 1e-12
_MAX_ITER = 100
# the Miller recurrence starts near order nu in pure Python, so a first zero
# costs about 3 us per unit of order: 30 ms at this bound
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


def bessel_j_prime(nu: float, x: float) -> float:
    """d/dx J_nu(x) via the recurrence J_nu' = J_{nu-1}/2 - J_{nu+1}/2."""
    if x == 0.0:
        if nu == 0.0:
            return 0.0
        if nu == 1.0:
            return 0.5
        if nu > 1.0:
            return 0.0
        raise DomainError(f"J_nu'(0) unbounded for 0 < nu < 1 (nu={nu})")
    if nu >= 1.0:
        return 0.5 * (bessel_j(nu - 1.0, x) - bessel_j(nu + 1.0, x))
    return (nu / x) * bessel_j(nu, x) - bessel_j(nu + 1.0, x)


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
    """Smallest positive zero of J_nu, by bracketed Newton iteration,
    computed once per order."""
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
    it = 0
    while bessel_j(nu, lo) <= 0.0:
        lo = max(0.5 * lo, lo - 1.0)
        it += 1
        if it > _MAX_ITER:
            raise ConvergenceError(
                f"no positive bracket endpoint for nu={nu}", bracket=(lo, hi))
    it = 0
    while bessel_j(nu, hi) >= 0.0:
        hi += 1.0
        it += 1
        if it > _MAX_ITER:
            raise ConvergenceError(
                f"no sign change located for nu={nu}", bracket=(lo, hi))
    x = min(max(guess, lo), hi)
    for _ in range(_MAX_ITER):
        fx = bessel_j(nu, x)
        if fx > 0.0:
            lo = x
        elif fx < 0.0:
            hi = x
        else:
            return x
        dfx = bessel_j_prime(nu, x)
        x_new = 0.5 * (lo + hi)
        if dfx != 0.0:
            step = fx / dfx
            # a converged step may land on a bracket end (x itself when the
            # guess is exact), which the bracket test below would reject
            if abs(step) <= _ABS_TOL * max(1.0, abs(x)):
                return x - step
            if lo < x - step < hi:
                x_new = x - step
        if abs(x_new - x) <= _ABS_TOL * max(1.0, abs(x)):
            return x_new
        x = x_new
    raise ConvergenceError(
        f"first-zero Newton did not converge for nu={nu}", bracket=(lo, hi))
