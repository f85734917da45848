"""Independent numerical oracles used to pin expected values.

Deliberately separate from the package: the implementation must agree with
these, never the other way around.  The Bessel oracle is the raw ascending
power series summed term by term; zeros come from plain sign-change
bisection on that series.  Gamma facts are checked against the C library
through math.gamma / math.lgamma, which shares no code with the package's
Lanczos kernel.  Warped-product ball volumes come from mpmath tanh-sinh
quadrature at 30 digits.
"""

import math

import mpmath as mp


def bessel_series_oracle(nu, x, terms=300):
    """Ascending series for J_nu(x); trustworthy for x up to ~15."""
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    term = math.exp(nu * math.log(0.5 * x) - math.lgamma(nu + 1.0))
    total = term
    q = 0.25 * x * x
    for k in range(1, terms):
        term *= -q / (k * (nu + k))
        total += term
        if abs(term) < 1e-18 * abs(total) and k > 4:
            break
    return total


def bisect_sign_change(f, lo, hi, iters=200):
    """Bisection on a bracketing interval, no derivatives involved."""
    flo = f(lo)
    assert flo * f(hi) < 0, "oracle bracket does not straddle a zero"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm > 0:
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bessel_zero_oracle(nu, lo, hi):
    return bisect_sign_change(lambda x: bessel_series_oracle(nu, x), lo, hi)


def trapezoid_oracle(f, a, b, n=20001):
    """Dead-simple composite trapezoid, for low-precision cross checks."""
    h = (b - a) / (n - 1)
    total = 0.5 * (f(a) + f(b))
    for i in range(1, n - 1):
        total += f(a + i * h)
    return total * h


def warped_volume_oracle(n, a, beta, r):
    """vol(B_r) = n omega_n int_0^r F^{n-1} for f(s) = a + (1-a) e^{-beta s}.

    The interval is cut dyadically toward 0 and at every decay length
    1/beta, and the integrand is divided by F(r)^{n-1}: mpmath's stopping
    test is absolute, so an integrand far from O(1), or one panel over
    [0, r] with n >= 16, stops early by 1e-8 to 1e-5 relative.
    """
    with mp.workdps(30):
        a, beta, r = mp.mpf(a), mp.mpf(beta), mp.mpf(r)
        omega_n = mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2 + 1)

        def F(s):
            return a * s - (1 - a) * mp.expm1(-beta * s) / beta

        cuts = {r * mp.mpf(2) ** -k for k in range(40)}
        cuts |= {j / beta for j in range(1, int(min(r * beta, 60)) + 1)}
        pts = [mp.mpf(0)] + sorted(c for c in cuts if c <= r)
        top = F(r)
        total = mp.quad(lambda s: (F(s) / top) ** (n - 1), pts)
        return float(n * omega_n * top ** (n - 1) * total)
