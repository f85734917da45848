"""Independent numerical oracles used to pin expected values.

Deliberately separate from the package: the implementation must agree with
these, never the other way around.  The Bessel oracle is the raw ascending
power series summed term by term; zeros come from plain sign-change
bisection on that series.  The package's Gamma is the C library's
(math.gamma / math.lgamma), so the tests check it against mpmath at 30
digits instead.  Warped-product ball volumes, norms of a piecewise-cubic
interpolant or of a closed-form profile, and the Polya-Szego rhs of a
rearranged profile on a warped product come from mpmath tanh-sinh
quadrature at 30 digits.
"""

import math

import mpmath as mp
import numpy as np
from scipy.interpolate import PchipInterpolator


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


def _ppoly_mp(pp):
    """mpmath evaluator of a scipy PPoly, its pieces read off in double."""
    x = pp.x
    coef = [[mp.mpf(float(c)) for c in col] for col in pp.c.T]
    knots = [mp.mpf(float(v)) for v in x]

    def piece(i):
        def ev(r):
            dx = r - knots[i]
            total = mp.mpf(0)
            for c in coef[i]:
                total = total * dx + c
            return total
        return ev

    def ev(r):
        i = min(max(int(np.searchsorted(x, float(r), side="right")) - 1, 0),
                len(coef) - 1)
        return piece(i)(r)

    return ev, piece


def euclidean_content_mp(N):
    """r -> N omega_N r^(N-1), its constant at 30 digits."""
    with mp.workdps(30):
        N = mp.mpf(N)
        coef = N * mp.pi ** (N / 2) / mp.gamma(N / 2 + 1)
    return lambda r: coef * r ** (N - 1)


def sampled_warped_content_mp(n, s_grid, f_values):
    """r -> n omega_n F(r)^(n-1), F the integral of the PCHIP of (s, f),
    continued affinely with slope f(s_end) past the last node."""
    F_ev, _ = _ppoly_mp(PchipInterpolator(s_grid, f_values).antiderivative())
    with mp.workdps(30):
        s_end, f_end = mp.mpf(float(s_grid[-1])), mp.mpf(float(f_values[-1]))
        F_end = F_ev(s_end)
        nn = mp.mpf(n)
        coef = nn * mp.pi ** (nn / 2) / mp.gamma(nn / 2 + 1)

    def content(r):
        F = F_ev(r) if r <= s_end else F_end + f_end * (r - s_end)
        return coef * F ** (n - 1)

    return content


def pchip_radial_oracle(r_grid, values, content, power, derivative=False,
                        cuts=()):
    """int_0^{r_end} |g(r)|^power content(r) dr at 30 digits, g the PCHIP
    interpolant of (r_grid, values) or, with ``derivative``, its slope.

    The cubic pieces come from scipy's PchipInterpolator; each piece, cut
    further at ``cuts`` (the kinks of ``content``), is one tanh-sinh panel,
    which also absorbs the r^(N-1) end at 0 for real N.
    """
    pp = PchipInterpolator(r_grid, values)
    if derivative:
        pp = pp.derivative()
    _, piece = _ppoly_mp(pp)
    edges = sorted(set(map(float, r_grid))
                   | {float(c) for c in cuts if 0.0 < c < r_grid[-1]})
    with mp.workdps(30):
        total = mp.mpf(0)
        for a, b in zip(edges, edges[1:]):
            g = piece(int(np.searchsorted(pp.x, a, side="right")) - 1)
            total += mp.quad(lambda r: abs(g(r)) ** power * content(r),
                             [mp.mpf(a), mp.mpf(b)])
        return float(total)


def callable_radial_oracle(fn, content, power, edges):
    """int |fn(r)|^power content(r) dr at 30 digits, over [edges[0],
    edges[-1]] with one tanh-sinh panel between consecutive ``edges``.

    ``fn`` takes and returns mpmath numbers and must be smooth inside each
    panel: put its kinks among the edges.
    """
    with mp.workdps(30):
        pts = [mp.mpf(float(e)) for e in edges]
        return float(sum(
            mp.quad(lambda r: abs(fn(r)) ** power * content(r), [a, b])
            for a, b in zip(pts, pts[1:])))


def warped_F_power_integral_mp(n, a, beta, r):
    """int_0^r F(s)^(n-1) ds for F(s) = a s + c (1 - e^(-beta s)), c =
    (1-a)/beta, in closed form: F^(n-1) expanded in powers of (a s + c)
    and e^(-beta s), each term a polynomial or a lower incomplete gamma.

    The terms cancel to O(r^n) near 0, so small r is evaluated with extra
    digits.  Returns an mpmath number.
    """
    r = mp.mpf(r)
    extra = 10 + (n + 1) * max(0, int(-mp.log10(r))) if 0 < r < 1 else 10
    with mp.extradps(extra):
        a, beta = mp.mpf(a), mp.mpf(beta)
        c = (1 - a) / beta
        total = ((a * r + c) ** n - c ** n) / (a * n)
        for k in range(1, n):
            m, lam = n - 1 - k, k * beta
            total += mp.binomial(n - 1, k) * (-c) ** k * mp.fsum(
                mp.binomial(m, j) * a ** j * c ** (m - j)
                * mp.gammainc(j + 1, 0, lam * r) / lam ** (j + 1)
                for j in range(m + 1))
    return +total


def warped_polya_rhs_oracle(n, a, beta, slope, edges, p=2):
    """AVR^(1/n) |grad u*|_p on R^n at 30 digits, u* the Euclidean
    rearrangement of the radial u on WarpedProduct(n, ExponentialTail(a,
    beta)).

    u*(rho(r)) = u(r) with rho = (V/omega_n)^(1/n), so by the change of
    variables s = rho(r), |grad u*|_p^p = int |u'|^p (n omega_n
    rho^(n-1))^p A^(1-p) dr, A = n omega_n F^(n-1) the sphere measure.
    ``slope`` is u' on mpmath numbers, smooth between consecutive
    ``edges``, which run from 0 to u's support end.
    """
    with mp.workdps(30):
        a_, beta_, p = mp.mpf(a), mp.mpf(beta), mp.mpf(p)
        coef = n * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2 + 1)

        def density(r):
            if r == 0:
                return mp.mpf(0)
            F = a_ * r - (1 - a_) * mp.expm1(-beta_ * r) / beta_
            rho = (n * warped_F_power_integral_mp(n, a, beta, r)) ** (
                mp.mpf(1) / n)
            return (abs(slope(r)) ** p * coef * rho ** ((n - 1) * p)
                    * F ** ((n - 1) * (1 - p)))

        pts = [mp.mpf(float(e)) for e in edges]
        total = mp.quad(density, pts)
        return float(a_ ** (mp.mpf(n - 1) / n) * total ** (1 / p))
