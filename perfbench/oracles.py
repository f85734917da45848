"""Reference values for the benchmark's correctness checks, in mpmath.

Nothing here imports isosharp: every value is computed from closed forms
or by mpmath quadrature at 30 significant digits, so a check against it is
independent of the code under test.

    omega(N)                 volume of the unit ball, pi^(N/2) / Gamma(N/2+1)
    aubin_talenti(n, p)      the sharp Euclidean Sobolev constant, closed form
    gn_theta / gn_constant   the Gagliardo-Nirenberg exponent and constant; the
                             constant is the quotient of the Euclidean extremal
                             h(r) = (1 + r^p')^(1/(1-alpha)), by quadrature
    bessel_zero(nu)          first positive zero of J_nu (mpmath.besseljzero)
    tent_norms               closed-form norms of (1 - r/m)_+ on power-law
                             spaces
    warped_polya_sides       both sides of Polya-Szego on a warped product,
                             from the exact warping antiderivative F(r)
"""

from __future__ import annotations

from functools import lru_cache

import mpmath as mp

mp.mp.dps = 30


def omega(N):
    N = mp.mpf(N)
    return mp.pi ** (N / 2) / mp.gamma(N / 2 + 1)


@lru_cache(maxsize=None)
def aubin_talenti(n, p):
    """AT(n,p) = pi^(-1/2) n^(-1/p) ((p-1)/(n-p))^(1-1/p)
    * (Gamma(1+n/2) Gamma(n) / (Gamma(n/p) Gamma(1+n-n/p)))^(1/n)."""
    n, p = mp.mpf(n), mp.mpf(p)
    ratio = (mp.gamma(1 + n / 2) * mp.gamma(n)
             / (mp.gamma(n / p) * mp.gamma(1 + n - n / p)))
    return (mp.pi ** mp.mpf(-0.5) * n ** (-1 / p)
            * ((p - 1) / (n - p)) ** (1 - 1 / p) * ratio ** (1 / n))


def gn_theta(n, p, alpha):
    n, p, alpha = mp.mpf(n), mp.mpf(p), mp.mpf(alpha)
    ps = n * p / (n - p)
    return min(ps * (alpha - 1) / (alpha * p * (ps - alpha * p + alpha - 1)),
               mp.mpf(1))


def _power_norm(g, q, n):
    """(int_0^inf g(r)^q n omega_n r^(n-1) dr)^(1/q) on R^n."""
    c = n * omega(n)
    val = mp.quad(lambda r: g(r) ** q * c * r ** (n - 1), [0, 1, 10, mp.inf])
    return val ** (1 / mp.mpf(q))


@lru_cache(maxsize=None)
def gn_constant(n, p, alpha):
    """Euclidean G_{alpha,p,n} as the quotient of the extremal profile.

    |h|_{alpha p} / (|grad h|_p^theta |h|_{alpha(p-1)+1}^(1-theta)) with
    h = (1 + r^p')^(1/(1-alpha)); at alpha = n/(n-p) it is AT(n,p).
    """
    n, p, alpha = mp.mpf(n), mp.mpf(p), mp.mpf(alpha)
    pp = p / (p - 1)
    e = 1 / (1 - alpha)
    h = lambda r: (1 + r ** pp) ** e
    dh = lambda r: abs(e * pp * r ** (pp - 1) * (1 + r ** pp) ** (e - 1))
    th = gn_theta(n, p, alpha)
    top = _power_norm(h, alpha * p, n)
    grad = _power_norm(dh, p, n)
    low = _power_norm(h, alpha * (p - 1) + 1, n)
    return top / (grad ** th * low ** (1 - th))


@lru_cache(maxsize=None)
def bessel_zero(nu):
    return mp.besseljzero(mp.mpf(nu), 1)


def fk_constant(N, avr):
    """Lam = j_{N/2-1}^2 (omega_N avr)^(2/N)."""
    N = mp.mpf(N)
    return bessel_zero(N / 2 - 1) ** 2 * (omega(N) * mp.mpf(avr)) ** (2 / N)


def isoperimetric_constant(N, avr):
    N = mp.mpf(N)
    return N * (omega(N) * mp.mpf(avr)) ** (1 / N)


# ---------------------------------------------------------------------------
# power-law spaces: vol(B_r) = c r^N, content N c r^(N-1)

def monomial_unit_weight(n, alpha_w):
    """int over the unit half-ball {x_n > 0} of x_n^alpha_w.

    Slicing at x_n = t gives omega_{n-1} int_0^1 t^a (1-t^2)^((n-1)/2) dt,
    a beta integral: omega_{n-1} B((a+1)/2, (n+1)/2) / 2.
    """
    a = mp.mpf(alpha_w)
    if n == 1:
        return 1 / (a + 1)
    return omega(n - 1) * mp.beta((a + 1) / 2, mp.mpf(n + 1) / 2) / 2


def tent_norms(c, N, m, q, p):
    """(|u|_q^q, |grad u|_p^p) of u = (1 - r/m)_+ where vol(B_r) = c r^N.

    |u|_q^q = c N m^N B(N, q+1) and |grad u|_p^p = c m^(N-p).
    """
    c, N, m = mp.mpf(c), mp.mpf(N), mp.mpf(m)
    return (c * N * m ** N * mp.beta(N, mp.mpf(q) + 1),
            c * m ** (N - mp.mpf(p)))


def tent_sobolev_quotient(c, N, m, p):
    p = mp.mpf(p)
    ps = N * p / (N - p)
    lq, grad = tent_norms(c, N, m, ps, p)
    return lq ** (1 / ps) / grad ** (1 / p)


def tent_gn_quotient(c, N, m, p, alpha):
    p, alpha = mp.mpf(p), mp.mpf(alpha)
    th = gn_theta(N, p, alpha)
    top = tent_norms(c, N, m, alpha * p, p)[0] ** (1 / (alpha * p))
    low_q = alpha * (p - 1) + 1
    low = tent_norms(c, N, m, low_q, p)[0] ** (1 / low_q)
    grad = tent_norms(c, N, m, 1, p)[1] ** (1 / p)
    return top / (grad ** th * low ** (1 - th))


# ---------------------------------------------------------------------------
# the curated radial profiles, rebuilt from their labels

def profile(label):
    """(u, u', support end, kinks) of a curated label like 'gauss_1_2.5'."""
    kind, *nums = label.split("_")
    a = [mp.mpf(x) for x in nums]
    if kind == "tent":
        m, = a
        return (lambda r: 1 - r / m, lambda r: -1 / m, m, [])
    if kind == "gauss":
        s, cut = a
        c = mp.exp(-(cut / s) ** 2)
        return (lambda r: mp.exp(-(r / s) ** 2) - c,
                lambda r: -2 * r / s ** 2 * mp.exp(-(r / s) ** 2), cut, [])
    if kind == "trapezoid":
        r_in, r_out = a
        w = r_out - r_in
        return (lambda r: min(mp.mpf(1), (r_out - r) / w),
                lambda r: 0 if r < r_in else -1 / w, r_out, [r_in])
    if kind == "quartic":
        m, = a
        return (lambda r: (1 - (r / m) ** 2) ** 2,
                lambda r: -4 * r / m ** 2 * (1 - (r / m) ** 2), m, [])
    if kind == "exp":
        k, cut = a
        c = mp.exp(-k * cut)
        return (lambda r: mp.exp(-k * r) - c,
                lambda r: -k * mp.exp(-k * r), cut, [])
    if kind == "power":
        cut, = a
        c = (1 + cut ** 2) ** -2
        return (lambda r: (1 + r ** 2) ** -2 - c,
                lambda r: -4 * r * (1 + r ** 2) ** -3, cut, [])
    raise ValueError(f"unknown profile label {label!r}")


# ---------------------------------------------------------------------------
# warped products g = dr^2 + F(r)^2 dtheta^2, f(s) = a + (1-a) e^(-beta s)

def warped_F(a, beta, r):
    a, beta = mp.mpf(a), mp.mpf(beta)
    return a * r + (1 - a) * (1 - mp.exp(-beta * r)) / beta


def warped_F_power_integral(n, a, beta, r):
    """int_0^r F(s)^(n-1) ds in closed form for n = 2 and n = 3.

    With c = (1-a)/beta, F(s) = a s + c - c e^(-beta s).  The terms cancel
    to O(r^n) near 0, so small r is evaluated with extra digits.
    """
    if n not in (2, 3):
        raise ValueError(f"closed form only for n in (2, 3), got {n}")
    r = mp.mpf(r)
    extra = 10 + (n + 1) * max(0, int(-mp.log10(r))) if 0 < r < 1 else 10
    with mp.extradps(extra):
        a, beta = mp.mpf(a), mp.mpf(beta)
        c = (1 - a) / beta
        E = mp.exp(-beta * r)
        if n == 2:
            val = a * r ** 2 / 2 + c * (r - (1 - E) / beta)
        else:
            square = ((a * r + c) ** 3 - c ** 3) / (3 * a)
            cross = (c / beta + a / beta ** 2
                     - E * ((a * r + c) / beta + a / beta ** 2))
            tail = c ** 2 * (1 - E ** 2) / (2 * beta)
            val = square - 2 * c * cross + tail
    return +val


def _split(end, kinks):
    return [mp.mpf(0)] + sorted(mp.mpf(k) for k in kinks) + [mp.mpf(end)]


def warped_lq(n, a, beta, label, q):
    """|u|_q^q on the warped product: int u^q n omega_n F^(n-1) dr."""
    u, _, end, kinks = profile(label)
    c = n * omega(n)
    return mp.quad(lambda r: u(r) ** q * c * warped_F(a, beta, r) ** (n - 1),
                   _split(end, kinks))


def warped_polya_sides(n, a, beta, label, p=2):
    """(|grad u|_p on the space, AVR^(1/n) |grad u*|_p on R^n).

    rho(r) = (V(r)/omega_n)^(1/n) is the radius of the Euclidean ball with
    the volume of B_r, and u*(rho(r)) = u(r), so
    |grad u*|_p^p = int |u'(r)|^p (n omega_n rho^(n-1))^p / A(r)^(p-1) dr
    with A(r) = n omega_n F(r)^(n-1) the sphere measure.
    """
    _, du, end, kinks = profile(label)
    w = omega(n)
    p = mp.mpf(p)

    def A(r):
        return n * w * warped_F(a, beta, r) ** (n - 1)

    def star_density(r):
        if r == 0:
            return mp.mpf(0)
        rho = (n * warped_F_power_integral(n, a, beta, r)) ** (mp.mpf(1) / n)
        sphere = n * w * rho ** (n - 1)
        return abs(du(r)) ** p * sphere ** p / A(r) ** (p - 1)

    pts = _split(end, kinks)
    lhs = mp.quad(lambda r: abs(du(r)) ** p * A(r), pts) ** (1 / p)
    avr = mp.mpf(a) ** (n - 1)
    rhs = avr ** (mp.mpf(1) / n) * mp.quad(star_density, pts) ** (1 / p)
    return lhs, rhs
