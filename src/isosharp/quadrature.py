"""The package's one quadrature rule, composite 12-point Gauss-Legendre,
and its one interpolant, the piecewise-cubic Hermite kernel.

Every integrand in the package is smooth between breakpoints known in
advance (a radial profile between its grid nodes, a space's density between
its own breaks), so each integral is ``gauss_on_segments`` on those breaks,
graded dyadically (``dyadic_breaks``) toward any algebraic endpoint
behaviour: one vectorized evaluation whose cost is known before it runs.
A warping profile known only by samples is the ``pchip`` ``Hermite``
through them: the monotone cubic of Fritsch & Carlson (SIAM J. Numer. Anal.
17, 1980), with the slopes, coefficients and order of sums of scipy's
``PchipInterpolator``, so its values are the same to the last bit.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

# 12-point Gauss-Legendre rule moved from [-1, 1] onto [0, 1]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
_GL_NODES, _GL_WEIGHTS = (_GL_NODES + 1.0) / 2.0, _GL_WEIGHTS / 2.0


def gauss_panels(f, a, b):
    """12-point Gauss-Legendre integrals of ``f`` over the panels [a, b].

    ``a`` and ``b`` are arrays of one shape; the result has that shape.
    ``f`` must accept a 1-D numpy array, and is called once for all panels.
    It may return several integrands stacked on leading axes; the result
    then carries those axes in front.
    """
    a = np.asarray(a, dtype=float)
    h = np.asarray(b, dtype=float) - a
    x = a[..., None] + h[..., None] * _GL_NODES
    vals = np.asarray(f(x.ravel()), dtype=float)
    vals = vals.reshape(vals.shape[:-1] + x.shape)
    return (vals @ _GL_WEIGHTS) * h


def gauss_on_segments(f, breaks):
    """Composite 12-point Gauss-Legendre over consecutive segments.

    Meant for integrands that are smooth on each segment between
    ``breaks``: the fixed rule then converges at spectral order, and the
    total cost is a single vectorized evaluation.  A float for one
    integrand, an array for integrands stacked on leading axes.
    """
    breaks = np.asarray(breaks, dtype=float)
    if breaks.size < 2:
        return 0.0
    total = gauss_panels(f, breaks[:-1], breaks[1:]).sum(-1)
    return float(total) if total.ndim == 0 else total


def dyadic_breaks(breaks, targets):
    """``breaks`` joined with points graded dyadically toward each target.

    Toward a target x the points x - (x - lo) 2^-k and x + (hi - x) 2^-k,
    k = 1..100, are added, [lo, hi] being the span of ``breaks``.  Past
    the segments next to x, no segment spans more than a factor 2 in its
    distance to x, so a fixed rule resolves an algebraic behaviour at x
    (r^(N-1) at r = 0 for real N, a square-root level radius at a flat
    node).  Returns the ascending union.
    """
    breaks = np.asarray(breaks, dtype=float)
    lo, hi = breaks[0], breaks[-1]
    x = np.asarray(targets, dtype=float)[:, None]
    step = 2.0 ** -np.arange(1, 101)
    return np.unique(np.concatenate(
        [breaks, (x - (x - lo) * step).ravel(), (x + (hi - x) * step).ravel()]))


def _power_sum(c, s):
    """c[-1] + c[-2] s + c[-3] s^2 + ..., added in that order."""
    total, z = c[-1], 1.0
    for ck in c[-2::-1]:
        z = z * s
        total = total + ck * z
    return total


class Hermite:
    """Cubic Hermite interpolant through (x_k, y_k) with slopes d_k: its
    value, its value and slope together (``jet``), and its antiderivative;
    queries clamp to [x_0, x_n].

    Segment k holds the coefficients of c0 s^3 + c1 s^2 + c2 s + c3 in
    s = q - x_k.
    """

    def __init__(self, x, y, d):
        self.x = x
        h = np.diff(x)
        secant = np.diff(y) / h
        t = (d[:-1] + d[1:] - 2.0 * secant) / h
        self._c = np.array([t / h, (secant - d[:-1]) / h - t, d[:-1], y[:-1]])
        self._dc = self._c[:3] * [[3.0], [2.0], [1.0]]

    def _at(self, q, *coefs):
        q = np.clip(q, self.x[0], self.x[-1])
        k = np.searchsorted(self.x[1:-1], q, side="right")
        s = q - self.x[k]
        return [_power_sum(np.take(c, k, axis=1), s) for c in coefs]

    def __call__(self, q):
        return self._at(q, self._c)[0]

    def jet(self, q):
        """(value, slope) at q, from one segment lookup."""
        return tuple(self._at(q, self._c, self._dc))

    @cached_property
    def _anti(self):
        # the antiderivative's coefficients, its constant term the integral
        # from x_0 to the segment's left knot, accumulated knot by knot
        a = (self._c / [[4.0], [3.0], [2.0], [1.0]]).T.tolist()
        below = [0.0]
        for ak, h in zip(a, np.diff(self.x).tolist()):
            below.append(_power_sum(ak + below[-1:], h))
        return np.vstack([np.transpose(a), below[:-1]])

    def antideriv(self, q):
        return self._at(q, self._anti)[0]


def pchip(x, y) -> Hermite:
    """The monotone piecewise-cubic interpolant of y over x: at an inner
    knot the weighted harmonic mean of the two secants, or 0 between
    secants of opposite sign or a zero one; at an end the one-sided
    three-point slope, kept to the sign of the end secant and capped at
    three times it where the secants change sign.  Two knots give the line.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    if m.size == 1:
        return Hermite(x, y, np.append(m, m))
    flat = ((np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0.0)
            | (m[:-1] == 0.0))
    w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
    h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
    end = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    end = np.where(np.sign(end) != np.sign(m0), 0.0, np.where(
        (np.sign(m0) != np.sign(m1)) & (np.abs(end) > 3.0 * np.abs(m0)),
        3.0 * m0, end))
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = np.where(flat, 0.0,
                         1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
    return Hermite(x, y, np.concatenate([end[:1], inner, end[1:]]))
