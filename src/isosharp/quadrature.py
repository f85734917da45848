"""The package's one quadrature rule, composite 12-point Gauss-Legendre,
with its running integral, and its one interpolant, the piecewise-cubic
Hermite kernel.

Every integrand in the package is smooth between breakpoints known in
advance (a radial profile between its grid nodes, a space's density between
its own breaks), so each integral is ``gauss_on_segments`` on those breaks,
graded dyadically (``dyadic_breaks``) toward any algebraic endpoint
behaviour: one vectorized evaluation whose cost is known before it runs.
The grading halves the distance to each target up to 100 times; a caller
that knows how deep its integrand needs it passes a smaller depth (an
r-integral against a measure ~ r^(N-1) toward r = 0, see
``isosharp.rearrange``).
``GaussAntiderivative`` integrates each panel's interpolant at the rule's
nodes in closed form, so a running integral, the warped ball volume, is
tabulated once and then read at any point without calling f again.
The kernel, given its slopes, is u*'s inverse volume radius and the
Faber-Krahn eigenfunction.
"""

from __future__ import annotations

import numpy as np

# 12-point Gauss-Legendre rule moved from [-1, 1] onto [0, 1]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
_GL_NODES, _GL_WEIGHTS = (_GL_NODES + 1.0) / 2.0, _GL_WEIGHTS / 2.0
LEVELS = 100    # dyadic levels toward a target, at most
_LEVEL = np.arange(1, LEVELS + 1)
_STEPS = 2.0 ** -_LEVEL

# node values -> the coefficients of the antiderivative, 0 at t = -1 and
# over dt, of the degree-11 interpolant at the nodes, in t in [-1, 1]: the
# interpolant's Legendre coefficients are (2j + 1) sum_i W_i P_j(t_i) f_i,
# exactly (P_j times it has degree <= 22 < 24), and legint integrates them
# term by term.  The basis is p_j = s_j P_j, s_{j+1} = s_{j-1} (j + 1) / j
# from s_0 = s_1 = 1, so that p_{j+1} = _ALPHA[j] t p_j - p_{j-1}.
_LEG = np.polynomial.legendre
_ANTI = (_LEG.legvander(2.0 * _GL_NODES - 1.0, 11) * _GL_WEIGHTS[:, None]
         * (2.0 * np.arange(12) + 1.0)) @ _LEG.legint(np.eye(12), lbnd=-1.0).T
_SCALE = [1.0, 1.0]
for _j in range(1, 12):
    _SCALE.append(_SCALE[_j - 1] * (_j + 1) / _j)
_ANTI /= _SCALE
_ALPHA = np.array([1.0] + [(2 * j + 1) / (j + 1) * _SCALE[j + 1] / _SCALE[j]
                           for j in range(1, 12)])


def gauss_nodes(breaks):
    """(x, h): the 12 nodes of each segment between ``breaks``, segment
    by segment in a 1-D array, and the segment widths."""
    breaks = np.asarray(breaks, dtype=float)
    h = np.diff(breaks)
    return (breaks[:-1, None] + h[:, None] * _GL_NODES).ravel(), h


def gauss_sum(vals, h):
    """The composite rule's sum of ``vals``, the values at the nodes of
    ``gauss_nodes`` on the last axis, segment widths ``h``: a float for
    one integrand, an array for several stacked on leading axes."""
    vals = np.asarray(vals, dtype=float)
    vals = vals.reshape(vals.shape[:-1] + (h.size, 12))
    total = ((vals @ _GL_WEIGHTS) * h).sum(-1)
    return float(total) if total.ndim == 0 else total


def gauss_on_segments(f, breaks):
    """Composite 12-point Gauss-Legendre over consecutive segments.

    Meant for integrands that are smooth on each segment between
    ``breaks``: the fixed rule then converges at spectral order, and the
    total cost is a single vectorized evaluation.  ``f`` must accept a 1-D
    numpy array and is called once, on every node; it may return several
    integrands stacked on leading axes.  A float for one integrand, an
    array for a stack; fewer than two breaks give zeros of that shape.
    """
    x, h = gauss_nodes(breaks)
    return gauss_sum(f(x), h)


class GaussAntiderivative:
    """Running integral from x_0, plus ``start``, of the piecewise
    polynomial that interpolates f at the 12 Gauss-Legendre nodes of each
    panel [x_k, x_{k+1}]; queries clamp to [x_0, x_n].

    f is called once, on every node, at construction.  At each break the
    integral is ``start`` plus the composite rule's sums of the panels
    before; inside a panel it adds that panel's antiderivative, 13
    coefficients of scaled Legendre polynomials in t = 2 (q - x_k) /
    (x_{k+1} - x_k) - 1, summed by Clenshaw's three-term recurrence.  The
    last break's value is the composite rule's integral over [x_0, x_n].
    """

    def __init__(self, f, x, start=0.0):
        self.x = x
        nodes, h = gauss_nodes(x)
        vals = np.asarray(f(nodes), dtype=float).reshape(h.size, 12)
        self._half = h / 2.0
        coef = vals @ _ANTI
        coef *= self._half[:, None]
        # one row per coefficient, read a row at a time by __call__
        self._c = coef.T.copy()
        self._cum = np.cumsum(np.append(start, (vals @ _GL_WEIGHTS) * h))

    def __call__(self, q):
        q = np.minimum(np.maximum(q, self.x[0]), self.x[-1])
        k = np.searchsorted(self.x[1:-1], q, side="right")
        t = (q - self.x[k]) / self._half[k] - 1.0
        c = self._c
        b2 = c[12][k]
        b1 = c[11][k] + (_ALPHA[11] * t) * b2
        for j in range(10, -1, -1):
            b2, b1 = b1, c[j][k] + (_ALPHA[j] * t) * b1 - b2
        return self._cum[k] + b1


def dyadic_breaks(breaks, targets, depth=LEVELS):
    """``breaks`` joined with points graded dyadically toward each target.

    Toward a target x the points x - (x - lo) 2^-k and x + (hi - x) 2^-k,
    k = 1..depth, are added, [lo, hi] being the span of ``breaks`` and
    ``depth`` (1 to 100) one for every target or one per target.  Past
    the segments next to x, no segment spans more than a factor 2 in its
    distance to x, so a fixed rule resolves an algebraic behaviour at x
    (r^(N-1) at r = 0 for real N, a square-root level radius at a flat
    node).  Returns the ascending union.
    """
    breaks = np.asarray(breaks, dtype=float)
    lo, hi = breaks[0], breaks[-1]
    x = np.asarray(targets, dtype=float)[:, None]
    # a level past its target's depth repeats the deepest one
    step = _STEPS[np.minimum(_LEVEL, np.reshape(depth, (-1, 1))) - 1]
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
    value, and its value and slope together (``jet``); queries clamp to
    [x_0, x_n].

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
