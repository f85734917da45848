"""The package's one quadrature rule: composite 12-point Gauss-Legendre.

Every integrand in the package is smooth between breakpoints known in
advance (a radial profile between its grid nodes, a space's density between
its own breaks), so each integral is ``gauss_on_segments`` on those breaks,
graded dyadically (``dyadic_breaks``) toward any algebraic endpoint
behaviour: one vectorized evaluation whose cost is known before it runs.
"""

from __future__ import annotations

import numpy as np

# 12-point Gauss-Legendre rule moved from [-1, 1] onto [0, 1]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
_GL_NODES, _GL_WEIGHTS = (_GL_NODES + 1.0) / 2.0, _GL_WEIGHTS / 2.0


def gauss_panels(f, a, b):
    """12-point Gauss-Legendre integrals of ``f`` over the panels [a, b].

    ``a`` and ``b`` are arrays of one shape; the result has that shape.
    ``f`` must accept a 1-D numpy array, and is called once for all panels.
    """
    a = np.asarray(a, dtype=float)
    h = np.asarray(b, dtype=float) - a
    x = a[..., None] + h[..., None] * _GL_NODES
    vals = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    return (vals @ _GL_WEIGHTS) * h


def gauss_on_segments(f, breaks):
    """Composite 12-point Gauss-Legendre over consecutive segments.

    Meant for integrands that are smooth on each segment between
    ``breaks``: the fixed rule then converges at spectral order, and the
    total cost is a single vectorized evaluation.
    """
    breaks = np.asarray(breaks, dtype=float)
    if breaks.size < 2:
        return 0.0
    return float(np.sum(gauss_panels(f, breaks[:-1], breaks[1:])))


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
