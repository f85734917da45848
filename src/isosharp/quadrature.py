"""Quadrature rules, one per kind of integrand.

* A radial profile, whether an interpolant or an exact callable, is smooth
  between the nodes of its grid (every kink of a callable lies on a node),
  so its norms go to the composite fixed-order Gauss rule of
  ``gauss_on_segments``, on those nodes and a dyadic grading
  (``dyadic_breaks``) toward the points where the integrand has an
  algebraic endpoint behaviour.  One vectorized evaluation covers the
  whole integral.
* An arbitrary callable with unknown breaks (a layer-cake integrand, a
  Bessel level integral, a unit-ball weight) goes to QUADPACK through
  ``integrate``, which adds a quiet retry that subdivides the interval when
  the adaptive scheme reports trouble.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy import integrate as _si

from .errors import ConvergenceError

# 12-point Gauss-Legendre rule moved from [-1, 1] onto [0, 1]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
_GL_NODES, _GL_WEIGHTS = (_GL_NODES + 1.0) / 2.0, _GL_WEIGHTS / 2.0
_LIMIT = 200   # QUADPACK's subinterval budget per call


def integrate(f, a, b, rel_tol=1e-11, abs_tol=1e-13, points=None, _depth=0):
    """Adaptive integral of ``f`` over the finite interval [a, b]."""
    if not b > a:
        if b == a:
            return 0.0
        raise ValueError(f"bad interval [{a}, {b}]")
    if points is not None:
        points = [p for p in points if a < p < b] or None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", _si.IntegrationWarning)
        val, err, info, *msg = _si.quad(f, a, b, epsabs=abs_tol,
                                        epsrel=rel_tol, limit=_LIMIT,
                                        points=points, full_output=1)
    ok = not msg and err <= 10 * (abs_tol + rel_tol * abs(val))
    if ok:
        return val
    if _depth >= 8:
        raise ConvergenceError(
            f"quadrature failed to converge on [{a}, {b}] (err={err:g})",
            bracket=(a, b))
    mid = 0.5 * (a + b)
    return (integrate(f, a, mid, rel_tol, abs_tol, points, _depth + 1)
            + integrate(f, mid, b, rel_tol, abs_tol, points, _depth + 1))


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
