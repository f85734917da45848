"""Thin adaptive-quadrature wrapper.

Everything integrable in this package is a smooth or piecewise-smooth radial
profile, so QUADPACK does the heavy lifting.  ``integrate`` adds the two
things the callers actually need on top of scipy.integrate.quad: a quiet
retry that subdivides the interval when the adaptive scheme reports trouble,
and a composite fixed-order Gauss rule for integrands defined piecewise on a
known breakpoint grid (interpolants), where handing QUADPACK hundreds of
kinks would be slower and less accurate.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import integrate as _si

from .errors import ConvergenceError

# 12-point Gauss-Legendre rule moved from [-1, 1] onto [0, 1]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
_GL_NODES, _GL_WEIGHTS = (_GL_NODES + 1.0) / 2.0, _GL_WEIGHTS / 2.0


def integrate(f, a, b, rel_tol=1e-11, abs_tol=1e-13, points=None, limit=200,
              _depth=0):
    """Adaptive integral of ``f`` over [a, b]; b may be math.inf."""
    if not b > a:
        if b == a:
            return 0.0
        raise ValueError(f"bad interval [{a}, {b}]")
    kw = dict(epsabs=abs_tol, epsrel=rel_tol, limit=limit)
    if points is not None and math.isfinite(b):
        pts = [p for p in points if a < p < b]
        # QUADPACK caps break points; thin out rather than fail
        if len(pts) > 80:
            pts = pts[:: len(pts) // 80 + 1]
        kw["points"] = pts or None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", _si.IntegrationWarning)
        val, err, info, *msg = _si.quad(f, a, b, full_output=1, **kw)
    ok = not msg and err <= 10 * (abs_tol + rel_tol * abs(val))
    if ok:
        return val
    if _depth >= 8:
        raise ConvergenceError(
            f"quadrature failed to converge on [{a}, {b}] (err={err:g})",
            bracket=(a, b))
    # subdivide and retry; split infinite tails at a finite knee
    mid = a + max(1.0, abs(a)) if math.isinf(b) else 0.5 * (a + b)
    return (integrate(f, a, mid, rel_tol, abs_tol, points, limit, _depth + 1)
            + integrate(f, mid, b, rel_tol, abs_tol, points, limit, _depth + 1))


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

    Meant for integrands built from a piecewise-cubic interpolant whose
    breakpoints are ``breaks``: each segment is smooth, so the fixed rule
    converges at spectral order and the total cost is a single vectorized
    evaluation.
    """
    breaks = np.asarray(breaks, dtype=float)
    if breaks.size < 2:
        return 0.0
    return float(np.sum(gauss_panels(f, breaks[:-1], breaks[1:])))
