"""Radial test profiles, built with the RadialFunction constructor, and a
warping profile that breaks the curvature conditions."""

import numpy as np

from isosharp.quadrature import pchip
from isosharp.rearrange import RadialFunction
from isosharp.spaces import WarpingProfile


def exact(fn, deriv, grid):
    """The exact profile of ``fn`` and its slope ``deriv``, sampled on
    ``grid``, which must contain every kink of ``fn``."""
    g = np.asarray(grid, dtype=float)
    return RadialFunction(g, np.maximum(fn(g), 0.0), value_fn=fn,
                          deriv_fn=deriv)


def interpolated(grid, values):
    """The profile of the monotone cubic (``quadrature.pchip``) through
    (grid, values): its value and slope are the cubic's."""
    g = np.asarray(grid, dtype=float)
    cubic = pchip(g, np.asarray(values, dtype=float))
    return RadialFunction(g, values, cubic, lambda r: cubic.jet(r)[1])


def plateau(height, radius):
    """height on [0, radius] and 0 after, with slope 0: the last segment, of
    relative width 2^-30, stands in for the jump."""
    return exact(lambda r: np.where(np.asarray(r) <= radius, height, 0.0),
                 lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                 [0.0, radius, radius * (1.0 + 2.0 ** -30)])


def support_end(u):
    """The first grid node past u's last positive sample (the last node if
    none is past it; 0 if no sample is positive)."""
    positive = np.nonzero(u.values > 0.0)[0]
    if positive.size == 0:
        return 0.0
    return float(u.r_grid[min(positive[-1] + 1, u.values.size - 1)])


class RisingProfile(WarpingProfile):
    """f(s) = min(1 + c s, cap), cap > 1: F' = f > 1 for s > 0, and
    F'' = c > 0 up to s_cap = (cap - 1)/c.  A negative control for the
    Bishop-Gromov and curvature checks, with F in closed form."""

    def __init__(self, c, cap):
        self.c, self.cap = c, cap
        self.s_cap = (cap - 1.0) / c

    def f(self, s):
        return np.minimum(1.0 + self.c * np.asarray(s, dtype=float), self.cap)

    def f_prime(self, s):
        return np.where(np.asarray(s, dtype=float) < self.s_cap, self.c, 0.0)

    def F(self, s):
        s = np.asarray(s, dtype=float)
        head = np.minimum(s, self.s_cap)
        return (head + 0.5 * self.c * head ** 2
                + self.cap * np.maximum(s - self.s_cap, 0.0))

    @property
    def asymptote(self):
        return self.cap

    @property
    def breaks(self):
        return np.array([0.0, self.s_cap])
