"""Radial test profiles, built with the RadialFunction constructor, and a
piecewise-linear warping profile with F in closed form."""

import numpy as np

from isosharp.rearrange import RadialFunction
from isosharp.spaces import WarpingProfile


def exact(fn, deriv, grid):
    """The exact profile of ``fn`` and its slope ``deriv``, sampled on
    ``grid``, which must contain every kink of ``fn``."""
    g = np.asarray(grid, dtype=float)
    return RadialFunction(g, fn, deriv)


def interpolated(grid, values):
    """The profile of scipy's monotone cubic (``PchipInterpolator``) through
    (grid, values), queries clamped to the grid: its value and slope are
    the cubic's."""
    # imported here: the numpy-alone script imports this module
    from scipy.interpolate import PchipInterpolator

    g = np.asarray(grid, dtype=float)
    cubic = PchipInterpolator(g, np.asarray(values, dtype=float))
    slope = cubic.derivative()
    return RadialFunction(g, lambda r: cubic(np.clip(r, g[0], g[-1])),
                          lambda r: slope(np.clip(r, g[0], g[-1])))


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


class RampProfile(WarpingProfile):
    """f(s) = 1 + c min(s, s_cap), s_cap = (cap - 1)/c > 0: from f(0) = 1 at
    slope c to ``cap``, then constant, with F in closed form.

    Rising (c > 0, cap > 1), F' = f > 1 for s > 0 and F'' = c > 0 up to
    s_cap: a negative control for the Bishop-Gromov and curvature checks.
    Falling (c < 0, 0 < cap < 1), it is an admissible profile that is not an
    ``ExponentialTail``, so its space has no flat descriptor.
    """

    def __init__(self, c, cap):
        self.c, self.cap = c, cap
        self.s_cap = (cap - 1.0) / c

    def f(self, s):
        return 1.0 + self.c * np.minimum(np.asarray(s, dtype=float), self.s_cap)

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
