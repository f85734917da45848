"""Radial test profiles, built with the RadialFunction constructor."""

import numpy as np

from isosharp.rearrange import RadialFunction


def exact(fn, deriv, grid):
    """The exact profile of ``fn`` and its slope ``deriv``, sampled on
    ``grid``, which must contain every kink of ``fn``."""
    g = np.asarray(grid, dtype=float)
    return RadialFunction(g, np.maximum(fn(g), 0.0), value_fn=fn,
                          deriv_fn=deriv)


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
