"""The Hermite-cubic kernel against scipy's CubicHermiteSpline through the
same knots and slopes, bit for bit, value and slope."""

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator

from isosharp.quadrature import Hermite


def _nonincreasing(rng, n):
    """n knots from 0, values nonincreasing with runs of ties."""
    x = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 1.0, n - 1))])
    drops = rng.exponential(1.0, n) * (rng.random(n) < 0.6)
    return x, np.cumsum(drops)[::-1].copy()


def _assert_matches_scipy(x, y, d, q):
    kernel, ref = Hermite(x, y, d), CubicHermiteSpline(x, y, d)
    value, slope = kernel.jet(q)
    assert np.array_equal(kernel(q), ref(q)) and np.array_equal(value, ref(q))
    assert np.array_equal(slope, ref.derivative()(q))


def _pchip_slopes(x, y):
    """scipy's PCHIP slopes at the knots (the last one to rounding: scipy
    evaluates it on the last segment)."""
    return PchipInterpolator(x, y).derivative()(x)


@pytest.mark.parametrize("seed", range(40))
def test_pchip_matches_scipy(seed):
    # monotone data through its PCHIP slopes, 2 to 300 knots
    rng = np.random.default_rng(seed)
    n = 2 + seed % 3 if seed < 6 else int(rng.integers(4, 301))
    x, y = _nonincreasing(rng, n)
    q = np.concatenate([x, rng.uniform(x[0], x[-1], 500)])
    _assert_matches_scipy(x, y, _pchip_slopes(x, y), q)


@pytest.mark.parametrize("seed", range(20))
def test_arbitrary_slopes_match_scipy(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(2, 301))
    x = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 1.0, n - 1))])
    y, d = rng.normal(size=n), rng.normal(scale=3.0, size=n)
    q = np.concatenate([x, rng.uniform(x[0], x[-1], 500)])
    _assert_matches_scipy(x, y, d, q)


def test_sign_changing_data_matches_scipy():
    # the capped end slopes and the flat interior slopes of PCHIP on
    # non-monotone data
    rng = np.random.default_rng(7)
    for n in (3, 4, 9, 60):
        x = np.sort(rng.uniform(0.0, 5.0, n))
        y = rng.normal(size=n)
        _assert_matches_scipy(x, y, _pchip_slopes(x, y),
                              rng.uniform(x[0], x[-1], 300))


def test_two_knots_are_the_line():
    kernel = Hermite(np.array([0.0, 2.0]), np.array([1.0, 0.0]),
                     np.array([-0.5, -0.5]))
    q = np.array([0.0, 0.5, 2.0])
    assert np.array_equal(kernel(q), [1.0, 0.75, 0.0])
    assert np.array_equal(kernel.jet(q)[1], [-0.5, -0.5, -0.5])


def test_queries_clamp_to_the_knots():
    kernel = Hermite(np.array([0.0, 1.0, 3.0]), np.array([2.0, 1.0, 0.0]),
                     np.array([-1.0, -0.5, 0.0]))
    assert kernel(-1.0) == 2.0 and kernel(5.0) == 0.0
    assert kernel.jet(-1.0) == (2.0, -1.0) and kernel.jet(5.0) == (0.0, 0.0)
