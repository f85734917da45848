"""The Hermite-cubic kernel against scipy's PchipInterpolator, bit for bit."""

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from isosharp.quadrature import Hermite, pchip


def _nonincreasing(rng, n):
    """n knots from 0, values nonincreasing with runs of ties."""
    x = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 1.0, n - 1))])
    drops = rng.exponential(1.0, n) * (rng.random(n) < 0.6)
    return x, np.cumsum(drops)[::-1].copy()


@pytest.mark.parametrize("seed", range(40))
def test_pchip_matches_scipy(seed):
    rng = np.random.default_rng(seed)
    n = 2 + seed % 3 if seed < 6 else int(rng.integers(4, 301))
    x, y = _nonincreasing(rng, n)
    ref = PchipInterpolator(x, y)
    kernel = pchip(x, y)
    q = np.concatenate([x, rng.uniform(x[0], x[-1], 500)])
    value, slope = kernel.jet(q)
    assert np.array_equal(kernel(q), ref(q)) and np.array_equal(value, ref(q))
    assert np.array_equal(slope, ref.derivative()(q))
    assert np.array_equal(kernel.antideriv(q), ref.antiderivative()(q))
    assert np.array_equal(kernel.jet(x[:-1])[1], ref.derivative()(x[:-1]))


def test_sign_changing_data_matches_scipy():
    # the end-slope caps and the flat interior knots of non-monotone data
    rng = np.random.default_rng(7)
    for n in (3, 4, 9, 60):
        x = np.sort(rng.uniform(0.0, 5.0, n))
        y = rng.normal(size=n)
        ref = PchipInterpolator(x, y)
        q = rng.uniform(x[0], x[-1], 300)
        assert np.array_equal(pchip(x, y)(q), ref(q))
        assert np.array_equal(pchip(x, y).jet(q)[1], ref.derivative()(q))


def test_two_knots_are_the_line():
    kernel = pchip(np.array([0.0, 2.0]), np.array([1.0, 0.0]))
    q = np.array([0.0, 0.5, 2.0])
    assert np.array_equal(kernel(q), [1.0, 0.75, 0.0])
    assert np.array_equal(kernel.jet(q)[1], [-0.5, -0.5, -0.5])
    assert np.array_equal(kernel.antideriv(q), [0.0, 0.4375, 1.0])


def test_queries_clamp_to_the_knots():
    kernel = Hermite(np.array([0.0, 1.0, 3.0]), np.array([2.0, 1.0, 0.0]),
                     np.array([-1.0, -0.5, 0.0]))
    assert kernel(-1.0) == 2.0 and kernel(5.0) == 0.0
    assert kernel.jet(-1.0) == (2.0, -1.0) and kernel.jet(5.0) == (0.0, 0.0)
    assert kernel.antideriv(5.0) == kernel.antideriv(3.0)
