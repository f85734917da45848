"""The running integral of the Gauss rule's panel interpolants."""

import numpy as np
import pytest

from isosharp.quadrature import GaussAntiderivative, gauss_on_segments


def test_degree_11_is_integrated_exactly():
    # the interpolant at 12 nodes is the polynomial itself; to rounding
    # relative to the largest panel integral
    x = np.array([0.0, 0.4, 1.0, 2.5, 3.0])
    q = np.linspace(0.05, 3.0, 301)
    table = GaussAntiderivative(lambda s: s ** 11 - 3.0 * s ** 5 + 2.0, x)
    exact = q ** 12 / 12.0 - q ** 6 / 2.0 + 2.0 * q
    assert np.abs(table(q) - exact).max() < 1e-15 * exact.max()


def test_break_values_are_the_composite_rule():
    # start plus the Gauss sums of the panels before; queries clamp
    x = np.linspace(0.0, 2.0, 9)
    table = GaussAntiderivative(np.exp, x, start=0.5)
    sums = [0.5 + gauss_on_segments(np.exp, x[:k + 1]) for k in range(x.size)]
    assert table(x) == pytest.approx(sums, rel=2e-16 * x.size, abs=0.0)
    assert table(np.array([0.0, 1e3])) == pytest.approx([0.5, sums[-1]],
                                                        rel=1e-15)
    assert np.ndim(table(2.0)) == 0


def test_smooth_integrand_between_breaks():
    x = np.linspace(0.0, 3.0, 7)
    q = np.linspace(0.2, 3.0, 57)
    assert GaussAntiderivative(np.exp, x)(q) == pytest.approx(
        np.expm1(q), rel=1e-15, abs=0.0)
