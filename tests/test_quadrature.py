"""The running integral of the Gauss rule's panel interpolants."""

import numpy as np
import pytest

from isosharp.quadrature import (_ALPHA, GaussAntiderivative,
                                 dyadic_breaks, gauss_on_segments)
from isosharp.spaces import ExponentialTail, WarpedProduct


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


def _gathered_clenshaw(table, q):
    # the recurrence on all 13 coefficient rows gathered at once, a (13, n)
    # take and a (12, n) outer product of the alphas with t: __call__ reads
    # a row at a time in the same order of operations
    q = np.minimum(np.maximum(q, table.x[0]), table.x[-1])
    k = np.searchsorted(table.x[1:-1], q, side="right")
    t = (q - table.x[k]) / table._half[k] - 1.0
    c, at = np.take(table._c, k, axis=1), np.multiply.outer(_ALPHA, t)
    b2, b1 = c[12], c[11] + at[11] * c[12]
    for j in range(10, -1, -1):
        b2, b1 = b1, c[j] + at[j] * b1 - b2
    return table._cum[k] + b1


@pytest.mark.parametrize("table", [
    GaussAntiderivative(np.exp, np.linspace(0.0, 3.0, 7), start=0.5),
    WarpedProduct(3, ExponentialTail(0.5, 1.0))._volume_table],
    ids=["exp", "warped_volume"])
def test_row_wise_clenshaw_is_the_gathered_kernel(table):
    # the same bits inside panels, on every break and clamped at both ends
    x = table.x
    rng = np.random.default_rng(7)
    inside = x[:-1] + rng.uniform(0.0, 1.0, x.size - 1) * np.diff(x)
    below, above = x[0] - np.array([1.0, 1e-3]), x[-1] + np.array([1e-3, 1.0])
    for q in (inside, x, below, above, np.concatenate([above, x, inside])):
        assert np.array_equal(table(q), _gathered_clenshaw(table, q))
    for q in (x[0], float(inside[0]), x[-1] + 1.0):
        assert table(q) == _gathered_clenshaw(table, q)


def test_dyadic_depth_per_target():
    # toward 0 only 4 2^-k for k <= 5; toward 2 all 100 levels, each side
    grid = np.array([0.0, 1.0, 4.0])
    k = np.arange(1, 101)
    want = np.unique(np.concatenate([grid, 4.0 * 2.0 ** -k[:5],
                                     2.0 - 2.0 ** (1 - k),
                                     2.0 + 2.0 ** (1 - k)]))
    assert dyadic_breaks(grid, [0.0, 2.0], [5, 100]).tolist() == want.tolist()
    assert (dyadic_breaks(grid, [0.0, 2.0], 100).tolist()
            == dyadic_breaks(grid, [0.0, 2.0]).tolist())
    assert dyadic_breaks(grid, [0.0], 1).tolist() == [0.0, 1.0, 2.0, 4.0]
