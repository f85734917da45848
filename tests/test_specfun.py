"""Special-function kernel tests.

Expected values come from closed forms, the pure series/bisection oracles
in oracles.py, literals frozen from a high-precision mpmath sweep, and
mpmath itself at test time (a test-only oracle: the kernel never imports
it).
"""

import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from isosharp.errors import ConvergenceError, DomainError
from isosharp import specfun
from isosharp.specfun import (bessel_first_zero, bessel_j, bessel_j_scaled,
                              beta, log_gamma, log_omega, omega)

from oracles import bessel_series_oracle, bessel_zero_oracle

J0_ZERO = 2.404825557695773
J1_ZERO = 3.831705970207512
J32_ZERO = 4.493409457909064   # j_{3/2}, frozen from mpmath
J2_ZERO = 5.135622301840683
J72_ZERO = 6.98793200050052    # j_{7/2}


def test_log_gamma_consistent_with_gamma():
    # against mpmath: absolute 1e-12 on (0, 3], where log Gamma crosses 0
    # at 1 and 2, and relative 1e-14 from 3 up to its overflow edge
    small = np.concatenate([np.geomspace(1e-300, 0.3, 30),
                            np.linspace(0.3, 3.0, 60)])
    large = np.geomspace(3.0, 2.5e305, 200)
    with mp.workdps(30):
        for x in small:
            want = float(mp.loggamma(float(x)))
            assert log_gamma(float(x)) == pytest.approx(
                want, rel=0, abs=1e-12), x
        for x in large:
            want = float(mp.loggamma(float(x)))
            assert log_gamma(float(x)) == pytest.approx(
                want, rel=1e-14, abs=0.0), x
    # past ~2.55e305 log Gamma itself overflows
    assert log_gamma(1e308) == math.inf


def test_beta_trivial_values():
    assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-13, abs=0.0)
    assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-13, abs=0.0)
    assert beta(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-13, abs=0.0)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.05, max_value=50.0),
       st.floats(min_value=0.05, max_value=50.0))
def test_beta_symmetric_exactly(a, b):
    assert beta(a, b) == beta(b, a)


def test_beta_domain_errors():
    with pytest.raises(DomainError):
        beta(0.0, 1.0)
    with pytest.raises(DomainError):
        beta(1.0, -2.0)


def test_bessel_j_trivial_and_closed_form():
    assert bessel_j(0.0, 0.0) == 1.0
    assert bessel_j(2.0, 0.0) == 0.0
    # J_{1/2}(x) = sqrt(2/(pi x)) sin x, so J_{1/2}(pi/2) = 2/pi
    assert bessel_j(0.5, math.pi / 2) == pytest.approx(
        0.6366197723675814, abs=1e-13)
    assert abs(bessel_j(0.0, J0_ZERO)) <= 1e-12


def test_bessel_j_against_series_oracle_small_x():
    for nu in (0.0, 0.5, 1.0, 2.5, 7.0):
        for x in (0.1, 1.0, 4.0, 8.0):
            assert bessel_j(nu, x) == pytest.approx(
                bessel_series_oracle(nu, x), abs=1e-13), (nu, x)


def test_bessel_j_contract_region_against_scipy():
    # post: absolute error <= 1e-12 for nu <= 10, x <= 50; scipy.special
    # shares no code with the kernel so it serves as an oracle here
    nus = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.5, 7.0, 10.0]
    xs = np.linspace(0.0, 50.0, 151)
    for nu in nus:
        want = scipy.special.jv(nu, xs)
        got = np.array([bessel_j(nu, float(x)) for x in xs])
        assert np.max(np.abs(got - want)) <= 1e-12, nu


def test_bessel_j_frozen_spot_values():
    # frozen from a 40-digit mpmath sweep
    spots = [
        (0.0, 1.0, 0.7651976865579666),
        (0.0, 5.0, -0.17759677131433830),
        (0.0, 12.0, 0.047689310796833537),
        (0.0, 30.0, -0.086367983581040211),
        (0.0, 50.0, 0.055812327669251815),
        (10.0, 20.0, 0.18648255802394508),
        (2.5, 7.7, -0.28694076742519361),
    ]
    for nu, x, want in spots:
        assert bessel_j(nu, x) == pytest.approx(want, abs=5e-14), (nu, x)


@pytest.mark.parametrize("nu", [0.25, 1.5, 7.3, 20.5, 47.75, 99.5])
def test_bessel_j_array_and_scalar_match_mpmath(nu):
    # non-integer orders up to ~100, x from 0 to well past the series
    # switch; the array runs one Miller recurrence for all its x > 9
    xs = np.concatenate([[0.0, 0.3, 4.0, 8.99, 9.01],
                         np.linspace(12.0, 150.0, 12)])
    with mp.workdps(30):
        want = np.array([float(mp.besselj(nu, float(x))) for x in xs])
    got = bessel_j(nu, xs)
    assert got.shape == xs.shape
    assert np.max(np.abs(got - want)) <= 5e-14
    for x, w in zip(xs, want):
        assert bessel_j(nu, float(x)) == pytest.approx(w, abs=5e-14), x


@pytest.mark.parametrize("nu", [0.0, 0.5, 7.3, 49.75, 120.0])
def test_bessel_j_scaled_matches_mpmath(nu):
    # Gamma(nu+1) (2/x)^nu J_nu(x) is 1 at 0 and stays finite where J_nu
    # underflows (x = 1e-3 at nu = 120)
    xs = np.array([0.0, 1e-3, 0.5, 6.0, 8.99, 9.01, 20.0, 60.0])
    with mp.workdps(40):
        want = [1.0] + [float(mp.gamma(nu + 1) * (2 / mp.mpf(x)) ** nu
                              * mp.besselj(nu, x)) for x in xs[1:]]
    got = bessel_j_scaled(nu, xs)
    scalar = [bessel_j_scaled(nu, float(x)) for x in xs]
    for x, g, s1, w in zip(xs, got, scalar, want):
        assert g == pytest.approx(w, rel=1e-12, abs=5e-14), x
        assert s1 == pytest.approx(w, rel=1e-12, abs=5e-14), x


def _per_term_check_series(nu, x):
    # verbatim, the series kernel as it was before it took a column of
    # orders: the convergence test on every term from the fourth on
    vector = hasattr(x, "all")
    term = total = 1.0
    q = 0.25 * x * x
    for k in range(1, 400):
        term = term * (-q / (k * (nu + k)))
        total = total + term
        done = abs(term) <= 1e-17 * (abs(total) + 1e-300)
        if k > 3 and (done.all() if vector else done):
            return total
    raise ConvergenceError(f"bessel series stalled at nu={nu}")


def _per_term_check_scaled(nu, x):
    """One order of bessel_j_scaled through the kernel above (x <= 9) and
    one Miller recurrence for all of x > 9."""
    def miller(x):
        return specfun._bessel_miller(nu, x) / specfun._leading(nu, x)

    if isinstance(x, float):
        return _per_term_check_series(nu, x) if x <= 9.0 else miller(x)
    out = x.astype(float)
    small = out <= 9.0
    if small.any():
        out[small] = _per_term_check_series(nu, out[small])
    if not small.all():
        out[~small] = miller(out[~small])
    return out


BIT_ORDERS = (0.0, 0.5, 1.5, 5.5, 100.0)


def _bit_grids(orders):
    # 0, each j_nu and the switch at 9, arrays straddling it, empty and
    # size-1 arrays on either side, and a 2-D array
    zeros = [bessel_first_zero(nu) for nu in orders]
    return [np.concatenate([[0.0, 9.0], zeros, np.linspace(0.0, 12.0, 49)]),
            np.linspace(8.5, 9.5, 11), np.nextafter(9.0, [0.0, 10.0]),
            np.array([]), np.array([4.0]), np.array([9.25]),
            np.array([[0.5, 9.0], [9.5, 30.0]])]


@pytest.mark.parametrize("orders", [(nu, nu + 1.0) for nu in BIT_ORDERS]
                         + [BIT_ORDERS], ids=lambda o: "-".join(map(str, o)))
def test_bessel_j_scaled_rows_are_the_per_order_bits(orders):
    # the stacked series equals each order's own call, and the kernel that
    # tested convergence on every term, bit for bit
    for x in _bit_grids(orders):
        rows = bessel_j_scaled(orders, x)
        assert rows.shape == (len(orders),) + x.shape
        for row, nu in zip(rows, orders):
            own = bessel_j_scaled(nu, x)
            assert own.shape == x.shape
            assert row.tobytes() == own.tobytes(), (nu, x)
            assert row.tobytes() == _per_term_check_scaled(nu, x).tobytes()
    for x in (0.0, 2.0, bessel_first_zero(orders[0]), 9.0, 9.5, 30.0):
        got = bessel_j_scaled(orders, x)
        assert type(got) is tuple and len(got) == len(orders)
        for g, nu in zip(got, orders):
            want = _per_term_check_scaled(nu, x)
            assert g.hex() == bessel_j_scaled(nu, x).hex() == want.hex()


@pytest.mark.parametrize("nu", BIT_ORDERS)
def test_bessel_j_keeps_the_per_term_check_bits(nu):
    # the unscaled J, which the first zeros solve on, over the same kernel
    for x in _bit_grids((nu,)):
        small = x[x <= 9.0]
        got = bessel_j(nu, small)
        want = (specfun._leading(nu, small)
                * _per_term_check_series(nu, small))
        assert got.tobytes() == want.tobytes(), (nu, x)
        for v in small.ravel().tolist():
            assert bessel_j(nu, v) == specfun._leading(nu, v) \
                * _per_term_check_series(nu, v)


def test_bessel_series_tests_convergence_at_its_last_term(monkeypatch):
    # with 3 terms no fourth term is reached: x = 0 converges at the last
    # term, x = 8 has not and raises, for one order and for a stack
    monkeypatch.setattr(specfun, "_SERIES_TERMS", 3)
    assert bessel_j_scaled(0.0, 0.0) == 1.0
    assert bessel_j_scaled((0.0, 1.0), np.zeros(2)).tolist() == [[1.0] * 2] * 2
    with pytest.raises(ConvergenceError):
        bessel_j_scaled(0.0, 8.0)
    with pytest.raises(ConvergenceError):
        bessel_j_scaled((0.0, 1.0), np.array([0.0, 8.0]))


def test_bessel_j_scaled_rows_reject_bad_orders():
    for orders in ((1.0, -1.0), [0.5, math.nan], (1.0, "2")):
        with pytest.raises(DomainError):
            bessel_j_scaled(orders, np.array([1.0]))
        with pytest.raises(DomainError):
            bessel_j_scaled(orders, 1.0)
    with pytest.raises(DomainError):
        bessel_j_scaled((0.0, 1.0), np.array([1.0, -2.0]))
    assert bessel_j_scaled((), np.array([1.0, 2.0])).shape == (0, 2)


def test_bessel_j_array_keeps_shape():
    xs = np.array([[0.0, 2.0], [11.0, 40.0]])
    got = bessel_j(2.5, xs)
    assert got.shape == (2, 2)
    assert got[1, 0] == pytest.approx(bessel_j(2.5, 11.0), abs=5e-14)
    assert bessel_j(0.5, np.asarray(3.0)).shape == ()
    with pytest.raises(DomainError):
        bessel_j(1.0, np.array([1.0, -2.0]))
    with pytest.raises(DomainError):
        bessel_j(1.0, np.array([1.0, np.nan]))


def test_bessel_j_domain_errors():
    with pytest.raises(DomainError):
        bessel_j(-1.0, 2.0)
    with pytest.raises(DomainError):
        bessel_j(1.0, -2.0)


def test_bessel_recurrence_on_grid():
    # J_{nu-1} + J_{nu+1} = (2 nu / x) J_nu, abs err <= 1e-10
    for nu in (1.0, 1.5, 2.0, 4.0, 9.0):
        for x in np.linspace(0.4, 45.0, 40):
            x = float(x)
            lhs = bessel_j(nu - 1, x) + bessel_j(nu + 1, x)
            rhs = 2.0 * nu / x * bessel_j(nu, x)
            assert abs(lhs - rhs) <= 1e-10, (nu, x)


def test_first_zero_examples():
    assert bessel_first_zero(0.0) == pytest.approx(J0_ZERO, abs=1e-11)
    assert bessel_first_zero(0.5) == pytest.approx(math.pi, abs=1e-11)
    assert bessel_first_zero(1.0) == pytest.approx(J1_ZERO, abs=1e-11)


def test_first_zero_half_order_is_pi():
    # the McMahon guess is exact at nu = 1/2, and Brent's method must
    # land on it to within 2 ulps
    assert bessel_first_zero(0.5) == pytest.approx(math.pi, rel=1e-15, abs=0.0)


def test_first_zero_matches_mpmath():
    for nu in (0.0, 0.25, 0.5, 1.0, 1.5, 2.5, 7.5, 15.0, 33.5, 64.25, 99.5):
        with mp.workdps(30):
            want = float(mp.besseljzero(nu, 1))
        assert bessel_first_zero(nu) == pytest.approx(
            want, rel=1e-14, abs=0.0), nu


def test_first_zero_against_series_bisection_oracle():
    assert bessel_first_zero(0.0) == pytest.approx(
        bessel_zero_oracle(0.0, 2.0, 3.0), abs=1e-11)
    assert bessel_first_zero(1.0) == pytest.approx(
        bessel_zero_oracle(1.0, 3.0, 4.5), abs=1e-11)


def test_first_zero_residual_invariant():
    for nu, frozen in [(0.0, J0_ZERO), (0.5, math.pi), (1.0, J1_ZERO),
                       (1.5, J32_ZERO), (2.0, J2_ZERO), (3.5, J72_ZERO)]:
        z = bessel_first_zero(nu)
        assert abs(bessel_j(nu, z)) <= 1e-10
        assert z == pytest.approx(frozen, abs=1e-10)


def test_first_zero_large_order():
    # against scipy's integer-order zero table
    want = float(scipy.special.jn_zeros(15, 1)[0])
    assert bessel_first_zero(15.0) == pytest.approx(want, abs=1e-10)


def test_first_zero_iteration_budget(monkeypatch):
    # zeros are cached by order, so the starved budget needs an order that
    # no other test asks for
    monkeypatch.setattr(specfun, "_MAX_ITER", 3)
    with pytest.raises(ConvergenceError) as exc:
        bessel_first_zero(0.123456789)
    assert exc.value.bracket is not None


def test_first_zero_window_brackets_every_order():
    # J_nu is positive at the window's low end and negative at its high
    # end, with scipy's jv as the oracle: finely where the guess switches
    # from McMahon to Olver, then every 0.2 up to the largest order
    nus = np.unique(np.concatenate([np.linspace(0.0, 20.0, 20001),
                                    np.linspace(20.0, 1e4, 50001)]))
    lo, hi = np.array([specfun._first_zero_window(float(nu))
                       for nu in nus]).T
    assert np.all(scipy.special.jv(nus, lo) > 0.0)
    assert np.all(scipy.special.jv(nus, hi) < 0.0)


def test_first_zero_window_without_sign_change(monkeypatch):
    # a window that misses the zero is reported with its bracket, not
    # widened; an order no other test asks for dodges the cache
    monkeypatch.setattr(specfun, "_first_zero_window", lambda nu: (1.0, 2.0))
    with pytest.raises(ConvergenceError, match="does not bracket") as exc:
        bessel_first_zero(0.987654321)
    assert exc.value.bracket == (1.0, 2.0)


def test_first_zero_cached_by_order():
    nu = 2.718281828
    first = bessel_first_zero(nu)
    assert bessel_first_zero(nu) is first
    with mp.workdps(30):
        want = float(mp.besseljzero(nu, 1))
    assert first == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("nu", [-1.0, 1e5, math.nan, "1", [1.0],
                                np.array([1.0])])
def test_first_zero_rejects_bad_orders(nu):
    with pytest.raises(DomainError):
        bessel_first_zero(nu)


def test_omega_examples():
    assert omega(1.0) == pytest.approx(2.0, rel=1e-13, abs=0.0)
    assert omega(2.0) == pytest.approx(math.pi, rel=1e-13, abs=0.0)
    assert omega(3.0) == pytest.approx(4.188790204786391, rel=1e-13, abs=0.0)


def test_omega_direct_formula_consistency():
    # real N allowed; compare the log-space route with the direct formula
    for N in np.concatenate([np.linspace(1.0, 60.0, 49), [2.5, 3.7, 11.3]]):
        N = float(N)
        direct = math.pi ** (N / 2) / math.gamma(1.0 + N / 2)
        assert omega(N) == pytest.approx(direct, rel=1e-13, abs=0.0), N


def test_log_omega_finite_up_to_its_documented_bound():
    # finite (and right) just below N ~ 5.12e305; -inf above it, where the
    # true value is itself below the most negative double
    with mp.workdps(30):
        for N in (5.1e305, 5.119e305):
            exact = (mp.mpf(N) / 2 * mp.log(mp.pi)
                     - mp.loggamma(1 + mp.mpf(N) / 2))
            assert log_omega(N) == pytest.approx(
                float(exact), rel=1e-14, abs=0.0), N
        N = 5.2e305
        assert (mp.mpf(N) / 2 * mp.log(mp.pi) - mp.loggamma(1 + mp.mpf(N) / 2)
                < -mp.mpf(np.finfo(float).max))
    assert log_omega(N) == -math.inf
    assert omega(N) == 0.0


def test_omega_domain_error():
    with pytest.raises(DomainError):
        omega(0.5)
