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
from isosharp.specfun import (bessel_first_zero, bessel_j, bessel_j_prime,
                              bessel_j_scaled, beta, gamma, log_gamma, omega)

from oracles import bessel_series_oracle, bessel_zero_oracle

J0_ZERO = 2.404825557695773
J1_ZERO = 3.831705970207512
J32_ZERO = 4.493409457909064   # j_{3/2}, frozen from mpmath
J2_ZERO = 5.135622301840683
J72_ZERO = 6.98793200050052    # j_{7/2}


def test_gamma_trivial_values():
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-13)
    assert gamma(0.5) == pytest.approx(1.7724538509055159, rel=1e-13)
    assert gamma(5.0) == pytest.approx(24.0, rel=1e-13)


def test_gamma_matches_libm_to_contract():
    # post: relative error <= 1e-13 on (0, 170]
    xs = np.concatenate([np.linspace(0.02, 2.0, 160),
                         np.linspace(2.0, 170.0, 400)])
    for x in xs:
        x = float(x)
        assert gamma(x) == pytest.approx(math.gamma(x), rel=1e-13), x


def test_gamma_domain_errors():
    for bad in (0.0, -1.0, math.nan, math.inf, 2000.0):
        with pytest.raises(DomainError):
            gamma(bad)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.1, max_value=80.0))
def test_gamma_recurrence(x):
    assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)


def test_log_gamma_consistent_with_gamma():
    for x in (0.3, 1.7, 12.0, 90.0, 168.0):
        assert log_gamma(x) == pytest.approx(math.lgamma(x), rel=0, abs=1e-12)
    # no overflow limit in log space
    assert log_gamma(5000.0) == pytest.approx(math.lgamma(5000.0), rel=1e-14)


def test_beta_trivial_values():
    assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-13)
    assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-13)
    assert beta(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-13)


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


def test_bessel_j_prime_matches_difference_quotient():
    for nu, x in [(0.0, 1.3), (1.0, 2.0), (2.5, 11.0), (0.5, 6.0)]:
        h = 1e-6
        fd = (bessel_j(nu, x + h) - bessel_j(nu, x - h)) / (2 * h)
        assert bessel_j_prime(nu, x) == pytest.approx(fd, abs=1e-9)


def test_first_zero_examples():
    assert bessel_first_zero(0.0) == pytest.approx(J0_ZERO, abs=1e-11)
    assert bessel_first_zero(0.5) == pytest.approx(math.pi, abs=1e-11)
    assert bessel_first_zero(1.0) == pytest.approx(J1_ZERO, abs=1e-11)


def test_first_zero_half_order_is_pi():
    # the McMahon guess is exact at nu = 1/2; the converged Newton step
    # must be taken, not rejected for landing on the bracket end
    assert bessel_first_zero(0.5) == pytest.approx(math.pi, rel=1e-15)


def test_first_zero_matches_mpmath():
    for nu in (0.0, 0.25, 0.5, 1.0, 1.5, 2.5, 7.5, 15.0, 33.5, 64.25, 99.5):
        with mp.workdps(30):
            want = float(mp.besseljzero(nu, 1))
        assert bessel_first_zero(nu) == pytest.approx(want, rel=1e-14), nu


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
    monkeypatch.setattr(specfun, "_ABS_TOL", 1e-30)
    monkeypatch.setattr(specfun, "_MAX_ITER", 3)
    with pytest.raises(ConvergenceError) as exc:
        bessel_first_zero(0.123456789)
    assert exc.value.bracket is not None


def test_first_zero_cached_by_order():
    nu = 2.718281828
    first = bessel_first_zero(nu)
    assert bessel_first_zero(nu) is first
    with mp.workdps(30):
        want = float(mp.besseljzero(nu, 1))
    assert first == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("nu", [-1.0, 1e5, math.nan, "1", [1.0],
                                np.array([1.0])])
def test_first_zero_rejects_bad_orders(nu):
    with pytest.raises(DomainError):
        bessel_first_zero(nu)


def test_omega_examples():
    assert omega(1.0) == pytest.approx(2.0, rel=1e-13)
    assert omega(2.0) == pytest.approx(math.pi, rel=1e-13)
    assert omega(3.0) == pytest.approx(4.188790204786391, rel=1e-13)


def test_omega_direct_formula_consistency():
    # real N allowed; compare the log-space route with the direct formula
    for N in np.concatenate([np.linspace(1.0, 60.0, 49), [2.5, 3.7, 11.3]]):
        N = float(N)
        direct = math.pi ** (N / 2) / gamma(1.0 + N / 2)
        assert omega(N) == pytest.approx(direct, rel=1e-13), N


def test_omega_domain_error():
    with pytest.raises(DomainError):
        omega(0.5)
