"""Checks of the benchmark's mpmath oracles against textbook values and
against each other.  Run with ``python3 -m pytest perfbench``."""

import mpmath as mp
import pytest

import oracles as O


def close(a, b, tol=1e-25):
    return abs(a - b) <= tol * max(abs(a), abs(b))


def test_omega_low_dimensions():
    assert close(O.omega(1), mp.mpf(2))
    assert close(O.omega(2), mp.pi)
    assert close(O.omega(3), 4 * mp.pi / 3)


@pytest.mark.parametrize("n", [3, 4, 5.5])
def test_aubin_talenti_matches_talenti_form_at_p2(n):
    # p = 2: (pi n (n-2))^(-1/2) (Gamma(n) / Gamma(n/2))^(1/n)
    n = mp.mpf(n)
    want = (mp.pi * n * (n - 2)) ** mp.mpf(-0.5) * (
        mp.gamma(n) / mp.gamma(n / 2)) ** (1 / n)
    assert close(O.aubin_talenti(n, 2), want)


@pytest.mark.parametrize("n,p", [(3, 2), (4, 1.5), (3.6, 2)])
def test_extremal_quotient_is_aubin_talenti_at_the_endpoint(n, p):
    endpoint = mp.mpf(n) / (mp.mpf(n) - p)
    assert close(O.gn_theta(n, p, endpoint), mp.mpf(1))
    assert close(O.gn_constant(n, p, endpoint), O.aubin_talenti(n, p), 1e-20)


def test_bessel_zeros():
    assert close(O.bessel_zero(0.5), mp.pi)
    assert close(O.bessel_zero(0), mp.mpf("2.404825557695772768621631879326"))


def test_fk_constant_in_the_plane():
    assert close(O.fk_constant(2, 1), mp.pi * O.bessel_zero(0) ** 2)


@pytest.mark.parametrize("c,N,m,q,p", [(O.omega(3), 3, 2.5, 6, 2),
                                       (mp.mpf(2), 3.4, 1, 2.5, 1.7)])
def test_tent_norms_against_quadrature(c, N, m, q, p):
    lq, grad = O.tent_norms(c, N, m, q, p)
    m, p = mp.mpf(m), mp.mpf(p)
    dens = lambda r: c * N * r ** (N - 1)
    lq_quad = mp.quad(lambda r: (1 - r / m) ** q * dens(r), [0, m])
    assert close(lq, lq_quad, 1e-20)
    assert close(grad, mp.quad(lambda r: m ** -p * dens(r), [0, m]), 1e-20)


def test_monomial_unit_weight_against_slices():
    a = mp.mpf("0.7")
    slices = mp.quad(lambda t: 2 * t ** a * mp.sqrt(1 - t * t), [0, 1])
    assert close(O.monomial_unit_weight(2, a), slices, 1e-20)


@pytest.mark.parametrize("n", [2, 3])
def test_warped_volume_closed_form(n):
    for r in ("0.001", "0.8", "12"):
        want = mp.quad(lambda s: O.warped_F(0.47, 1.3, s) ** (n - 1), [0, r])
        assert close(O.warped_F_power_integral(n, 0.47, 1.3, r), want, 1e-20)


@pytest.mark.parametrize("n", [2, 3])
def test_polya_sides_coincide_on_flat_space(n):
    # a = 1 makes F(r) = r, the Euclidean metric, where u* = u
    lhs, rhs = O.warped_polya_sides(n, 1, 1, "gauss_1_2.5")
    assert close(lhs, rhs, 1e-20)
    lhs, _ = O.warped_polya_sides(n, 1, 1, "tent_2.5")
    assert close(lhs ** 2, O.tent_norms(O.omega(n), n, 2.5, 1, 2)[1], 1e-20)


def test_lq_on_flat_space_is_the_tent_closed_form():
    want = O.tent_norms(O.omega(3), 3, 1, 2, 2)[0]
    assert close(O.warped_lq(3, 1, 1, "tent_1", 2), want, 1e-20)
