"""Sharp-constant formula tests.

The Gagliardo-Nirenberg constant is cross-checked against an independent
quadrature of the extremal quotient (scipy.integrate, which shares nothing
with the package's log-space Gamma formulas), so the formula and the
variational definition vouch for each other.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from isosharp.constants import (SharpConstants, SobolevParams, aubin_talenti,
                                fk_constant, gn_constant, gn_sharp_constant,
                                gn_theta, isoperimetric_constant,
                                noncollapse_lower_bound, rayleigh_constant,
                                sharp_constants, sobolev_constant)
from isosharp.errors import DomainError
from isosharp.specfun import beta, bessel_first_zero, omega

AT32_CLOSED = (1.0 / math.sqrt(3.0)) * (2.0 / math.pi) ** (2.0 / 3.0)
AT42_FROZEN = 0.31218920569777795   # mpmath, 40 digits
G322_FROZEN = 0.6082914467207953    # mpmath, matches quadrature oracle

ENDPOINT_GRID = [(2.5, 1.5), (3.0, 2.0), (3.0, 1.5), (4.0, 2.0), (4.0, 3.0),
                 (5.0, 2.0), (5.0, 4.0), (6.0, 2.5), (7.0, 3.0), (8.0, 2.0),
                 (10.0, 4.0), (12.0, 5.0)]


def test_params_validation():
    with pytest.raises(DomainError, match="p < n violated"):
        SobolevParams(n=3.0, p=4.0)
    with pytest.raises(DomainError):
        SobolevParams(n=3.0, p=1.0)
    with pytest.raises(DomainError):
        SobolevParams(n=1.0, p=0.5)
    with pytest.raises(DomainError, match="alpha"):
        SobolevParams(n=3.0, p=2.0, alpha=3.5)
    with pytest.raises(DomainError, match="alpha"):
        SobolevParams(n=3.0, p=2.0, alpha=1.0)


def test_params_derived_exponents():
    prm = SobolevParams(n=3.0, p=2.0)
    assert prm.p_star == pytest.approx(6.0)
    assert prm.p_prime == pytest.approx(2.0)
    assert prm.alpha == pytest.approx(3.0)   # endpoint default


def test_aubin_talenti_closed_form():
    assert aubin_talenti(SobolevParams(3.0, 2.0)) == pytest.approx(
        AT32_CLOSED, rel=1e-10)
    assert aubin_talenti(SobolevParams(4.0, 2.0)) == pytest.approx(
        AT42_FROZEN, rel=1e-12)


def test_aubin_talenti_beta_identity():
    # Gamma(n)/(Gamma(n/p)Gamma(1+n-n/p)) = 1/(n B(n/p, 1+n-n/p))
    for n, p in ENDPOINT_GRID:
        via_beta = (math.pi ** -0.5 * n ** (-1.0 / p)
                    * ((p - 1.0) / (n - p)) ** (1.0 - 1.0 / p)
                    * (math.gamma(1.0 + 0.5 * n)
                       / (n * beta(n / p, 1.0 + n - n / p))) ** (1.0 / n))
        assert aubin_talenti(SobolevParams(n, p)) == pytest.approx(
            via_beta, rel=1e-13), (n, p)


def test_gn_theta_examples():
    assert gn_theta(SobolevParams(3.0, 2.0, 3.0)) == pytest.approx(1.0, abs=1e-14)
    assert gn_theta(SobolevParams(3.0, 2.0, 2.0)) == pytest.approx(0.5, abs=1e-14)
    assert gn_theta(SobolevParams(3.0, 2.0, 1.0 + 1e-7)) < 1e-6


def test_gn_endpoint_equals_aubin_talenti():
    for n, p in ENDPOINT_GRID:
        prm = SobolevParams(n, p)   # alpha at the endpoint
        assert gn_constant(prm) == pytest.approx(
            aubin_talenti(prm), rel=1e-10), (n, p)


def test_gn_constant_frozen_value():
    assert gn_constant(SobolevParams(3.0, 2.0, 2.0)) == pytest.approx(
        G322_FROZEN, rel=1e-12)


def test_gn_constant_against_quadrature_oracle():
    # independent route: the extremal h(r) = (1+r^2)^{-1} on R^3 attains the
    # best constant, so quadrature of its quotient must match the formula
    n = 3
    sphere = n * omega(float(n))
    h = lambda r: 1.0 / (1.0 + r * r)
    dh = lambda r: -2.0 * r / (1.0 + r * r) ** 2
    l4 = (sphere * quad(lambda r: h(r) ** 4 * r ** 2, 0, np.inf)[0]) ** 0.25
    g2 = (sphere * quad(lambda r: dh(r) ** 2 * r ** 2, 0, np.inf)[0]) ** 0.5
    l3 = (sphere * quad(lambda r: h(r) ** 3 * r ** 2, 0, np.inf)[0]) ** (1 / 3)
    th = gn_theta(SobolevParams(3.0, 2.0, 2.0))
    oracle = l4 / (g2 ** th * l3 ** (1.0 - th))
    assert gn_constant(SobolevParams(3.0, 2.0, 2.0)) == pytest.approx(
        oracle, rel=1e-6)


def test_sobolev_constant_examples():
    prm = SobolevParams(3.0, 2.0)
    at = aubin_talenti(prm)
    assert sobolev_constant(prm, 1.0) == pytest.approx(at, rel=1e-14)
    assert sobolev_constant(prm, 2.0 ** -3) == pytest.approx(2.0 * at, rel=1e-13)
    assert sobolev_constant(prm, 0.5) == pytest.approx(
        at * 0.5 ** (-1.0 / 3.0), rel=1e-13)
    with pytest.raises(DomainError):
        sobolev_constant(prm, 0.0)
    with pytest.raises(DomainError):
        sobolev_constant(prm, 1.5)


def test_gn_sharp_constant_examples():
    prm = SobolevParams(3.0, 2.0, 2.0)
    g = gn_constant(prm)
    assert gn_sharp_constant(prm, 1.0) == pytest.approx(g, rel=1e-14)
    assert gn_sharp_constant(prm, 0.5) == pytest.approx(
        g * 0.5 ** (-1.0 / 6.0), rel=1e-13)
    # theta = 1 collapses to the Sobolev constant
    endpoint = SobolevParams(3.0, 2.0, 3.0)
    assert gn_sharp_constant(endpoint, 0.37) == pytest.approx(
        sobolev_constant(endpoint, 0.37), rel=1e-12)


def test_fk_constant_examples():
    j0 = bessel_first_zero(0.0)
    assert fk_constant(2.0, 1.0) == pytest.approx(math.pi * j0 * j0, rel=1e-9)
    assert fk_constant(3.0, 1.0) == pytest.approx(
        math.pi ** 2 * (4.0 * math.pi / 3.0) ** (2.0 / 3.0), rel=1e-11)
    # homogeneity in avr
    base = fk_constant(3.0, 1.0)
    for avr in (0.9, 0.5, 0.11):
        assert fk_constant(3.0, avr) == pytest.approx(
            base * avr ** (2.0 / 3.0), rel=1e-12)
    with pytest.raises(DomainError):
        fk_constant(1.5, 1.0)


def test_rayleigh_product_identity():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = float(rng.uniform(2.0, 12.0))
        avr = float(rng.uniform(0.01, 1.0))
        prod = rayleigh_constant(n, avr) * fk_constant(n, avr)
        assert prod == pytest.approx(1.0, rel=1e-12), (n, avr)


def test_noncollapse_examples():
    prm = SobolevParams(3.0, 2.0)
    at = aubin_talenti(prm)
    assert noncollapse_lower_bound(prm, at) == pytest.approx(1.0, rel=1e-14)
    assert noncollapse_lower_bound(prm, 2.0 * at) == pytest.approx(
        0.125, rel=1e-13)
    # monotone nonincreasing in C
    cs = [at, 1.1 * at, 2.0 * at, 10.0 * at]
    vals = [noncollapse_lower_bound(prm, c) for c in cs]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    with pytest.raises(DomainError):
        noncollapse_lower_bound(prm, 0.9 * at)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1.0))
def test_noncollapse_round_trip(avr):
    prm = SobolevParams(4.0, 2.0)
    back = noncollapse_lower_bound(prm, sobolev_constant(prm, avr))
    assert back == pytest.approx(avr, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1.0))
def test_homogeneity_in_avr(avr):
    prm = SobolevParams(5.0, 2.0, 1.4)
    th = gn_theta(prm)
    assert sobolev_constant(prm, avr) * avr ** (1.0 / 5.0) == pytest.approx(
        aubin_talenti(prm), rel=1e-12)
    assert gn_sharp_constant(prm, avr) * avr ** (th / 5.0) == pytest.approx(
        gn_constant(prm), rel=1e-12)
    assert fk_constant(5.0, avr) * avr ** (-2.0 / 5.0) == pytest.approx(
        fk_constant(5.0, 1.0), rel=1e-12)


def test_isoperimetric_constant_examples():
    assert isoperimetric_constant(2.0, 1.0) == pytest.approx(
        2.0 * math.sqrt(math.pi), rel=1e-13)
    assert isoperimetric_constant(3.0, 1.0) == pytest.approx(
        3.0 * (4.0 * math.pi / 3.0) ** (1.0 / 3.0), rel=1e-13)
    assert isoperimetric_constant(3.0, 0.125) == pytest.approx(
        0.5 * isoperimetric_constant(3.0, 1.0), rel=1e-13)
    with pytest.raises(DomainError):
        isoperimetric_constant(1.0, 1.0)


def test_all_constants_positive_random_sweep():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = float(rng.uniform(2.0, 15.0))
        p = float(rng.uniform(1.0 + 1e-3, n - 1e-3))
        endpoint = n / (n - p)
        alpha = float(rng.uniform(1.0 + 1e-6, endpoint))
        avr = float(rng.uniform(1e-4, 1.0))
        prm = SobolevParams(n, p, alpha)
        rec = sharp_constants(prm, avr)
        for name in ("omega_n", "at", "theta", "gn", "sobolev", "gn_sharp",
                     "fk", "rayleigh", "isoperimetric", "avr"):
            v = getattr(rec, name)
            assert math.isfinite(v) and v > 0.0, (name, prm, avr)


def test_sharp_constants_record_invariants():
    rec = sharp_constants(SobolevParams(3.0, 2.0, 2.0), 0.5)
    assert isinstance(rec, SharpConstants)
    assert rec.rayleigh * rec.fk == pytest.approx(1.0, rel=1e-12)
    assert rec.sobolev >= rec.at
    assert rec.gn_sharp >= rec.gn
    assert rec.theta == pytest.approx(0.5)
