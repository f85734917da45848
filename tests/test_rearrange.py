"""Rearrangement, Cavalieri norms, Polya-Szego, co-area, layer cake."""

import math

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from isosharp import rearrange
from isosharp.constants import SobolevParams
from isosharp.errors import DomainError, InvariantViolation
from isosharp.rearrange import (
    DistributionProfile,
    RadialFunction,
    coarea_derivative_check,
    distribution,
    euclidean_rearrangement,
    grad_lp_norm,
    layer_cake_radial_integral,
    lq_norm,
    lq_routes,
    polya_szego_check,
)
from isosharp.spaces import (
    EuclideanCone,
    Euclidean,
    ExponentialTail,
    MonomialHalfSpace,
    SampledProfile,
    WarpedProduct,
    vol_ball,
)
from isosharp.specfun import omega
from isosharp.verify import (bessel_level_integrals, bessel_test_profile,
                             curated_profiles, fk_sharpness_sweep,
                             truncated_extremal)
from oracles import (
    callable_radial_oracle,
    euclidean_content_mp,
    pchip_radial_oracle,
    sampled_warped_content_mp,
)


def tent(r_max=1.0, nodes=201):
    return RadialFunction.from_callable(
        lambda r: np.maximum(1.0 - np.asarray(r) / r_max, 0.0),
        r_max, nodes=nodes,
        deriv=lambda r: np.where(np.asarray(r) < r_max, -1.0 / r_max, 0.0))


def gaussian(r_cut=3.0, nodes=301):
    c = math.exp(-r_cut * r_cut)
    return RadialFunction.from_callable(
        lambda r: np.maximum(np.exp(-np.asarray(r) ** 2) - c, 0.0),
        r_cut, nodes=nodes,
        deriv=lambda r: np.where(np.asarray(r) < r_cut,
                                 -2.0 * np.asarray(r) * np.exp(-np.asarray(r) ** 2),
                                 0.0))


def warped(n=2, a=0.5, beta=1.0):
    return WarpedProduct(n=n, profile=ExponentialTail(a=a, beta=beta))


class TestRadialFunction:
    def test_validation(self):
        with pytest.raises(DomainError):
            RadialFunction([0.0, 1.0], [1.0, 2.0])     # increasing
        with pytest.raises(DomainError):
            RadialFunction([0.5, 1.0], [1.0, 0.5])     # grid misses 0
        with pytest.raises(DomainError):
            RadialFunction([0.0, 1.0], [1.0, -0.1])    # negative value
        with pytest.raises(DomainError):
            RadialFunction([0.0], [1.0])

    def test_half_exact_profiles_rejected(self):
        # an exact profile carries its value and its slope together
        grid, vals = [0.0, 1.0], [1.0, 0.0]

        def f(r):
            return 1.0 - np.asarray(r)

        with pytest.raises(DomainError):
            RadialFunction(grid, vals, value_fn=f)
        with pytest.raises(DomainError):
            RadialFunction(grid, vals, deriv_fn=f)
        with pytest.raises(DomainError):
            RadialFunction.from_callable(f, 1.0, deriv=None)

    def test_exact_profiles_build_no_interpolant(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("PCHIP built for an exact profile")

        monkeypatch.setattr(rearrange, "PchipInterpolator", forbidden)
        profiles = [u for _, u in curated_profiles()]
        profiles += [truncated_extremal(SobolevParams(n=3.0, p=2.0)),
                     bessel_test_profile(3.0, 2.0),
                     RadialFunction.plateau(1.0, 1.0)]
        for u in profiles:
            u.scaled(2.0).dilated(0.5)
            euclidean_rearrangement(Euclidean(3), u)
        with pytest.raises(AssertionError):
            RadialFunction([0.0, 1.0], [1.0, 0.0])   # sampled: PCHIP

    def test_support_radius(self):
        u = RadialFunction([0.0, 1.0, 2.0, 3.0], [1.0, 0.5, 0.0, 0.0])
        assert u.support_radius == 2.0
        assert u.compactly_supported
        v = RadialFunction([0.0, 1.0], [1.0, 0.5])
        assert v.support_radius == 1.0
        assert not v.compactly_supported

    def test_plateau_shape(self):
        u = RadialFunction.plateau(2.0, 1.5)
        assert float(u.value(0.7)) == 2.0
        assert float(u.value(1.5)) == 2.0
        assert float(u.value(1.6)) == 0.0
        assert u.height == 2.0

    def test_csv_round_trip(self, tmp_path):
        u = tent(nodes=37)
        path = tmp_path / "tent.csv"
        u.to_csv(path)
        back = RadialFunction.from_csv(path)
        assert np.array_equal(back.r_grid, u.r_grid)
        assert np.array_equal(back.values, u.values)


class TestDistribution:
    def test_plateau_euclidean(self):
        u = RadialFunction.plateau(1.0, 1.0)
        prof = distribution(Euclidean(2), u, [1.5, 1.0, 0.9, 0.5, 0.1])
        assert prof.volumes[0] == 0.0
        assert prof.volumes[1] == 0.0          # {u > 1} is empty
        for v in prof.volumes[2:]:
            assert v == pytest.approx(math.pi, rel=1e-10)

    def test_tent_closed_form(self):
        u = tent()
        t = np.linspace(0.95, 0.05, 50)
        prof = distribution(Euclidean(2), u, t)
        ref = math.pi * (1.0 - t) ** 2
        assert np.max(np.abs(prof.volumes - ref) / ref) < 1e-8

    def test_tent_on_warped_matches_vol_ball(self):
        space = warped()
        u = tent()
        t = np.array([0.8, 0.5, 0.2])
        prof = distribution(space, u, t)
        for ti, vi in zip(t, prof.volumes):
            assert vi == pytest.approx(vol_ball(space, 1.0 - ti), rel=1e-9)

    def test_rejects_bad_level_grids(self):
        u = tent()
        with pytest.raises(DomainError):
            distribution(Euclidean(2), u, [0.1, 0.5, 0.9])   # ascending
        with pytest.raises(DomainError):
            distribution(Euclidean(2), u, [0.5, -0.1])

    def test_nonmonotone_callable_flagged(self):
        u = RadialFunction([0.0, 0.5, 1.0], [1.0, 0.6, 0.2],
                           value_fn=lambda r: np.asarray(r) ** 2,
                           deriv_fn=lambda r: 2.0 * np.asarray(r))
        with pytest.raises(InvariantViolation):
            distribution(Euclidean(2), u, [0.8, 0.4])

    def test_csv_round_trip(self, tmp_path):
        prof = distribution(Euclidean(2), tent(), np.linspace(0.9, 0.1, 9))
        path = tmp_path / "dist.csv"
        prof.to_csv(path)
        back = DistributionProfile.from_csv(path)
        assert np.array_equal(back.t_grid, prof.t_grid)
        assert np.array_equal(back.volumes, prof.volumes)


class TestRearrangement:
    def test_identity_on_euclidean(self):
        u = tent()
        star = euclidean_rearrangement(Euclidean(2), u)
        assert np.max(np.abs(star.r_grid - u.r_grid)) <= 1e-12
        assert np.array_equal(star.values, u.values)

    def test_idempotent(self):
        star = euclidean_rearrangement(warped(), tent())
        again = euclidean_rearrangement(Euclidean(2), star)
        assert np.max(np.abs(again.r_grid - star.r_grid)) <= 1e-12
        assert np.max(np.abs(again.values - star.values)) <= 1e-12

    def test_plateau_support_radius(self):
        space = warped(n=2, a=0.5, beta=1.0)
        u = RadialFunction.plateau(1.0, 1.0)
        star = euclidean_rearrangement(space, u)
        expected = math.sqrt(vol_ball(space, 1.0) / math.pi)
        assert star.support_radius == pytest.approx(expected, rel=1e-8)

    def test_equimeasurability(self):
        t = np.linspace(0.93, 0.02, 50)
        cases = [
            (warped(n=3, a=0.5, beta=1.0), tent(nodes=401)),
            (EuclideanCone(2, 2 * math.pi), gaussian(nodes=401)),
            (MonomialHalfSpace(2, 1.0), tent(r_max=2.0, nodes=401)),
        ]
        for space, u in cases:
            star = euclidean_rearrangement(space, u)
            target = Euclidean(space.effective_dimension)
            v1 = distribution(space, u, t).volumes
            v2 = distribution(target, star, t).volumes
            assert np.max(np.abs(v1 - v2) / np.maximum(v1, 1e-300)) < 1e-8

    def test_support_preservation(self):
        space = warped(n=3, a=0.6, beta=2.0)
        u = gaussian(r_cut=2.0)
        star = euclidean_rearrangement(space, u)
        lhs = vol_ball(space, u.support_radius)
        rhs = omega(3.0) * star.support_radius ** 3
        assert lhs == pytest.approx(rhs, rel=1e-8)


class TestNorms:
    def test_plateau_l2(self):
        assert lq_norm(Euclidean(2), RadialFunction.plateau(1.0, 1.0), 2.0) == \
            pytest.approx(math.sqrt(math.pi), rel=1e-9)

    def test_tent_l1(self):
        # 2 pi int_0^1 (1-r) r dr = pi/3
        assert lq_norm(Euclidean(2), tent(), 1.0) == \
            pytest.approx(math.pi / 3.0, rel=1e-9)

    def test_norm_preservation_under_rearrangement(self):
        space = warped(n=3, a=0.5, beta=1.0)
        u = gaussian(r_cut=2.5, nodes=501)
        star = euclidean_rearrangement(space, u)
        for q in (1.0, 2.0, 6.0):     # 6 = p* for n=3, p=2
            a = lq_norm(space, u, q)
            b = lq_norm(Euclidean(3), star, q)
            assert a == pytest.approx(b, rel=1e-7)

    def test_tent_grad_l2(self):
        # (2 pi int_0^1 r dr)^{1/2} = sqrt(pi)
        assert grad_lp_norm(Euclidean(2), tent(), 2.0) == \
            pytest.approx(math.sqrt(math.pi), rel=1e-10)

    def test_flat_warped_matches_euclidean(self):
        flat = WarpedProduct(n=2, profile=ExponentialTail(a=1.0, beta=1.0))
        u = gaussian(r_cut=2.0)
        assert grad_lp_norm(flat, u, 2.0) == pytest.approx(
            grad_lp_norm(Euclidean(2), u, 2.0), rel=1e-9)
        assert lq_norm(flat, u, 2.0) == pytest.approx(
            lq_norm(Euclidean(2), u, 2.0), rel=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=0.01, max_value=100.0))
    def test_scaling_homogeneity(self, c):
        u = tent(nodes=41)
        base_q = lq_norm(Euclidean(2), u, 2.0)
        base_g = grad_lp_norm(Euclidean(2), u, 2.0)
        assert lq_norm(Euclidean(2), u.scaled(c), 2.0) == \
            pytest.approx(c * base_q, rel=1e-9)
        assert grad_lp_norm(Euclidean(2), u.scaled(c), 2.0) == \
            pytest.approx(c * base_g, rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            lq_norm(Euclidean(2), tent(), 0.0)
        with pytest.raises(DomainError):
            grad_lp_norm(Euclidean(2), tent(), 1.0)


# interpolant-only profiles (no exact callables) on a 41-node grid: a smooth
# bump, and a shelf whose plateau end and support end are flat nodes
_R41 = np.linspace(0.0, 2.0, 41)
_INTERPOLANTS = {
    "bump": np.maximum(np.exp(-_R41 ** 2) - math.exp(-4.0), 0.0),
    "shelf": np.clip(1.6 - _R41, 0.0, 1.0),
}
# a sampled warping whose breaks fall between the profiles' nodes
_S = np.array([0.0, 0.35, 0.8, 1.3, 2.9])
_F = np.array([1.0, 0.9, 0.72, 0.6, 0.55])


def _interpolant_spaces():
    return {
        "euclidean_1.3": (Euclidean(1.3), euclidean_content_mp(1.3), ()),
        "euclidean_2.5": (Euclidean(2.5), euclidean_content_mp(2.5), ()),
        "sampled_warped_3": (WarpedProduct(3, SampledProfile(_S, _F)),
                             sampled_warped_content_mp(3, _S, _F), _S),
    }


class TestInterpolantNorms:
    @pytest.mark.parametrize("space_name", sorted(_interpolant_spaces()))
    def test_norms_match_mpmath(self, space_name):
        space, content, cuts = _interpolant_spaces()[space_name]
        for values in _INTERPOLANTS.values():
            u = RadialFunction(_R41, values)
            grad = pchip_radial_oracle(_R41, values, content, 1.5,
                                       derivative=True, cuts=cuts)
            assert grad_lp_norm(space, u, 1.5) == pytest.approx(
                grad ** (1.0 / 1.5), rel=1e-11)
            mass = pchip_radial_oracle(_R41, values, content, 3.5,
                                       cuts=cuts)
            assert lq_norm(space, u, 3.5) == pytest.approx(
                mass ** (1.0 / 3.5), rel=1e-11)

    @pytest.mark.parametrize("n", [2, 3])
    def test_cavalieri_tracks_direct_on_rearrangements(self, n):
        space = warped(n=n, a=0.5, beta=1.0)
        for label, u in curated_profiles():
            star = euclidean_rearrangement(space, u)
            assert star.value_fn is None
            for q in (1.0, 2.0, 6.0):
                direct, cavalieri = lq_routes(Euclidean(n), star, q)
                assert abs(direct - cavalieri) <= 1e-9 * direct, (label, q)

    def test_no_quadpack_call(self, monkeypatch):
        # every integral is a fixed Gauss rule: none may reach QUADPACK
        def forbidden(*args, **kwargs):
            raise AssertionError("QUADPACK called")

        monkeypatch.setattr(scipy.integrate, "quad", forbidden)
        space = warped(n=3, a=0.5, beta=1.0)
        u = RadialFunction(_R41, _INTERPOLANTS["shelf"])
        lq_norm(space, u, 2.0)
        grad_lp_norm(space, u, 2.0)
        polya_szego_check(space, RadialFunction(_R41, _INTERPOLANTS["bump"]),
                          2.0)
        lq_norm(space, tent(), 2.0)      # exact callables take the same rule
        grad_lp_norm(space, tent(), 2.0)
        layer_cake_radial_integral(space, np.ones_like, np.zeros_like, 4.0)
        fk_sharpness_sweep(space, [2.0, 20.0])
        bessel_level_integrals.cache_clear()
        bessel_level_integrals(0.5)
        assert MonomialHalfSpace(3, 0.5).unit_ball_volume > 0.0


class TestExactCallableNorms:
    """Closed-form profiles on their own grids, against mpmath."""

    def test_truncated_extremal_lq_matches_mpmath(self):
        # h(r) = (1 + r^2)^(-1/2), shifted to vanish at r_cut = 1000
        u = truncated_extremal(SobolevParams(3, 2))
        shift = (1 + mp.mpf(1000) ** 2) ** -0.5
        edges = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 61)])
        mass = callable_radial_oracle(lambda r: (1 + r * r) ** -0.5 - shift,
                                      euclidean_content_mp(3), 6, edges)
        assert lq_norm(Euclidean(3), u, 6) == pytest.approx(
            mass ** (1.0 / 6), rel=1e-13)

    @pytest.mark.parametrize("label,r_in,r_out", [
        ("trapezoid_0.5_1.5", 0.5, 1.5), ("trapezoid_1_3", 1.0, 3.0)])
    def test_trapezoid_norms_match_mpmath(self, label, r_in, r_out):
        # the kink at r_in falls inside a segment of an even grid
        u = dict(curated_profiles())[label]
        space, content = Euclidean(2.5), euclidean_content_mp(2.5)
        a, b = mp.mpf(r_in), mp.mpf(r_out)
        edges = [0.0, r_in, r_out]
        grad = callable_radial_oracle(
            lambda r: 0 if r < a else 1 / (b - a), content, 1.5, edges)
        assert grad_lp_norm(space, u, 1.5) == pytest.approx(
            grad ** (1.0 / 1.5), rel=1e-12)
        mass = callable_radial_oracle(
            lambda r: 1 if r < a else (b - r) / (b - a), content, 3.5, edges)
        assert lq_norm(space, u, 3.5) == pytest.approx(
            mass ** (1.0 / 3.5), rel=1e-12)


class TestPolyaSzego:
    def test_identity_on_euclidean(self):
        res = polya_szego_check(Euclidean(2), gaussian(), 2.0)
        assert res.ratio == pytest.approx(1.0, abs=1e-8)

    def test_warped_gradient_drops(self):
        res = polya_szego_check(warped(n=2, a=0.5, beta=1.0), gaussian(), 2.0)
        assert res.ratio >= 1.0 - 1e-6
        assert res.ratio > 1.0 + 1e-4    # strictly curved: strict drop

    def test_cone_equality(self):
        # round-sphere link: the cone is Euclidean
        round_cone = EuclideanCone(2, 4 * math.pi)
        assert polya_szego_check(round_cone, tent(), 2.0).ratio == \
            pytest.approx(1.0, abs=1e-6)
        # any cone is an equality configuration for radial profiles
        half_cone = EuclideanCone(2, 2 * math.pi)
        assert polya_szego_check(half_cone, tent(), 2.0).ratio == \
            pytest.approx(1.0, abs=1e-6)

    def test_suite_across_spaces(self):
        suite = [tent(), tent(r_max=2.5, nodes=301), gaussian()]
        spaces = [Euclidean(3), warped(n=3, a=0.25, beta=0.7),
                  EuclideanCone(2, math.pi), MonomialHalfSpace(2, 1.0)]
        for space in spaces:
            for u in suite:
                for p in (1.5, 2.0, 3.0):
                    assert polya_szego_check(space, u, p).ratio >= 1.0 - 1e-6

    def test_flat_profile_rejected(self):
        with pytest.raises(DomainError):
            polya_szego_check(Euclidean(2), RadialFunction.plateau(1.0, 1.0), 2.0)


class TestCoarea:
    def test_tent_euclidean_closed_form(self):
        report = coarea_derivative_check(Euclidean(2), tent(),
                                         np.linspace(0.95, 0.05, 60))
        assert report.rows and report.passed
        for row in report.rows:
            # -V'(t) = 2 pi (1-t), |u'| = 1
            assert row.coarea_value == pytest.approx(
                2 * math.pi * (1.0 - row.t), rel=1e-8)
        assert report.max_rel_err < 1e-6     # V quadratic: central diff exact

    def test_warped_instance(self):
        space = warped(n=3, a=0.5, beta=1.0)
        # top levels excluded: there r(t) -> 0 and V ~ r^n makes the central
        # difference truncation error h^2/r^2 dominate on any fixed grid
        report = coarea_derivative_check(space, tent(nodes=301),
                                         np.linspace(0.6, 0.05, 150))
        assert report.rows
        assert report.passed, report.max_rel_err
        # unit slope: the co-area value is just the sphere content at 1-t
        from isosharp.spaces import minkowski_content_ball
        mid = report.rows[len(report.rows) // 2]
        assert mid.coarea_value == pytest.approx(
            minkowski_content_ball(space, 1.0 - mid.t), rel=1e-9)

    def test_plateau_degenerate(self):
        report = coarea_derivative_check(Euclidean(2),
                                         RadialFunction.plateau(1.0, 1.0),
                                         np.linspace(0.9, 0.1, 20))
        assert report.degenerate
        assert not report.rows
        assert len(report.skipped) == 18


class TestLayerCake:
    def test_constant_function(self):
        space = warped(n=3, a=0.5, beta=2.0)
        val = layer_cake_radial_integral(space, np.ones_like,
                                         np.zeros_like, 4.0)
        assert val == pytest.approx(vol_ball(space, 4.0), rel=1e-10)

    def test_linear_euclidean(self):
        # int_{B(1)} |x| dx = 2 pi / 3 in the plane
        val = layer_cake_radial_integral(Euclidean(2), lambda r: r,
                                         np.ones_like, 1.0)
        assert val == pytest.approx(2 * math.pi / 3.0, rel=1e-10)

    def test_quadratic_on_cone(self):
        # m_M int_0^1 r^2 r^2 dr = 2 pi / 5
        val = layer_cake_radial_integral(EuclideanCone(2, 2 * math.pi),
                                         lambda r: r * r,
                                         lambda r: 2.0 * r, 1.0)
        assert val == pytest.approx(2 * math.pi / 5.0, rel=1e-10)

    @pytest.mark.parametrize("n,a,beta,R", [(2, 0.7, 1.0, 5000.0),
                                            (2, 0.45, 2.5, 1e4),
                                            (3, 0.5, 1.0, 2e4)])
    def test_far_radius_on_warped_matches_composite_gauss(self, n, a, beta, R):
        # both quadratures must split where F turns affine; without it the
        # direct one was off by 1.3e-7 at n=2, a=0.7, R=5000
        space = warped(n=n, a=a, beta=beta)
        val = layer_cake_radial_integral(
            space, lambda r: (1.0 - r / R) ** 2,
            lambda r: -2.0 * (1.0 - r / R) / R, R)
        x, w = np.polynomial.legendre.leggauss(20)
        edges = np.linspace(0.0, R, 4001)
        half = np.diff(edges)[:, None] / 2.0
        r = edges[:-1, None] + half * (x + 1.0)
        ref = np.sum(((1.0 - r / R) ** 2 * space.content(r)) * half * w)
        assert val == pytest.approx(ref, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            layer_cake_radial_integral(Euclidean(2), lambda r: r,
                                       np.ones_like, -1.0)
