"""Rearrangement, Cavalieri norms, Polya-Szego, layer cake."""

import json
import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isosharp import rearrange
from isosharp.constants import SobolevParams
from isosharp.errors import DomainError, InvariantViolation
from isosharp.rearrange import (
    RadialFunction,
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
from isosharp.verify import curated_profiles, truncated_extremal
from oracles import (
    callable_radial_oracle,
    euclidean_content_mp,
    pchip_radial_oracle,
    sampled_warped_content_mp,
    warped_polya_rhs_oracle,
)
from profiles import exact, interpolated, plateau, support_end


def tent(r_max=1.0, nodes=201, height=1.0):
    return exact(
        lambda r: height * np.maximum(1.0 - np.asarray(r) / r_max, 0.0),
        lambda r: height * np.where(np.asarray(r) < r_max, -1.0 / r_max, 0.0),
        np.linspace(0.0, r_max, nodes))


def gaussian(r_cut=3.0, nodes=301):
    c = math.exp(-r_cut * r_cut)
    return exact(
        lambda r: np.maximum(np.exp(-np.asarray(r) ** 2) - c, 0.0),
        lambda r: np.where(np.asarray(r) < r_cut,
                           -2.0 * np.asarray(r) * np.exp(-np.asarray(r) ** 2),
                           0.0),
        np.linspace(0.0, r_cut, nodes))


def warped(n=2, a=0.5, beta=1.0):
    return WarpedProduct(n=n, profile=ExponentialTail(a=a, beta=beta))


def level_volumes(space, u, t):
    """vol({u > t}) at each level t: the map the Cavalieri route
    integrates."""
    return space.volume(rearrange._level_radii(u, t))


def _zero(r):
    return np.zeros_like(np.asarray(r, dtype=float))


class TestRadialFunction:
    def test_validation(self):
        with pytest.raises(DomainError):
            RadialFunction([0.0, 1.0], [1.0, 2.0], _zero, _zero)  # increasing
        with pytest.raises(DomainError):
            RadialFunction([0.5, 1.0], [1.0, 0.5], _zero, _zero)  # misses 0
        with pytest.raises(DomainError):
            RadialFunction([0.0, 1.0], [1.0, -0.1], _zero, _zero)  # negative
        with pytest.raises(DomainError):
            RadialFunction([0.0], [1.0], _zero, _zero)
        with pytest.raises(DomainError):
            RadialFunction([0.0, 1.0, np.inf], [1.0, 0.5, 0.0],  # endless
                           _zero, _zero)


class TestDistribution:
    def test_plateau_euclidean(self):
        u = plateau(1.0, 1.0)
        vols = level_volumes(Euclidean(2), u, [1.5, 1.0, 0.9, 0.5, 0.1])
        assert vols[0] == 0.0
        assert vols[1] == 0.0          # {u > 1} is empty
        for v in vols[2:]:
            assert v == pytest.approx(math.pi, rel=1e-10)

    def test_tent_closed_form(self):
        u = tent()
        t = np.linspace(0.95, 0.05, 50)
        vols = level_volumes(Euclidean(2), u, t)
        ref = math.pi * (1.0 - t) ** 2
        assert np.max(np.abs(vols - ref) / ref) < 1e-8

    def test_tent_on_warped_matches_vol_ball(self):
        space = warped()
        u = tent()
        t = np.array([0.8, 0.5, 0.2])
        for ti, vi in zip(t, level_volumes(space, u, t)):
            assert vi == pytest.approx(vol_ball(space, 1.0 - ti), rel=1e-9)

    def test_nonmonotone_callable_flagged(self):
        # the constructor probes value_fn on the grid
        with pytest.raises(InvariantViolation):
            RadialFunction([0.0, 0.5, 1.0], [1.0, 0.6, 0.2],
                           value_fn=lambda r: np.asarray(r) ** 2,
                           deriv_fn=lambda r: 2.0 * np.asarray(r))


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

    def test_plateau_support_end_transports(self):
        space = warped(n=2, a=0.5, beta=1.0)
        u = plateau(1.0, 1.0)
        star = euclidean_rearrangement(space, u)
        expected = math.sqrt(vol_ball(space, 1.0) / math.pi)
        assert support_end(star) == pytest.approx(expected, rel=1e-8)

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
            v1 = level_volumes(space, u, t)
            v2 = level_volumes(target, star, t)
            assert np.max(np.abs(v1 - v2) / np.maximum(v1, 1e-300)) < 1e-8

    def test_support_preservation(self):
        space = warped(n=3, a=0.6, beta=2.0)
        u = gaussian(r_cut=2.0)
        star = euclidean_rearrangement(space, u)
        lhs = vol_ball(space, support_end(u))
        rhs = omega(3.0) * support_end(star) ** 3
        assert lhs == pytest.approx(rhs, rel=1e-8)


class TestNorms:
    def test_plateau_l2(self):
        assert lq_norm(Euclidean(2), plateau(1.0, 1.0), 2.0) == \
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
        scaled = tent(nodes=41, height=c)
        assert lq_norm(Euclidean(2), scaled, 2.0) == \
            pytest.approx(c * base_q, rel=1e-9)
        assert grad_lp_norm(Euclidean(2), scaled, 2.0) == \
            pytest.approx(c * base_g, rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            lq_norm(Euclidean(2), tent(), 0.0)
        with pytest.raises(DomainError):
            grad_lp_norm(Euclidean(2), tent(), 1.0)


# PCHIP profiles on a 41-node grid: a smooth bump, and a shelf whose
# plateau end and support end are flat nodes
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
            u = interpolated(_R41, values)
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
            for q in (1.0, 2.0, 6.0):
                direct, cavalieri = lq_routes(Euclidean(n), star, q)
                assert abs(direct - cavalieri) <= 1e-9 * direct, (label, q)


# numpy is the only runtime dependency: the PCHIP and closed-form norms,
# the layer cake, the Bessel and eigenvalue routes, a sampled warping, the
# sandbox and the CLI all run in a fresh interpreter that loads no scipy
_NUMPY_ALONE = """
import contextlib, io, json, sys
import numpy as np
from isosharp.cli import main
from isosharp.rearrange import (grad_lp_norm, layer_cake_radial_integral,
                                lq_norm, polya_szego_check)
from isosharp.sandbox import seeded_z_inclusion
from isosharp.spaces import (ExponentialTail, MonomialHalfSpace,
                             SampledProfile, WarpedProduct)
from isosharp.verify import (bessel_level_integrals, curated_profiles,
                             fk_eigenvalue, fk_sharpness_sweep)
from profiles import interpolated

space = WarpedProduct(3, ExponentialTail(0.5, 1.0))
r = np.linspace(0.0, 2.0, 41)
shelf = interpolated(r, np.clip(1.6 - r, 0.0, 1.0))
lq_norm(space, shelf, 2.0)
grad_lp_norm(space, shelf, 2.0)
polya_szego_check(space, interpolated(r, np.maximum(np.exp(-r * r)
                                                    - np.exp(-4.0), 0.0)),
                  2.0)
tent = dict(curated_profiles())["tent_1"]
lq_norm(space, tent, 2.0)
grad_lp_norm(space, tent, 2.0)
layer_cake_radial_integral(
    space, lambda r: (np.ones_like(r), np.zeros_like(r)), 4.0)
fk_sharpness_sweep(space, [2.0, 20.0])
bessel_level_integrals(0.5)
assert MonomialHalfSpace(3, 0.5).unit_ball_volume > 0.0
fk_eigenvalue(space, 1.0)
sampled = WarpedProduct(3, SampledProfile([0.0, 0.35, 0.8, 1.3, 2.9],
                                          [1.0, 0.9, 0.72, 0.6, 0.55]))
lq_norm(sampled, shelf, 2.0)
fk_eigenvalue(sampled, 1.0)
seeded_z_inclusion(3)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["verify", "polya-szego", "--variant", "warped", "--n", "2"]),
             main(["sandbox", "z-inclusion", "--seeds", "2"])]
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules
                                  if m.split(".")[0] == "scipy")}))
"""


def test_runs_on_numpy_alone():
    src = os.path.dirname(os.path.dirname(rearrange.__file__))
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, here, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _NUMPY_ALONE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    report = json.loads(done.stdout)
    assert report["codes"] == [0, 0]
    assert report["scipy"] == []


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
            polya_szego_check(Euclidean(2), plateau(1.0, 1.0), 2.0)

    @pytest.mark.parametrize("n,label,a,beta", [
        (2, "tent_1", 0.5, 1.0), (2, "trapezoid_1_3", 0.45, 1.1),
        (2, "exp_2_3", 0.55, 0.9), (3, "trapezoid_0.5_1.5", 0.5, 1.0),
        (3, "tent_1", 0.55, 1.1), (2, "trapezoid_1_3", 0.5, 1.0)])
    def test_warped_rhs_matches_mpmath(self, n, label, a, beta):
        # u* = u o R keeps u's kinks: the trapezoids' r_in once lost its
        # slope, leaving trapezoid_1_3 at a = 0.5 off by 2.06e-4
        slope, edges = {
            "tent_1": (lambda r: -1, [0.0, 1.0]),
            "exp_2_3": (lambda r: -2 * mp.exp(-2 * r), [0.0, 3.0]),
            "trapezoid_1_3": (lambda r: 0 if r < 1 else mp.mpf(-0.5),
                              [0.0, 1.0, 3.0]),
            "trapezoid_0.5_1.5": (lambda r: 0 if r < 0.5 else -1,
                                  [0.0, 0.5, 1.5]),
        }[label]
        u = dict(curated_profiles())[label]
        rhs = polya_szego_check(warped(n, a, beta), u, 2.0).rhs
        assert rhs == pytest.approx(
            warped_polya_rhs_oracle(n, a, beta, slope, edges), rel=1e-10)

    @pytest.mark.parametrize("space", [
        Euclidean(3), Euclidean(2.5), EuclideanCone(2, 5.0),
        EuclideanCone(2, 2 * math.pi), MonomialHalfSpace(2, 1.0),
        MonomialHalfSpace(3, 0.5)], ids=repr)
    def test_power_law_ratio_is_one(self, space):
        # R is linear on a power-law space, so u* is u dilated
        for label, u in curated_profiles():
            for p in (1.5, 2.0, 3.0):
                ratio = polya_szego_check(space, u, p).ratio
                assert abs(ratio - 1.0) <= 1e-12, (label, p)


class TestLayerCake:
    def test_constant_function(self):
        space = warped(n=3, a=0.5, beta=2.0)
        val = layer_cake_radial_integral(
            space, lambda r: (np.ones_like(r), np.zeros_like(r)), 4.0)
        assert val == pytest.approx(vol_ball(space, 4.0), rel=1e-10)

    def test_linear_euclidean(self):
        # int_{B(1)} |x| dx = 2 pi / 3 in the plane
        val = layer_cake_radial_integral(
            Euclidean(2), lambda r: (r, np.ones_like(r)), 1.0)
        assert val == pytest.approx(2 * math.pi / 3.0, rel=1e-10)

    def test_quadratic_on_cone(self):
        # m_M int_0^1 r^2 r^2 dr = 2 pi / 5
        val = layer_cake_radial_integral(EuclideanCone(2, 2 * math.pi),
                                         lambda r: (r * r, 2.0 * r), 1.0)
        assert val == pytest.approx(2 * math.pi / 5.0, rel=1e-10)

    @pytest.mark.parametrize("n,a,beta,R", [(2, 0.7, 1.0, 5000.0),
                                            (2, 0.45, 2.5, 1e4),
                                            (3, 0.5, 1.0, 2e4)])
    def test_far_radius_on_warped_matches_composite_gauss(self, n, a, beta, R):
        # both quadratures must split where F turns affine; without it the
        # direct one was off by 1.3e-7 at n=2, a=0.7, R=5000
        space = warped(n=n, a=a, beta=beta)
        val = layer_cake_radial_integral(
            space, lambda r: ((1.0 - r / R) ** 2, -2.0 * (1.0 - r / R) / R),
            R)
        x, w = np.polynomial.legendre.leggauss(20)
        edges = np.linspace(0.0, R, 4001)
        half = np.diff(edges)[:, None] / 2.0
        r = edges[:-1, None] + half * (x + 1.0)
        ref = np.sum(((1.0 - r / R) ** 2 * space.content(r)) * half * w)
        assert val == pytest.approx(ref, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            layer_cake_radial_integral(
                Euclidean(2), lambda r: (r, np.ones_like(r)), -1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_integrand_raises(self, value):
        # no comparison fails on NaN, and an inf on both routes agrees
        with pytest.raises(DomainError):
            layer_cake_radial_integral(
                Euclidean(3),
                lambda r: (np.full_like(r, value), np.zeros_like(r)), 1.0)

    def test_stacked_integrands_equal_single_calls(self):
        R = 7.0
        pairs = [lambda r: (np.exp(-r), -np.exp(-r)),
                 lambda r: ((1.0 - r / R) ** 2, -2.0 * (1.0 - r / R) / R),
                 lambda r: (1.0 / (1.0 + r * r),
                            -2.0 * r / (1.0 + r * r) ** 2)]

        def stacked(r):
            fs, slopes = zip(*(pair(r) for pair in pairs))
            return np.stack(fs), np.stack(slopes)

        for space in (warped(n=3, a=0.5, beta=1.0), Euclidean(2.5)):
            got = layer_cake_radial_integral(space, stacked, R)
            assert got.tolist() == [
                layer_cake_radial_integral(space, pair, R) for pair in pairs]

    def test_stack_with_a_wrong_slope_raises(self):
        # the 1e-8 cross-check holds for each integrand of a stack
        def stacked(r):
            return (np.stack([r, r * r]),
                    np.stack([np.ones_like(r), 2.1 * r]))

        with pytest.raises(InvariantViolation, match="disagrees"):
            layer_cake_radial_integral(warped(n=2), stacked, 3.0)
