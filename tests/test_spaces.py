"""Model space geometry: volumes, contents, AVR, structural checks."""

import math

import mpmath as mp
import numpy as np
import pytest

from isosharp.errors import DomainError, UnsupportedOperationError
from isosharp.spaces import (
    AleQuotient,
    EuclideanCone,
    Euclidean,
    ExponentialTail,
    MonomialHalfSpace,
    WarpedProduct,
    bishop_gromov_check,
    curvature_check,
    isoperimetric_sharpness_sweep,
    minkowski_content_ball,
    vol_ball,
)
from isosharp.specfun import omega

from oracles import warped_volume_oracle
from profiles import RampProfile


def warped(n=3, a=0.5, beta=2.0):
    return WarpedProduct(n=n, profile=ExponentialTail(a=a, beta=beta))


def deficit_ratio(space, r):
    """m+(B_r) over the sharp isoperimetric bound on the radius-r ball."""
    table = isoperimetric_sharpness_sweep(space, [r])
    return table.rows[0].ratio / table.sharp_bound


class TestEuclidean:
    def test_examples(self):
        e3 = Euclidean(3)
        assert vol_ball(e3, 2.0) == pytest.approx(
            32 * math.pi / 3, rel=1e-13, abs=0.0)
        assert minkowski_content_ball(e3, 2.0) == pytest.approx(
            16 * math.pi, rel=1e-13, abs=0.0)
        assert e3.avr() == 1.0
        assert Euclidean(500).avr() == 1.0    # omega_500 underflows to 0

    def test_real_dimension(self):
        # fractional N appears as a rearrangement target
        e = Euclidean(2.5)
        assert vol_ball(e, 1.0) == pytest.approx(
            omega(2.5), rel=1e-13, abs=0.0)

    def test_domain(self):
        for bad in (1.0, 0.5, -2, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                Euclidean(bad)
        with pytest.raises(DomainError):
            vol_ball(Euclidean(3), -1.0)
        with pytest.raises(DomainError):
            vol_ball(Euclidean(3), 0.0)
        with pytest.raises(DomainError):
            vol_ball(Euclidean(2.5), 1e300)    # overflows, not inf
        # an array is rejected as a whole for one bad radius among good ones
        for bad in (float("nan"), float("inf"), 0.0, -1.0):
            for guarded in (vol_ball, minkowski_content_ball):
                with pytest.raises(DomainError):
                    guarded(Euclidean(3), np.array([0.5, bad, 2.0]))
        with pytest.raises(DomainError):
            vol_ball(Euclidean(2.5), np.array([1.0, 1e300]))

    def test_subnormal_volume_rejected(self):
        # vol(B_r) = 4.2e-321 has lost its leading digits; the sphere
        # measure may be subnormal (only density ratios use it)
        with pytest.raises(DomainError):
            vol_ball(Euclidean(3), 1e-107)
        assert 0.0 < minkowski_content_ball(Euclidean(3), 1e-155) < 1e-308


class TestWarpedProduct:
    def test_profile_limits(self):
        prof = ExponentialTail(a=0.5, beta=2.0)
        assert float(prof.f(0.0)) == pytest.approx(1.0, abs=0)
        assert float(prof.f(50.0)) == pytest.approx(0.5, rel=1e-12)
        assert float(prof.F(0.0)) == 0.0

    def test_volume_against_trapezoid(self):
        # independent route: dense trapezoid on the same density
        space = warped()
        prof = space.profile
        for r in (0.5, 3.0, 10.0):
            s = np.linspace(0.0, r, 300001)
            ref = 3 * omega(3.0) * np.trapezoid(np.asarray(prof.F(s)) ** 2, s)
            assert vol_ball(space, r) == pytest.approx(ref, rel=1e-9)

    def test_content_is_volume_derivative(self):
        # Richardson-extrapolated central difference of vol_ball
        space = warped(n=4, a=0.7, beta=1.0)
        for r in (1.0, 5.0):
            h = 1e-3
            d1 = (vol_ball(space, r + h) - vol_ball(space, r - h)) / (2 * h)
            d2 = (vol_ball(space, r + h / 2) - vol_ball(space, r - h / 2)) / h
            richardson = (4 * d2 - d1) / 3
            assert minkowski_content_ball(space, r) == pytest.approx(
                richardson, rel=1e-7)

    def test_avr_closed_form(self):
        assert warped(n=3, a=0.5).avr() == pytest.approx(
            0.25, rel=1e-14, abs=0.0)
        assert warped(n=5, a=0.9, beta=0.3).avr() == pytest.approx(
            0.9 ** 4, rel=1e-14, abs=0.0)

    def test_a_equal_one_matches_euclidean(self):
        flat = WarpedProduct(n=3, profile=ExponentialTail(a=1.0, beta=1.0))
        e3 = Euclidean(3)
        for r in (0.25, 1.0, 7.5, 40.0):
            assert vol_ball(flat, r) == pytest.approx(vol_ball(e3, r), rel=1e-9)
            assert minkowski_content_ball(flat, r) == pytest.approx(
                minkowski_content_ball(e3, r), rel=1e-9)
        assert flat.avr() == pytest.approx(1.0, abs=1e-15)
        assert deficit_ratio(flat, 2.0) == pytest.approx(
            deficit_ratio(e3, 2.0), abs=1e-9)

    def test_breaks_are_built_once_and_read_only(self):
        prof = ExponentialTail(a=0.5, beta=2.0)
        breaks = prof.breaks
        assert prof.breaks is breaks
        assert np.array_equal(breaks, np.linspace(0.0, 30.0, 241))
        with pytest.raises(ValueError):
            breaks[1] = 0.0
        # the cached array is no field: equality and hash see a and beta
        fresh = ExponentialTail(a=0.5, beta=2.0)
        assert fresh == prof and hash(fresh) == hash(prof)
        assert ExponentialTail(a=0.5, beta=3.0) != prof

    def test_domain(self):
        with pytest.raises(DomainError):
            WarpedProduct(n=1, profile=ExponentialTail(a=0.5, beta=1.0))
        with pytest.raises(DomainError):
            WarpedProduct(n=2.5, profile=ExponentialTail(a=0.5, beta=1.0))
        with pytest.raises(DomainError):
            ExponentialTail(a=0.0, beta=1.0)
        with pytest.raises(DomainError):
            ExponentialTail(a=1.2, beta=1.0)
        with pytest.raises(DomainError):
            ExponentialTail(a=0.5, beta=0.0)


_ARRAY_SPACES = {
    "euclidean_2.5": Euclidean(2.5),
    "cone": EuclideanCone(2, 2.0),
    "monomial": MonomialHalfSpace(2, 1.5),
    "warped_2": WarpedProduct(2, ExponentialTail(0.5, 1.0)),
    "warped_3": WarpedProduct(3, ExponentialTail(0.6, 2.0)),
}


@pytest.mark.parametrize("name", sorted(_ARRAY_SPACES))
def test_array_and_scalar_radii_agree(name):
    # radii inside the first break segment, across breaks, past the last
    space = _ARRAY_SPACES[name]
    radii = np.array([1e-3, 0.37, 1.0, 2.9, 7.5, 40.0, 1e3])
    for guarded in (vol_ball, minkowski_content_ball):
        values = guarded(space, radii)
        assert values.shape == radii.shape
        for r, value in zip(radii, values):
            scalar = guarded(space, float(r))
            assert isinstance(scalar, float)
            assert value == pytest.approx(scalar, rel=1e-15, abs=0)


class TestVolume:
    def test_warped_matches_mpmath(self):
        space = warped(n=3, a=0.4, beta=2.5)
        radii = (0.05, 0.7, 3.3, 11.0, 20.0)
        got = space.volume(np.array(radii))
        assert got.shape == (len(radii),)
        for r, v in zip(radii, got):
            assert v == pytest.approx(warped_volume_oracle(3, 0.4, 2.5, r),
                                      rel=1e-11)

    @pytest.mark.parametrize("n", [50, 100, 250])
    def test_warped_large_n_matches_mpmath(self, n):
        # ceil(n ln(F(b)/F(a))) panels per segment of the volume table, F^n
        # growing about e-fold across each; one Gauss panel per segment was
        # 5e-13 (n = 50) to 4e-6 (n = 250) off on these radii
        space = warped(n=n, a=0.5, beta=1.0)
        radii = np.geomspace(0.3, 30.0, 10)
        for r, v in zip(radii, vol_ball(space, radii)):
            assert v == pytest.approx(warped_volume_oracle(n, 0.5, 1.0, r),
                                      rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n", [2, 3, 12])
    def test_warped_table_regimes_match_mpmath(self, n):
        # table breaks (dyadic and profile ones), panel midpoints, and radii
        # past the last break, where the closed-form tail takes over
        space = warped(n=n, a=0.5, beta=1.0)
        x = space._volume_table.x
        k = np.searchsorted(x, [1e-3, 0.3, 2.0, 17.0, 59.0])
        radii = np.concatenate([x[k], (x[k] + x[k + 1]) / 2.0, [75.0, 400.0]])
        for r, v in zip(radii, vol_ball(space, radii)):
            assert v == pytest.approx(warped_volume_oracle(n, 0.5, 1.0, r),
                                      rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n, r", [(2, 0.5), (3, 3.0), (12, 20.0),
                                      (300, 2.0)])
    def test_warped_first_segment_matches_mpmath(self, n, r):
        # beta = 1e-30 stretches the first dyadic segment, where F(r) = r
        # and V = omega_n r^n, out to 60 2^-100 / beta ~ 47; the oracle is
        # scaled to the package's omega_n, which is 1.3e-13 off at n = 300
        space = warped(n=n, a=0.5, beta=1e-30)
        assert r < space._volume_table.x[0]
        assert vol_ball(space, r) == pytest.approx(
            warped_volume_oracle(n, 0.5, 1e-30, r) * omega(float(n))
            / float(mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2 + 1)),
            rel=1e-13, abs=0.0)

    def test_warped_n300_table_matches_mpmath(self):
        # radii below the content's overflow (F^299 overflows past F ~ 10.7).
        # omega(300) = exp(log omega_300) is itself 1.3e-13 off, so the
        # table is pinned against the oracle with that factor divided out
        space = warped(n=300, a=0.5, beta=1.0)
        radii = np.geomspace(1.0, 20.0, 6)
        with mp.workdps(30):
            omega_300 = float(mp.pi ** 150 / mp.factorial(150))
        for r, v in zip(radii, vol_ball(space, radii) / omega(300.0)):
            assert v == pytest.approx(
                warped_volume_oracle(300, 0.5, 1.0, r) / omega_300,
                rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n", [3, 30])
    def test_warped_volume_increases_across_panel_ends(self, n):
        # u*'s knots need ascending volume radii: V is strictly increasing
        # on 1e-13-relative steps across every panel end where it is a
        # normal double, and on a dense grid over the whole table
        space = warped(n=n, a=0.5, beta=1.0)
        ends = space._volume_table.x
        ends = ends[space.volume(ends) > 1e-300]
        steps = 1.0 + 1e-13 * np.arange(-3, 4)
        for radii in [(ends[:, None] * steps).ravel(),
                      np.geomspace(ends[0], 70.0, 20001)]:
            assert np.all(np.diff(space.volume(radii)) > 0.0)

    def test_one_content_call_per_table(self, monkeypatch):
        # the table build evaluates the content once, on every node; volume
        # on an array then calls it no more (it made 12 calls' worth of
        # nodes per radius before)
        count = [0]
        content = WarpedProduct.content

        def counted(self, r):
            count[0] += 1
            return content(self, r)

        monkeypatch.setattr(WarpedProduct, "content", counted)
        space = warped(n=3, a=0.5, beta=1.0)
        radii = np.geomspace(1e-3, 2000.0, 4212)
        space.volume(radii)
        assert count[0] == 1
        space.volume(radii)
        vol_ball(space, radii)
        assert count[0] == 1

    @pytest.mark.parametrize("n, panels", [(3, 520), (12, 1088)])
    def test_volume_table_keeps_100_dyadic_levels(self, n, panels):
        # vol_ball pins pointwise relative accuracy inside the table's
        # first segment, so the table grades toward r = 0 to 2^-100 of the
        # last profile break, however deep the r-integrals of rearrange go
        space = warped(n=n, a=0.5, beta=1.0)
        x = space._volume_table.x
        assert x.size - 1 == panels
        assert x[0] == space.profile.breaks[-1] * 2.0 ** -100

    def test_warped_far_radius_matches_mpmath(self):
        # past the profile's curvature scale, where the volume grows like r^n
        space = warped(n=2, a=0.5, beta=1.0)
        assert vol_ball(space, 1e4) == pytest.approx(
            warped_volume_oracle(2, 0.5, 1.0, 1e4), rel=1e-12)

    @pytest.mark.parametrize("n, r", [(2, 1.0), (3, 2.0), (3, 1e4), (12, 7.0)])
    def test_warped_tiny_decay_length_matches_mpmath(self, n, r):
        # past the last break F_e^n underflows while (F/F_e)^n overflows;
        # their product, the volume, is of order a r^n
        space = warped(n=n, a=0.5, beta=1e300)
        assert vol_ball(space, r) == pytest.approx(
            warped_volume_oracle(n, 0.5, 1e300, r), rel=1e-12)

    def test_warped_tail_volume_called_directly_is_quiet(self):
        # a s / F_e overflows outside vol_ball's guard; log1p(inf) = inf
        # gives the exact limit pi a r^2 (warnings are errors in the suite)
        space = warped(n=2, a=0.5, beta=1e300)
        vol = space.volume(np.array([1.0, 1e100]))
        assert vol == pytest.approx([0.5 * math.pi, 0.5 * math.pi * 1e200],
                                    rel=1e-12)

    def test_warped_ratio_approaches_avr(self):
        # vol(B_r)/(omega_n r^n) falls to AVR = a^{n-1}
        space = warped(n=3, a=0.5, beta=2.0)
        ratio = vol_ball(space, 500.0) / (omega(3.0) * 500.0 ** 3)
        assert ratio == pytest.approx(space.avr(), rel=5e-3)

    def test_power_law_exact(self):
        # Lambda = 2/3 for the half-plane weighted by x_2, N = 3
        assert float(MonomialHalfSpace(2, 1.0).volume(2.0)) == pytest.approx(
            16.0 / 3.0, rel=1e-14, abs=0.0)


class TestEuclideanCone:
    def test_round_sphere_link_is_euclidean(self):
        # link = unit 2-sphere, measure 4 pi: the cone is R^3
        cone = EuclideanCone(n=2, m_M=4 * math.pi)
        assert vol_ball(cone, 2.0) == pytest.approx(
            32 * math.pi / 3, rel=1e-13, abs=0.0)
        assert cone.avr() == pytest.approx(1.0, rel=1e-14, abs=0.0)

    def test_exact_isoperimetric_equality(self):
        cone = EuclideanCone(n=2, m_M=2 * math.pi)
        assert cone.avr() == pytest.approx(0.5, rel=1e-14, abs=0.0)
        for r in (0.3, 1.0, 25.0):
            assert deficit_ratio(cone, r) == pytest.approx(1.0, abs=1e-12)

    def test_link_measure_bound(self):
        with pytest.raises(DomainError):
            EuclideanCone(n=2, m_M=4.1 * math.pi)
        with pytest.raises(DomainError):
            EuclideanCone(n=2, m_M=0.0)
        with pytest.raises(DomainError):
            EuclideanCone(n=0, m_M=1.0)


class TestMonomialHalfSpace:
    def test_lambda_examples(self):
        assert MonomialHalfSpace(1, 1.0).unit_ball_volume == \
            pytest.approx(0.5, rel=1e-12)
        assert MonomialHalfSpace(2, 1.0).unit_ball_volume == \
            pytest.approx(2.0 / 3.0, rel=1e-12)
        # alpha_w = 0 degenerates to the unweighted half-ball
        assert MonomialHalfSpace(3, 0.0).unit_ball_volume == \
            pytest.approx(omega(3.0) / 2.0, rel=1e-12)

    def test_lambda_against_beta_closed_form(self):
        # Lambda = omega_{n-1} B((aw+1)/2, (n+1)/2) / 2 by the polar substitution
        for n, aw in [(2, 0.5), (3, 1.7), (4, 2.0), (5, 0.25)]:
            w_slice = math.pi ** ((n - 1) / 2.0) / math.gamma(1 + (n - 1) / 2.0)
            b = (math.gamma((aw + 1) / 2.0) * math.gamma((n + 1) / 2.0)
                 / math.gamma((aw + n) / 2.0 + 1.0))
            ref = w_slice * b / 2.0
            lam = MonomialHalfSpace(n, aw).unit_ball_volume
            assert lam == pytest.approx(ref, rel=1e-10)

    def test_lambda_matches_mpmath(self):
        # Lambda = pi^((n-1)/2) Gamma((aw+1)/2) / (2 Gamma(1 + (n+aw)/2)),
        # which is 1/(aw+1) at n = 1
        for n, aw in [(1, 0.5), (1, 3.0), (2, 0.0), (2, 1.0), (2, 7.0),
                      (3, 0.3), (3, 2.5), (5, 1.0), (10, 2.5), (30, 0.5)]:
            with mp.workdps(30):
                ref = (mp.pi ** (mp.mpf(n - 1) / 2)
                       * mp.gamma(mp.mpf(aw + 1) / 2)
                       / (2 * mp.gamma(1 + mp.mpf(n + aw) / 2)))
            lam = MonomialHalfSpace(n, aw).unit_ball_volume
            assert lam == pytest.approx(
                float(ref), rel=2e-14, abs=0.0), (n, aw)

    def test_lambda_against_grid_quadrature(self):
        # 2-D half-disc integral of y^aw on a fine midpoint grid
        aw = 1.5
        m = 2000
        xs = (np.arange(m) + 0.5) / m * 2.0 - 1.0
        ys = (np.arange(m) + 0.5) / m
        xg, yg = np.meshgrid(xs, ys)
        inside = xg * xg + yg * yg <= 1.0
        ref = float(np.sum(yg[inside] ** aw)) * (2.0 / m) * (1.0 / m)
        lam = MonomialHalfSpace(2, aw).unit_ball_volume
        assert lam == pytest.approx(ref, rel=2e-3)

    def test_exact_isoperimetric_equality(self):
        space = MonomialHalfSpace(2, 1.0)
        for r in (0.5, 4.0):
            assert deficit_ratio(space, r) == pytest.approx(1.0, abs=1e-12)

    def test_effective_dimension_and_avr(self):
        space = MonomialHalfSpace(2, 1.0)
        assert space.effective_dimension == 3.0
        assert space.avr() == pytest.approx((2.0 / 3.0) / omega(3.0), rel=1e-12)

    def test_admissible_regime(self):
        with pytest.raises(DomainError):
            MonomialHalfSpace(1, 25.0)   # AVR would exceed 1
        with pytest.raises(DomainError):
            MonomialHalfSpace(1, 0.0)    # N = 1
        with pytest.raises(DomainError):
            MonomialHalfSpace(2, -0.5)
        with pytest.raises(DomainError):
            MonomialHalfSpace(500, 1.0).avr()  # Lambda and omega_N underflow


class TestAleQuotient:
    def test_avr_only(self):
        space = AleQuotient(n=4, k=8)
        assert space.avr() == pytest.approx(0.125, abs=0)
        with pytest.raises(UnsupportedOperationError):
            vol_ball(space, 1.0)
        with pytest.raises(UnsupportedOperationError):
            minkowski_content_ball(space, 1.0)
        with pytest.raises(UnsupportedOperationError):
            isoperimetric_sharpness_sweep(space, [1.0, 2.0])

    def test_domain(self):
        with pytest.raises(DomainError):
            AleQuotient(n=4, k=0)
        with pytest.raises(DomainError):
            AleQuotient(n=1, k=2)


class TestStructuralChecks:
    def test_bishop_gromov_passes_on_models(self):
        grid = np.geomspace(0.1, 50.0, 40)
        for space in (Euclidean(3), warped(), EuclideanCone(2, math.pi),
                      MonomialHalfSpace(2, 1.0)):
            report = bishop_gromov_check(space, grid)
            assert report.passed, report
            assert report.max_increase <= 1e-10
        # the warped ratio falls strictly, so every step is a decrease
        assert bishop_gromov_check(warped(), grid).max_increase < 0.0

    def test_bishop_gromov_flags_bad_profile(self):
        bad = RampProfile(c=0.5, cap=2.5)
        report = bishop_gromov_check(WarpedProduct(n=3, profile=bad),
                                     np.linspace(0.5, 3.0, 12))
        assert not report.passed
        assert report.max_increase > 1e-3

    def test_bishop_gromov_grid_validation(self):
        with pytest.raises(DomainError):
            bishop_gromov_check(Euclidean(3), [1.0, 1.0, 2.0])

    def test_curvature_check(self):
        good = curvature_check(ExponentialTail(a=0.5, beta=2.0),
                               np.linspace(0.0, 20.0, 100))
        assert good.passed
        assert good.worst_fpp <= 0.0
        assert good.worst_slope_excess <= 0.0

        report = curvature_check(RampProfile(c=0.25, cap=1.5),
                                 np.linspace(0.0, 2.0, 30))
        assert not report.passed
        assert report.worst_fpp > 1e-3
        assert report.worst_slope_excess > 0.1

    def test_curvature_grid_validation(self):
        with pytest.raises(DomainError):
            curvature_check(ExponentialTail(a=0.5, beta=1.0), [])


class TestSharpnessSweep:
    def test_deficit_at_least_one(self):
        grid = np.geomspace(0.2, 100.0, 25)
        for space in (Euclidean(4), warped(n=3, a=0.6, beta=1.0),
                      EuclideanCone(3, 5.0), MonomialHalfSpace(3, 0.5)):
            for r in grid:
                assert deficit_ratio(space, float(r)) >= 1 - 1e-9

    def test_warped_deficit_strictly_positive(self):
        assert deficit_ratio(warped(), 1.0) > 1.0 + 1e-6

    def test_sweep_ratio_nonincreasing_and_converges(self):
        space = warped(n=3, a=0.5, beta=2.0)
        table = isoperimetric_sharpness_sweep(space, np.geomspace(0.1, 500.0, 60))
        ratios = [row.ratio for row in table.rows]
        assert all(b <= a + 1e-9 for a, b in zip(ratios, ratios[1:]))
        assert all(row.margin >= -1e-12 for row in table.rows)
        assert table.tail_gap < 0.01 * table.sharp_bound

    def test_sweep_equality_on_cone(self):
        table = isoperimetric_sharpness_sweep(EuclideanCone(2, math.pi),
                                              [0.5, 1.0, 2.0, 8.0])
        for row in table.rows:
            assert abs(row.margin) <= 1e-12 * row.sharp_bound

    def test_sweep_bound_formula(self):
        table = isoperimetric_sharpness_sweep(Euclidean(3), [1.0])
        assert table.sharp_bound == pytest.approx(
            3.0 * (4 * math.pi / 3) ** (1 / 3), rel=1e-13, abs=0.0)
        assert table.rows[0].vol == pytest.approx(
            4 * math.pi / 3, rel=1e-13, abs=0.0)


class TestDescriptor:
    def test_non_analytic_profile_not_serializable(self):
        # only an ExponentialTail serializes, not another admissible profile
        prof = RampProfile(c=-0.1, cap=0.9)
        with pytest.raises(UnsupportedOperationError):
            WarpedProduct(n=3, profile=prof).descriptor()
