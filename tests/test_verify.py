import math

import numpy as np
import pytest

import isosharp.verify as verify
from isosharp.constants import SobolevParams, aubin_talenti, fk_constant, gn_constant
from isosharp.errors import ConvergenceError, DomainError
from isosharp.rearrange import RadialFunction, grad_lp_norm, lq_norm
from isosharp.spaces import (
    AleQuotient,
    Euclidean,
    EuclideanCone,
    ExponentialTail,
    MonomialHalfSpace,
    WarpedProduct,
)
from isosharp.specfun import bessel_first_zero, bessel_j, gamma
from isosharp.verify import (
    EigenResult,
    bessel_level_integrals,
    bessel_test_profile,
    curated_profiles,
    extremal_h,
    extremal_h_deriv,
    fk_check,
    fk_eigenvalue,
    fk_sharpness_sweep,
    gn_quotient,
    run_suite,
    sobolev_quotient,
    truncated_extremal,
)

# frozen with mpmath, 50 digits
J0_SQ = 5.7831859629467845212    # j_0^2
J1_SQ = 14.681970642123893257    # j_1^2
J32_SQ = 20.190728556426629975   # j_{3/2}^2
I_NU0 = 0.134757061970958463     # int_0^1 t J_0(j_0 t)^2 dt
I_NU_HALF = 0.101321183642337771
I_NU1 = 0.0811075654133428227


def warped(n=3, a=0.5, beta=1.0):
    return WarpedProduct(n, ExponentialTail(a, beta))


class TestExtremal:
    def test_value_at_origin(self):
        # h(0) = lam^{1/(1-alpha)}
        assert extremal_h(3.0, 2.0, 4.0, 0.0) == pytest.approx(0.5, rel=1e-14)
        assert extremal_h(2.0, 2.0, 1.0, 1.0) == pytest.approx(0.5, rel=1e-14)

    def test_deriv_matches_difference_quotient(self):
        for alpha, p, lam, r in [(2.0, 2.0, 1.0, 0.7), (3.0, 2.0, 2.0, 1.3),
                                 (2.5, 1.5, 0.5, 2.0)]:
            h = 1e-6 * max(1.0, r)
            num = (extremal_h(alpha, p, lam, r + h)
                   - extremal_h(alpha, p, lam, r - h)) / (2 * h)
            assert extremal_h_deriv(alpha, p, lam, r) == pytest.approx(num, rel=1e-8)
        assert extremal_h_deriv(2.0, 2.0, 1.0, 0.0) == 0.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            extremal_h(1.0, 2.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            extremal_h(2.0, 1.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            extremal_h(2.0, 2.0, 0.0, 0.5)
        with pytest.raises(DomainError):
            extremal_h(2.0, 2.0, 1.0, -0.1)

    def test_truncation_support_and_shift(self):
        params = SobolevParams(n=3, p=2, alpha=2.0)
        u = truncated_extremal(params, lam=1.0, r_cut=50.0)
        assert u.compactly_supported
        assert u.support_radius == pytest.approx(50.0, rel=1e-12)
        assert float(u.value(50.0)) == 0.0
        assert float(u.value(0.0)) == pytest.approx(1.0 - 1.0 / (1.0 + 50.0 ** 2))
        # default r_cut rides the dilation scale lam^{1/p'}
        v = truncated_extremal(params, lam=4.0)
        assert v.support_radius == pytest.approx(2000.0, rel=1e-12)


class TestSobolevQuotient:
    def test_euclidean_profiles_stay_below_constant(self):
        space = Euclidean(3)
        for label, u in curated_profiles():
            rep = sobolev_quotient(space, u, 2.0)
            assert rep.margin > 0.0, label
            assert rep.rhs_constant == pytest.approx(aubin_talenti(
                SobolevParams(n=3, p=2)), rel=1e-14)

    def test_extremal_converges_to_aubin_talenti(self):
        # truncation bias decays like 1/r_cut for the endpoint profile
        space = Euclidean(3)
        at = aubin_talenti(SobolevParams(n=3, p=2))
        errs = []
        for r_cut in (1e3, 1e4, 3e4):
            u = truncated_extremal(SobolevParams(n=3, p=2), r_cut=r_cut)
            q = sobolev_quotient(space, u, 2.0).quotient
            errs.append(abs(q - at) / at)
        assert errs[0] < 1e-3
        assert errs[1] < errs[0]
        assert errs[2] < 1e-4

    def test_warped_quotients_capped_by_avr_constant(self):
        space = warped(3, 0.5, 1.0)
        for label, u in list(curated_profiles())[:4]:
            rep = sobolev_quotient(space, u, 2.0)
            assert rep.margin > 0.0, label

    def test_vanishing_gradient_rejected(self):
        with pytest.raises(DomainError):
            sobolev_quotient(Euclidean(3), RadialFunction.plateau(1.0, 1.0), 2.0)


class TestGnQuotient:
    def test_extremal_attains_constant(self):
        params = SobolevParams(n=3, p=2, alpha=2.0)
        rep = gn_quotient(Euclidean(3), truncated_extremal(params), params)
        assert rep.quotient == pytest.approx(gn_constant(params), rel=1e-6)

    def test_dilation_invariance_of_the_family(self):
        params = SobolevParams(n=3, p=2, alpha=2.0)
        qs = [gn_quotient(Euclidean(3), truncated_extremal(params, lam=lam),
                          params).quotient for lam in (0.25, 1.0, 7.0)]
        assert max(qs) - min(qs) < 1e-8 * qs[0]

    def test_dimension_mismatch_rejected(self):
        params = SobolevParams(n=4, p=2, alpha=2.0)
        with pytest.raises(DomainError):
            gn_quotient(Euclidean(3), truncated_extremal(params), params)

    def test_warped_margin_positive(self):
        space = warped(3, 0.5, 1.0)
        params = SobolevParams(n=3, p=2, alpha=2.0)
        rep = gn_quotient(space, truncated_extremal(params, r_cut=40.0), params)
        assert rep.margin > 1e-3
        assert rep.params["theta"] == pytest.approx(0.5, abs=1e-12)


class TestEigenvalue:
    def test_euclidean_matches_bessel_zeros(self):
        truth = {2: J0_SQ, 3: math.pi ** 2, 4: J1_SQ, 5: J32_SQ}
        for n, lam in truth.items():
            res = fk_eigenvalue(Euclidean(n), 1.0)
            assert res.lambda_1 == pytest.approx(lam, rel=1e-9)
            assert res.mismatch < 1e-9
        # from n = 12 on (j_{nu,2}/j_{nu,1})^2 < 2, so an eigenvalue
        # bracket reaching 2 j^2 also holds the second eigenvalue
        for n in (12, 16, 20, 30, 40):
            res = fk_eigenvalue(Euclidean(n), 1.0)
            lam = bessel_first_zero(n / 2.0 - 1.0) ** 2
            assert res.lambda_1 == pytest.approx(lam, rel=1e-8)
            assert res.mismatch < 1e-9

    def test_scaling_law(self):
        base = fk_eigenvalue(Euclidean(3), 1.0).lambda_1
        for R in (0.5, 3.0):
            res = fk_eigenvalue(Euclidean(3), R)
            assert res.lambda_1 == pytest.approx(base / R ** 2, rel=1e-8)

    def test_eigenfunction_shape(self):
        res = fk_eigenvalue(Euclidean(2), 1.0)
        phi = res.eigenfunction
        assert float(phi.value(0.0)) == 1.0
        assert phi.values[-1] == 0.0
        assert np.all(np.diff(phi.values) <= 0.0)
        # node values reproduce J_0(j_0 r) along the grid
        j0 = bessel_first_zero(0.0)
        mid = phi.r_grid[len(phi.r_grid) // 2]
        assert float(phi.value(mid)) == pytest.approx(
            bessel_j(0.0, j0 * mid), abs=1e-7)

    def test_rayleigh_quotient_consistency(self):
        # the reported eigenvalue and the eigenfunction must agree through
        # the independent norm machinery
        cases = [(Euclidean(3), 1.0), (warped(2, 0.5, 1.0), 5.0)]
        cases += [(sp, R) for sp in (warped(12, 0.5), warped(20, 0.2))
                  for R in (1.0, 5.0)]
        for sp, R in cases:
            res = fk_eigenvalue(sp, R)
            rq = (grad_lp_norm(sp, res.eigenfunction, 2.0)
                  / lq_norm(sp, res.eigenfunction, 2.0)) ** 2
            assert rq == pytest.approx(res.lambda_1, rel=1e-5)
            if isinstance(sp, WarpedProduct):
                # Cheng's comparison: lambda_1(B_R) <= j_{n/2-1}^2 / R^2
                # under nonnegative Ricci curvature, so a higher root
                # cannot pass for lambda_1
                j2 = bessel_first_zero(sp.n / 2.0 - 1.0) ** 2
                assert res.lambda_1 < j2 / R ** 2

    def test_rejects_bad_radius_and_space(self):
        with pytest.raises(DomainError):
            fk_eigenvalue(Euclidean(3), 0.0)
        with pytest.raises(Exception):
            fk_eigenvalue(AleQuotient(3, 2), 1.0)


class TestFkCheck:
    def test_euclidean_equality_three_radii(self):
        for R in (0.5, 1.0, 4.0):
            rep = fk_check(Euclidean(3), R)
            assert abs(rep.margin) < 1e-6 * rep.rhs_constant

    def test_cone_and_monomial_equality(self):
        # cones are the equality cases of the scale-invariant product
        for sp in (EuclideanCone(2, 2.0 * math.pi), MonomialHalfSpace(2, 1.0)):
            rep = fk_check(sp, 2.0)
            assert abs(rep.margin) < 1e-9 * rep.rhs_constant

    def test_warped_strictly_above(self):
        margins = [fk_check(warped(2, 0.5, 1.0), R).margin for R in (1.0, 5.0, 20.0)]
        assert all(m > 0.0 for m in margins)
        assert margins == sorted(margins, reverse=True)

    def test_quotient_scale_invariant(self):
        a = fk_check(warped(2, 0.5, 1.0), 5.0).quotient
        b = fk_check(warped(2, 0.5, 1.0), 5.0).quotient
        assert a == b   # determinism
        c = fk_check(Euclidean(2), 1.0).quotient
        d = fk_check(Euclidean(2), 7.0).quotient
        assert c == pytest.approx(d, rel=1e-8)


class TestSweep:
    def test_orthogonality_integrals(self):
        frozen = {0.0: I_NU0, 0.5: I_NU_HALF, 1.0: I_NU1}
        for nu, target in frozen.items():
            i0, i1 = bessel_level_integrals(nu)
            jnu = bessel_first_zero(nu)
            assert i0 == pytest.approx(target, abs=1e-12)
            assert i0 == pytest.approx(bessel_j(nu + 1.0, jnu) ** 2 / 2.0,
                                       abs=1e-9)
            assert i1 == pytest.approx(i0, abs=1e-9)

    @pytest.mark.parametrize("nu", [0.25, 0.75, 1.5, 2.5, 4.0, 9.0])
    def test_level_integrals_match_orthogonality(self, nu):
        # I0 = I1 = J_{nu+1}(j_nu)^2 / 2; t^(2 nu + 1) is not smooth at 0
        # for non-integer nu, which the graded rule must resolve
        i0, i1 = bessel_level_integrals(nu)
        closed = bessel_j(nu + 1.0, bessel_first_zero(nu)) ** 2 / 2.0
        assert i0 == pytest.approx(closed, rel=1e-13)
        assert i1 == pytest.approx(closed, rel=1e-13)

    def test_profile_center_value_and_derivative(self):
        u = bessel_test_profile(4.0, 2.0)    # nu = 1
        j1 = bessel_first_zero(1.0)
        k = j1 / 2.0
        assert float(u.value(0.0)) == pytest.approx((k / 2.0) / gamma(2.0),
                                                    rel=1e-12)
        r = 0.9
        h = 1e-6
        num = (float(u.value(r + h)) - float(u.value(r - h))) / (2 * h)
        assert float(u.deriv(r)) == pytest.approx(num, rel=1e-7)
        assert u.compactly_supported

    def test_euclidean_rows_sit_on_the_constant(self):
        table = fk_sharpness_sweep(Euclidean(2), [1.0, 10.0, 100.0])
        for row in table.rows:
            assert row.quotient == pytest.approx(table.lambda_g, rel=1e-12)
        assert table.passed and table.monotone

    def test_warped_limits_and_tail(self):
        table = fk_sharpness_sweep(warped(2, 0.5, 1.0),
                                   np.geomspace(2.0, 500.0, 8))
        assert table.inequality_ok
        assert table.limits["grad_rel_err"] < 0.01
        assert table.limits["mass_rel_err"] < 0.01
        assert table.tail_rel_gap < 0.02
        assert table.passed

    def test_limits_extrapolate_in_inverse_radius(self):
        # at R = 500 the raw mass bias (1.2e-2) is over the 1% gate; the
        # 1/R extrapolation from the two largest rows lands near 1e-4
        table = fk_sharpness_sweep(warped(3, 0.45, 1.0),
                                   np.geomspace(2.0, 500.0, 8))
        lim = table.limits
        assert lim["mass_rel_err"] > 0.01
        assert lim["mass_extrapolated_rel_err"] < 1e-3
        assert lim["grad_extrapolated_rel_err"] < 1e-3
        assert lim["grad_extrapolated_rel_err"] < lim["grad_rel_err"]
        assert table.limits_ok and table.passed

    def test_single_radius_limit_is_the_raw_value(self):
        table = fk_sharpness_sweep(warped(2, 0.5, 1.0), [500.0])
        lim = table.limits
        assert lim["grad_extrapolated"] == lim["grad_actual"]
        assert lim["mass_extrapolated"] == lim["mass_actual"]
        assert lim["mass_extrapolated_rel_err"] == lim["mass_rel_err"]

    @pytest.mark.parametrize("N,radii", [(60.0, np.geomspace(2.0, 500.0, 8)),
                                         (101.5, [0.01, 0.02])])
    def test_large_dimension_sweep(self, N, radii):
        # near r = 0, r^-nu overflows while J_nu(k r) underflows; the graded
        # layer-cake rule samples there, so the profile is built from the
        # scaled Bessel function
        table = fk_sharpness_sweep(Euclidean(N), radii)
        assert table.passed
        for row in table.rows:
            assert row.quotient == pytest.approx(table.lambda_g, rel=1e-12)

    def test_wrong_avr_fails_the_limits(self, monkeypatch):
        # the extrapolated limits must still catch a wrong expected value
        space = warped(3, 0.45, 1.0)
        monkeypatch.setattr(verify, "avr", lambda sp: 1.03 * sp.avr())
        table = fk_sharpness_sweep(space, np.geomspace(2.0, 500.0, 8))
        assert table.limits["mass_extrapolated_rel_err"] > 0.01
        assert not table.limits_ok
        assert not table.passed

    def test_rejects_empty_or_negative_radii(self):
        with pytest.raises(DomainError):
            fk_sharpness_sweep(Euclidean(2), [])
        with pytest.raises(DomainError):
            fk_sharpness_sweep(Euclidean(2), [-1.0, 2.0])


class TestSuites:
    def test_polya_suite_euclidean_and_cone(self):
        for sp in (Euclidean(3), EuclideanCone(2, 2.0 * math.pi)):
            res = run_suite(sp, "polya-szego")
            assert res.passed
            assert len(res.rows) >= 10
            for row in res.rows:
                # cones achieve equality, so ratios pin to 1
                assert row.report.quotient == pytest.approx(1.0, abs=1e-8)

    def test_polya_suite_warped_strict(self):
        res = run_suite(warped(3, 0.5, 1.0), "polya-szego")
        assert res.passed
        assert all(row.report.margin > 1e-4 for row in res.rows)

    def test_sobolev_suite(self):
        res = run_suite(Euclidean(3), "sobolev")
        assert res.passed
        labels = [row.label for row in res.rows]
        assert len(set(labels)) == len(labels)
        assert "extremal_endpoint" in labels

    def test_gn_suite_warped(self):
        res = run_suite(warped(3, 0.5, 1.0), "gn")
        assert res.passed
        assert all(row.report.margin > 0.0 for row in res.rows)

    def test_fk_suites(self):
        res = run_suite(warped(2, 0.5, 1.0), "faber-krahn", R_list=[1.0, 5.0])
        assert res.passed
        res = run_suite(Euclidean(2), "fk-sweep", R_list=[1.0, 20.0])
        assert res.passed

    def test_unknown_suite_rejected(self):
        with pytest.raises(DomainError):
            run_suite(Euclidean(3), "does-not-exist")

    def test_report_round_trips_to_dict(self):
        rep = sobolev_quotient(Euclidean(3), curated_profiles()[0][1], 2.0)
        d = rep.as_dict()
        assert d["margin"] == rep.margin
        assert d["space"]["variant"] == "euclidean"


def test_dilated_profile_keeps_sobolev_quotient():
    # quotient is dilation invariant on Euclidean space
    _, u = curated_profiles()[3]    # smooth gaussian
    base = sobolev_quotient(Euclidean(3), u, 2.0).quotient
    moved = sobolev_quotient(Euclidean(3), u.dilated(2.0), 2.0).quotient
    assert moved == pytest.approx(base, rel=1e-8)
