"""Acceptance gate: the ten headline properties, one pass/fail line each.

Run with -s to see the lines; every criterion stays under a minute.
"""

import math

import numpy as np

from isosharp.constants import (
    SobolevParams,
    aubin_talenti,
    fk_constant,
    gn_constant,
    noncollapse_lower_bound,
    sobolev_constant,
)
from isosharp.errors import InvariantViolation
from isosharp.rearrange import (
    euclidean_rearrangement,
    layer_cake_radial_integral,
    lq_norm,
)
from isosharp.spaces import (
    Euclidean,
    EuclideanCone,
    ExponentialTail,
    MonomialHalfSpace,
    SampledProfile,
    WarpedProduct,
    bishop_gromov_check,
    isoperimetric_sharpness_sweep,
)
from isosharp.sandbox import brunn_minkowski_report, seeded_z_inclusion
from isosharp.specfun import bessel_first_zero, bessel_j
from isosharp.verify import (
    bessel_level_integrals,
    curated_profiles,
    fk_check,
    fk_eigenvalue,
    fk_sharpness_sweep,
    gn_quotient,
    run_suite,
    truncated_extremal,
)


def _report(num: int, desc: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def warped(n, a, beta=1.0):
    return WarpedProduct(n, ExponentialTail(a, beta))


def test_criterion_01_constants():
    at = aubin_talenti(SobolevParams(n=3, p=2))
    closed = (1.0 / math.sqrt(3.0)) * (2.0 / math.pi) ** (2.0 / 3.0)
    ok = abs(at - closed) / closed < 1e-10

    grid = [(3, 2), (3, 1.5), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4),
            (6, 2), (6, 4.5), (7, 3), (8, 2), (2.5, 1.8)]
    for n, p in grid:
        params = SobolevParams(n=n, p=p)    # alpha defaults to the endpoint
        g = gn_constant(params)
        a = aubin_talenti(params)
        ok = ok and abs(g - a) / a < 1e-10

    fk = fk_constant(2, 1.0)
    target = math.pi * bessel_first_zero(0.0) ** 2
    ok = ok and abs(fk - target) / target < 1e-9
    _report(1, "sharp constants reproduce the closed forms", ok)


def test_criterion_02_bessel_zeros():
    j0 = bessel_first_zero(0.0)
    j1 = bessel_first_zero(1.0)
    jh = bessel_first_zero(0.5)
    ok = abs(j0 - 2.404825557695773) < 1e-10 * j0
    ok = ok and abs(j1 - 3.831705970207512) < 1e-10 * j1
    ok = ok and abs(jh - math.pi) < 1e-11 * math.pi
    _report(2, "first Bessel zeros match reference values", ok)


def test_criterion_03_isoperimetric_sharpness():
    ok = True
    radii = np.geomspace(1.0, 1e3, 40)
    for n in (2, 3):
        for a in (0.25, 0.5, 0.9):
            table = isoperimetric_sharpness_sweep(warped(n, a), radii)
            bound = table.sharp_bound
            ok = ok and all(row.ratio >= bound * (1.0 - 1e-9)
                            for row in table.rows)
            ok = ok and abs(table.rows[-1].ratio - bound) <= 0.01 * bound
    cone = EuclideanCone(2, 2.0 * math.pi)
    table = isoperimetric_sharpness_sweep(cone, radii)
    ok = ok and all(abs(row.margin) <= 1e-12 * table.sharp_bound
                    for row in table.rows)
    _report(3, "isoperimetric deficit >= sharp bound, cone exactly equal", ok)


def test_criterion_04_bishop_gromov():
    radii = np.geomspace(0.1, 100.0, 60)
    spaces = [Euclidean(2), Euclidean(3), Euclidean(2.5),
              warped(2, 0.25), warped(3, 0.5), warped(2, 0.9, 2.0),
              EuclideanCone(2, 5.0), MonomialHalfSpace(2, 1.0),
              MonomialHalfSpace(1, 0.5)]
    ok = all(bishop_gromov_check(sp, radii).passed for sp in spaces)

    # negative control: a profile that grows superlinearly
    s = np.linspace(0.0, 10.0, 201)
    rising = SampledProfile(s, np.minimum(1.0 + 0.2 * s, 3.0), strict=False)
    bad = WarpedProduct(2, rising)
    ok = ok and not bishop_gromov_check(bad, radii).passed
    _report(4, "Bishop-Gromov monotonicity holds, negative control fails", ok)


def test_criterion_05_polya_szego():
    spaces = [Euclidean(3), warped(3, 0.5), EuclideanCone(2, 2.0 * math.pi),
              MonomialHalfSpace(2, 1.0)]
    ok = True
    n_functions = len(curated_profiles())
    ok = ok and n_functions >= 10
    for sp in spaces:
        res = run_suite(sp, "polya-szego")
        ok = ok and res.passed
        ok = ok and all(r.report.quotient >= 1.0 - 1e-6 for r in res.rows)
    euclid = run_suite(Euclidean(3), "polya-szego")
    ok = ok and all(abs(r.report.quotient - 1.0) <= 1e-8
                    for r in euclid.rows)
    _report(5, "Polya-Szego ratio >= 1 on 4 spaces, Euclidean exactly 1", ok)


def test_criterion_06_gagliardo_nirenberg():
    params = SobolevParams(n=3, p=2, alpha=2.0)
    target = gn_constant(params)
    rep = gn_quotient(Euclidean(3), truncated_extremal(params), params)
    ok = abs(rep.quotient - target) / target < 1e-5

    qs = [gn_quotient(Euclidean(3), truncated_extremal(params, lam=lam),
                      params).quotient for lam in (0.25, 1.0, 7.0)]
    ok = ok and (max(qs) - min(qs)) < 1e-8 * qs[0]

    suite = run_suite(warped(3, 0.5), "gn")
    ok = ok and suite.passed
    ok = ok and all(r.report.margin >= -1e-6 * r.report.rhs_constant
                    for r in suite.rows)
    for a in (0.25, 0.9):
        rep = gn_quotient(warped(3, a), truncated_extremal(params, r_cut=50.0),
                          params)
        ok = ok and rep.margin >= -1e-6 * rep.rhs_constant
    _report(6, "GN extremal attains the constant; warped margins stay "
               "nonnegative", ok)


def test_criterion_07_faber_krahn():
    truth = {2: bessel_first_zero(0.0) ** 2, 3: math.pi ** 2,
             4: bessel_first_zero(1.0) ** 2, 5: bessel_first_zero(1.5) ** 2}
    ok = True
    for n, lam in truth.items():
        res = fk_eigenvalue(Euclidean(n), 1.0)
        ok = ok and abs(res.lambda_1 - lam) / lam < 1e-7
    for R in (0.5, 1.0, 4.0):
        rep = fk_check(Euclidean(3), R)
        ok = ok and abs(rep.margin) <= 1e-6 * rep.rhs_constant
    for sp in (warped(2, 0.5), warped(3, 0.25)):
        ok = ok and fk_check(sp, 5.0).margin > 0.0
    _report(7, "Faber-Krahn eigenvalues exact on balls, margin positive on "
               "warped spaces", ok)


def test_criterion_08_sharpness_sweep():
    table = fk_sharpness_sweep(warped(2, 0.5), np.geomspace(2.0, 500.0, 8))
    ok = table.limits["grad_rel_err"] <= 0.01
    ok = ok and table.limits["mass_rel_err"] <= 0.01
    ok = ok and table.inequality_ok
    for nu in (0.0, 0.5, 1.0):
        i0, _ = bessel_level_integrals(nu)
        jnu = bessel_first_zero(nu)
        closed = bessel_j(nu + 1.0, jnu) ** 2 / 2.0
        ok = ok and abs(i0 - closed) <= 1e-9
    _report(8, "sweep integral limits within 1% at R=500; orthogonality "
               "identity to 1e-9", ok)


def test_criterion_09_sandbox():
    ok = all(seeded_z_inclusion(seed).passed for seed in range(200))

    for s in (0.0, 0.3, 0.5, 0.77, 1.0):
        rep = brunn_minkowski_report(1, 1 / 64, [(0.0, 0.25)],
                                     [(0.5, 0.75)], s)
        ok = ok and abs(rep.deficit) < 1e-14

    a = [(0.0, 0.25), (0.0, 0.25)]
    b = [(0.0, 0.640625), (0.0, 0.640625)]
    violations = []
    for k in (64, 128, 256):
        rep = brunn_minkowski_report(2, 1.0 / k, a, b, 0.25)
        violations.append(max(0.0, -rep.deficit))
    ok = ok and violations[0] <= 0.05
    ok = ok and violations[1] <= violations[0]
    ok = ok and violations[2] <= violations[1]
    _report(9, "z-inclusion holds on 200 seeds; lattice BM exact in 1-D, "
               "improving in 2-D", ok)


def test_criterion_10_round_trips():
    ok = True
    for n, p in ((3, 2), (4, 2), (5, 3), (2.5, 1.8)):
        params = SobolevParams(n=n, p=p)
        for avr in (0.2, 0.5, 1.0):
            back = noncollapse_lower_bound(
                params, sobolev_constant(params, avr))
            ok = ok and abs(back - avr) <= 1e-12

    spaces = [Euclidean(3), warped(2, 0.5), EuclideanCone(2, 2.0 * math.pi)]
    for sp in spaces:
        star_space = Euclidean(sp.effective_dimension)
        for label, u in curated_profiles()[:4]:
            star = euclidean_rearrangement(sp, u)
            for q in (1.5, 2.0):
                a = lq_norm(sp, u, q)
                b = lq_norm(star_space, star, q)
                ok = ok and abs(a - b) <= 1e-7 * max(a, b)

    # 12 (space, f, R) layer-cake cases, each cross-checked to 1e-8
    # internally against direct quadrature
    cases = []
    for sp in (Euclidean(2), warped(2, 0.5), EuclideanCone(2, 4.0),
               MonomialHalfSpace(2, 1.0)):
        for fn, dfn, R in (
                (np.ones_like, np.zeros_like, 2.0),
                (lambda r: np.exp(-r), lambda r: -np.exp(-r), 3.0),
                (lambda r: 1.0 / (1.0 + r * r),
                 lambda r: -2.0 * r / (1.0 + r * r) ** 2, 5.0)):
            cases.append((sp, fn, dfn, R))
    assert len(cases) == 12
    try:
        for sp, fn, dfn, R in cases:
            layer_cake_radial_integral(sp, fn, dfn, R)
    except InvariantViolation:
        ok = False
    _report(10, "constant and norm round trips close to stated tolerances",
            ok)
