"""Rearrangement, Cavalieri norms, Polya-Szego, layer cake."""

import functools
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
from isosharp.quadrature import gauss_on_segments
from isosharp.rearrange import (
    RadialFunction,
    euclidean_rearrangement,
    grad_lp_norm,
    layer_cake_radial_integral,
    lq_norm,
    polya_szego_check,
)
from isosharp.spaces import (
    EuclideanCone,
    Euclidean,
    ExponentialTail,
    MonomialHalfSpace,
    WarpedProduct,
    vol_ball,
)
from isosharp.specfun import omega
from isosharp.verify import (curated_profiles, fk_eigenvalue, gn_quotient,
                             truncated_extremal)
from oracles import (
    callable_radial_oracle,
    euclidean_content_mp,
    pchip_radial_oracle,
    ramp_warped_content_mp,
    warped_polya_rhs_gauss,
    warped_polya_rhs_oracle,
)
from profiles import RampProfile, exact, interpolated, plateau, support_end


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


@functools.lru_cache(maxsize=None)
def polya_against_oracle(n, beta):
    """(label, p, relative rhs error against the nested Gauss oracle,
    ratio) of each curated profile and p = 1.5, 2, 3 on warped(n, 0.5,
    beta); computed once for the tests that read it."""
    space, rows = warped(n, 0.5, beta), []
    for label, u in curated_profiles():
        for p in (1.5, 2.0, 3.0):
            res = polya_szego_check(space, u, p)
            want = warped_polya_rhs_gauss(n, 0.5, beta, u.deriv, u.r_grid, p)
            rows.append((label, p, abs(res.rhs - want) / want, res.ratio))
    return tuple(rows)


def level_volumes(space, u, t):
    """vol({u > t}) at each level t: the map the Cavalieri route
    integrates."""
    return space.volume(rearrange._level_radii(u, t))


def _zero(r):
    return np.zeros_like(np.asarray(r, dtype=float))


NARROW_WIDTH = 1e-5


def narrow_gaussian():
    """u = exp(-(r/w)^2), w = NARROW_WIDTH, on a geometric grid to 1000."""
    w = NARROW_WIDTH
    return exact(lambda r: np.exp(-(np.asarray(r) / w) ** 2),
                 lambda r: -2.0 * np.asarray(r) / w ** 2
                 * np.exp(-(np.asarray(r) / w) ** 2),
                 np.concatenate([[0.0], np.geomspace(1e-9, 1e3, 240)]))


def node_brackets(u, t):
    """The grid nodes (lo, hi) around each r(t): lo = hi = 0 when
    u(0) <= t, lo = hi = r_end when u(r_end) > t."""
    k = np.searchsorted(-u.values, -t)
    return (u.r_grid[np.maximum(k - 1, 0)],
            u.r_grid[np.minimum(k, u.values.size - 1)])


def reference_radii(u, t):
    """r(t) by 40 halvings of each node bracket, kept while u > t there:
    the midpoint of the last half."""
    lo, hi = node_brackets(u, t)
    width = hi - lo
    for _ in range(40):
        width = 0.5 * width
        lo = np.where(u.value(lo + width) > t, lo + width, lo)
    return lo + 0.5 * width


def certified(u, t, x):
    """Where u itself proves |x - r(t)| <= 2^-41 of the node bracket:
    u(x - tol) > t >= u(x + tol), a probe clipped to the bracket's end
    holding by the node values."""
    lo, hi = node_brackets(u, t)
    tol = (hi - lo) * 2.0 ** -41
    left, right = np.maximum(x - tol, lo), np.minimum(x + tol, hi)
    return (((left == lo) | (u.value(left) > t))
            & ((right == hi) | (u.value(right) <= t)))


def cavalieri_levels(monkeypatch, u):
    """The levels t at which the Cavalieri route of u's L2 norm on
    Euclidean(3) asks for r(t)."""
    seen, level_radii = [], rearrange._level_radii

    def record(v, t):
        seen.append(np.array(t))
        return level_radii(v, t)

    monkeypatch.setattr(rearrange, "_level_radii", record)
    rearrange._cavalieri_integral(Euclidean(3), u, [2.0])
    monkeypatch.undo()
    return np.concatenate(seen)


class TestRadialFunction:
    def test_validation(self):
        # node values come from the value callable, read on the grid
        with pytest.raises(DomainError):
            RadialFunction([0.0, 1.0], lambda r: 1.0 + r, _zero)  # increasing
        with pytest.raises(DomainError):
            RadialFunction([0.5, 1.0], lambda r: 1.5 - r, _zero)  # misses 0
        with pytest.raises(DomainError):
            RadialFunction([0.0, 1.0], lambda r: 1.0 - 1.1 * r,   # negative
                           _zero)
        with pytest.raises(DomainError):
            RadialFunction([0.0], lambda r: 1.0 - r, _zero)
        with pytest.raises(DomainError):
            RadialFunction([0.0, 1.0, np.inf], lambda r: 1.0 / (1.0 + r),
                           _zero)                                # endless
        with pytest.raises(DomainError):
            RadialFunction([0.0, 1.0], lambda r: np.full_like(r, np.nan),
                           _zero)                                # not finite
        with pytest.raises(DomainError):
            RadialFunction([0.0, 1.0], lambda r: 1.0, _zero)     # one value

    def test_node_values_are_the_value_callables(self):
        # every profile the suites build, and its rearrangements: the one
        # copy of the node values and slopes is what ``value`` and
        # ``deriv`` give on the grid
        spaces = [Euclidean(2), Euclidean(3), warped(n=2), warped(n=3),
                  EuclideanCone(2, 5.0), MonomialHalfSpace(2, 1.0)]
        profiles = [u for _, u in curated_profiles()] + [
            truncated_extremal(SobolevParams(n=3, p=2.0)),
            truncated_extremal(SobolevParams(n=3, p=2.0, alpha=2.0))]
        checked = []
        for u in profiles:
            checked.append(u)
            checked += [euclidean_rearrangement(space, u) for space in spaces]
        checked += [fk_eigenvalue(space, R).eigenfunction
                    for space in spaces for R in (1.0, 5.0, 20.0)]
        for u in checked:
            assert np.array_equal(u.values, u.value(u.r_grid))
            assert np.array_equal(u.slopes, u.deriv(u.r_grid))


def _solved_profiles():
    return curated_profiles() + [
        ("extremal_p2", truncated_extremal(SobolevParams(n=3, p=2.0))),
        ("extremal_near_alpha_1", truncated_extremal(
            SobolevParams(n=3, p=2.0, alpha=1.0 + 1e-9))),
        ("narrow_gaussian", narrow_gaussian())]


class TestLevelRadiusSolve:
    """Newton steers each level radius; u's values prove it, or it is
    bisected as before."""

    @pytest.mark.parametrize("label,u", _solved_profiles(),
                             ids=[label for label, _ in _solved_profiles()])
    def test_every_radius_is_certified_or_bisected(self, monkeypatch,
                                                   label, u):
        t = cavalieri_levels(monkeypatch, u)
        if label == "narrow_gaussian":
            t = np.concatenate([t, np.geomspace(1e-12, 0.5, 40)])
        radii = rearrange._level_radii(u, t)
        lo, hi = node_brackets(u, t)
        interior = lo < hi
        assert interior.sum() > 100
        held = certified(u, t, radii) | (radii == reference_radii(u, t))
        assert held[interior].all()

    @pytest.mark.parametrize("slope", ["tripled", "zero", "nan"])
    @pytest.mark.parametrize("label", ["gauss_1_2.5", "extremal_p2"])
    def test_a_wrong_slope_only_steers(self, monkeypatch, label, slope):
        # u.deriv picks the candidates; u.value accepts or rejects them
        u = dict(_solved_profiles())[label]
        wrong = {"tripled": lambda r: 3.0 * u.deriv(r),
                 "zero": _zero,
                 "nan": lambda r: np.full_like(np.asarray(r, dtype=float),
                                               np.nan)}[slope]
        v = RadialFunction(u.r_grid, u.value, wrong)
        t = cavalieri_levels(monkeypatch, u)
        lo, hi = node_brackets(u, t)
        off = np.abs(rearrange._level_radii(v, t) - reference_radii(u, t))
        assert np.all(off <= 2.0 ** -40 * (hi - lo))

    @pytest.mark.parametrize("label,calls", [("tent_1", 7),
                                             ("gauss_1_2.5", 47)])
    def test_value_calls_per_norm(self, monkeypatch, label, calls):
        # one direct-route pass, then 4 Newton steps and the two probes of
        # the certificate; at a flat top (u'(0) = 0) some levels fail it
        # and take 40 halvings
        count = [0]
        value = RadialFunction.value

        def counted(self, r):
            count[0] += 1
            return value(self, r)

        monkeypatch.setattr(RadialFunction, "value", counted)
        lq_norm(Euclidean(3), dict(curated_profiles())[label], 2.0)
        assert count[0] == calls


class TestRadialGrid:
    """One rule joins a radial grid with the space's breaks, and one
    Gauss rule integrates on the join."""

    @pytest.mark.parametrize("end", [0.3, 1.0, 500.0])
    def test_join_is_sorted_and_spans_the_grid(self, end):
        # warped(beta=1)'s breaks run to 60: past 0.3 and 1, short of 500
        # (the layer cake's panels at R = 500 were once graded on [0, 60])
        space = warped(n=2)
        grid = np.linspace(0.0, end, 17)
        joined = rearrange._joined(space, grid)
        assert np.all(np.diff(joined) > 0.0)
        assert (joined[0], joined[-1]) == (0.0, end)
        assert np.all(np.isin(grid, joined))
        assert np.all(np.isin(space.breaks[space.breaks < end], joined))

    def test_break_beside_a_node_is_dropped(self):
        # a break within 1e-9 of a node, relative to the break, would leave
        # a segment of rounding width, across which the volume radius of
        # u*'s knots ties; one 1e-6 away stays
        grid = np.array([0.0, 0.25 * (1.0 + 1e-12), 0.5 * (1.0 + 1e-6), 1.0])
        joined = rearrange._joined(warped(n=3), grid)
        assert joined.tolist() == [0.0, grid[1], 0.5, grid[2], 0.75, 1.0]

    def test_join_on_a_power_law_space_is_the_grid(self):
        grid = np.linspace(0.0, 2.0, 9)
        assert np.array_equal(
            rearrange._joined(EuclideanCone(2, 5.0), grid), grid)

    @pytest.mark.parametrize("breaks", [[], [1.0]])
    def test_fewer_than_two_breaks_give_zeros_of_the_stack_shape(self,
                                                                 breaks):
        stacked = gauss_on_segments(
            lambda x: np.ones((2, 3, 1)) * np.exp(x), breaks)
        assert stacked.shape == (2, 3) and not stacked.any()
        assert gauss_on_segments(np.exp, breaks) == 0.0


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

    def test_level_radii_of_a_narrow_gaussian(self):
        # the radii lie far below r_end, and a stop at 1e-13 r_end left
        # them 8.9e-7 off
        u = narrow_gaussian()
        t = np.geomspace(1e-12, 0.5, 40)
        ref = NARROW_WIDTH * np.sqrt(-np.log(t))
        radii = rearrange._level_radii(u, t)
        assert np.max(np.abs(radii / ref - 1.0)) < 1e-11

    def test_tent_on_warped_matches_vol_ball(self):
        space = warped()
        u = tent()
        t = np.array([0.8, 0.5, 0.2])
        for ti, vi in zip(t, level_volumes(space, u, t)):
            assert vi == pytest.approx(vol_ball(space, 1.0 - ti), rel=1e-9)

    def test_nonmonotone_callable_flagged(self):
        # the constructor reads the node values from the value callable
        with pytest.raises(DomainError, match="nonincreasing"):
            RadialFunction([0.0, 0.5, 1.0], lambda r: np.asarray(r) ** 2,
                           lambda r: 2.0 * np.asarray(r))


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
# a warping whose sphere measure has a kink between the profiles' nodes,
# at s_cap = 8/7
_RAMP = RampProfile(c=-0.35, cap=0.6)


def _interpolant_spaces():
    return {
        "euclidean_1.3": (Euclidean(1.3), euclidean_content_mp(1.3), ()),
        "euclidean_2.5": (Euclidean(2.5), euclidean_content_mp(2.5), ()),
        "ramp_warped_3": (WarpedProduct(3, _RAMP),
                          ramp_warped_content_mp(3, -0.35, 0.6),
                          (_RAMP.s_cap,)),
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
                [(direct, cavalieri)] = rearrange._route_pairs(
                    Euclidean(n), star, [q])
                assert abs(direct - cavalieri) <= 1e-9 * direct, (label, q)


# numpy is the only runtime dependency: the closed-form norms, the layer
# cake, the Bessel and eigenvalue routes, the sandbox and the CLI all run in
# a fresh interpreter that loads no scipy
_NUMPY_ALONE = """
import contextlib, io, json, sys
import numpy as np
from isosharp.cli import main
from isosharp.rearrange import (grad_lp_norm, layer_cake_radial_integral,
                                lq_norm, polya_szego_check)
from isosharp.sandbox import seeded_z_inclusion
from isosharp.spaces import ExponentialTail, MonomialHalfSpace, WarpedProduct
from isosharp.verify import (curated_profiles, fk_eigenvalue,
                             fk_sharpness_sweep)
from profiles import exact

space = WarpedProduct(3, ExponentialTail(0.5, 1.0))
r = np.linspace(0.0, 2.0, 41)
shelf = exact(lambda r: np.clip(1.6 - r, 0.0, 1.0),
              lambda r: np.where((0.6 < r) & (r < 1.6), -1.0, 0.0), r)
lq_norm(space, shelf, 2.0)
grad_lp_norm(space, shelf, 2.0)
polya_szego_check(space, exact(
    lambda r: np.maximum(np.exp(-r * r) - np.exp(-4.0), 0.0),
    lambda r: np.where(r < 2.0, -2.0 * r * np.exp(-r * r), 0.0), r), 2.0)
tent = dict(curated_profiles())["tent_1"]
lq_norm(space, tent, 2.0)
grad_lp_norm(space, tent, 2.0)
layer_cake_radial_integral(
    space, lambda r, _: (np.ones_like(r), np.zeros_like(r)), 4.0)
fk_sharpness_sweep(space, [2.0, 20.0])
assert MonomialHalfSpace(3, 0.5).unit_ball_volume > 0.0
fk_eigenvalue(space, 1.0)
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
            mass ** (1.0 / 6), rel=1e-13, abs=0.0)
        # p = 1.01: h = (1 + r^101)^expo has a sharp corner at r = 1, so
        # the oracle's edges pass through it; the Sobolev lhs q = p*
        params = SobolevParams(3, 1.01)
        u, q = truncated_extremal(params), params.p_star
        with mp.workdps(30):
            pp, expo = mp.mpf(params.p_prime), 1 / (1 - mp.mpf(params.alpha))
            shift = (1 + mp.mpf(1000) ** pp) ** expo
        mass = callable_radial_oracle(
            lambda r: (1 + r ** pp) ** expo - shift, euclidean_content_mp(3),
            q, [0.0, 0.5, 0.9, 0.97, 1.0, 1.03, 1.1, 2.0, 1e3])
        assert lq_norm(Euclidean(3), u, q) == pytest.approx(
            mass ** (1.0 / q), rel=1e-14, abs=0.0)

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


    @pytest.mark.parametrize("label,r_in,r_out", [
        ("trapezoid_0.5_1.5", 0.5, 1.5), ("trapezoid_1_3", 1.0, 3.0)])
    @pytest.mark.parametrize("q", [3000.0, 8997.0, 20000.0])
    def test_trapezoid_routes_at_large_q_match_mpmath(self, label, r_in,
                                                      r_out, q):
        # |u|^q has a boundary layer of width ~(r_out - r_in)/q past the
        # plateau's end; the direct route was off by 1.6e-5 at q = 20000
        u = dict(curated_profiles())[label]
        a, b = mp.mpf(r_in), mp.mpf(r_out)
        mass = callable_radial_oracle(
            lambda r: 1 if r < a else (b - r) / (b - a),
            euclidean_content_mp(3), q, [0.0, r_in, r_out])
        [(direct, cavalieri)] = rearrange._route_pairs(
            Euclidean(3), u, [q])
        assert direct == pytest.approx(mass, rel=1e-11)
        assert cavalieri == pytest.approx(mass, rel=1e-11)


def _stack_spaces():
    return [Euclidean(3), Euclidean(3.5), EuclideanCone(2, 0.6 * 4 * math.pi),
            MonomialHalfSpace(2, 1.0), warped(n=2), warped(n=3)]


class TestStackedExponents:
    """Several exponents share one pass over each route's nodes."""

    @pytest.mark.parametrize("space", _stack_spaces(),
                             ids=lambda s: s.descriptor()["variant"])
    def test_stack_equals_single_calls(self, space):
        qs = (0.5, 0.9, 3.0, 4.0, 7.5)
        params = SobolevParams(space.effective_dimension, 1.5)
        profiles = curated_profiles() + [
            ("extremal", truncated_extremal(params))]
        for label, u in profiles:
            single = [rearrange._route_pairs(space, u, [q])[0] for q in qs]
            assert rearrange._route_pairs(space, u, qs) == single, label
            assert rearrange._route_pairs(
                space, u, (3.0, 4.0)) == single[2:4], label
            assert lq_norm(space, u, *qs) == tuple(
                lq_norm(space, u, q) for q in qs), label

    def test_one_level_radius_and_volume_pass_per_gn_quotient(
            self, monkeypatch):
        # both norms of the GN quotient solve the level radii and call
        # V(r(t)) once; the direct routes and the gradient call no volume
        calls = {"radii": 0, "volume": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(rearrange, "_level_radii",
                            counted("radii", rearrange._level_radii))
        for space in (warped(n=3), Euclidean(3)):
            monkeypatch.setattr(type(space), "volume",
                                counted("volume", type(space).volume))
            params = SobolevParams(n=3, p=2.0, alpha=2.0)
            for label, u in curated_profiles()[:3]:
                calls.update(radii=0, volume=0)
                gn_quotient(space, u, params)
                assert calls == {"radii": 1, "volume": 1}, label

    def test_one_overflowing_exponent_raises(self):
        # 2^1e308 overflows; q = 2 beside it is finite
        with pytest.raises(DomainError, match=r"q=1e\+308"):
            rearrange._route_pairs(Euclidean(3), tent(height=2.0),
                                   (2.0, 1e308))
        with pytest.raises(DomainError, match=r"q=1e\+308"):
            lq_norm(Euclidean(3), tent(height=2.0), 1e308, 2.0)
        # the truncated extremal at n = 103: the direct route is 9.0e-72,
        # but V(r(t)) ~ r^103 overflows on the Cavalieri route alone, and
        # an inf against a finite direct value once passed the 1e-7 gate
        params = SobolevParams(103, 2.0)
        u, q = truncated_extremal(params), params.p_star
        cavalieri = rf"Cavalieri integral of \|u\|\^q at q={q!r}"
        with pytest.raises(DomainError, match=cavalieri):
            rearrange._route_pairs(Euclidean(103), u, [q])
        with pytest.raises(DomainError, match=cavalieri):
            lq_norm(Euclidean(103), u, q)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan, "2"])
    def test_bad_exponent_in_a_stack_is_named(self, bad):
        with pytest.raises(DomainError, match=f"got {bad!r}"):
            lq_norm(Euclidean(3), tent(), 2.0, bad, 3.0)

    def test_no_exponent_raises(self):
        with pytest.raises(DomainError, match="at least one"):
            lq_norm(Euclidean(3), tent())
        with pytest.raises(DomainError, match="at least one"):
            rearrange._route_pairs(Euclidean(3), tent(), ())

    def test_underflow_to_zero_raises(self):
        # (1e-200)^3 is 0 in double precision, beside q = 1: a norm of 0
        # for a nonzero profile would pass any upper bound
        with pytest.raises(DomainError, match=r"underflows.*q=3\.0"):
            lq_norm(Euclidean(3), tent(height=1e-200), 1.0, 3.0)
        zero = exact(_zero, _zero, np.linspace(0.0, 1.0, 5))
        assert lq_norm(Euclidean(3), zero, 2.0, 3.0) == (0.0, 0.0)

    @pytest.mark.parametrize("space", _stack_spaces(),
                             ids=lambda s: s.descriptor()["variant"])
    def test_zero_profile_has_zero_norms(self, space):
        # u = 0 has one level break: the Cavalieri route is an empty
        # rule, zero for each exponent of the stack
        zero = exact(_zero, _zero, np.linspace(0.0, 1.0, 5))
        qs = (0.5, 1.0, 2.0, 3.0, 7.5)
        assert rearrange._route_pairs(space, zero, qs) == [(0.0, 0.0)] * 5
        assert lq_norm(space, zero, *qs) == (0.0,) * 5
        assert lq_norm(space, zero, 2.0) == 0.0


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


class TestShortDecayLength:
    """On a warped product with decay length 1/beta, R' falls from
    pole_density^(-1/N) to AVR^(-1/N) within ~1/beta.  u*'s knots were
    the profile's nodes alone, so its first segment missed that fall: the
    rhs was off by up to 1.7e-4 at n = 2 and the suite failed from
    beta = 1e4 on.  The space's breaks are knots now."""

    # the bound with the space's breaks alone as knots: n = 2 kept 2.1e-7
    # on exp_2_3 at p = 3, its segment from the last break, 60/beta, to
    # the first node spanning a factor of ~200 (the bound now held is
    # test_rhs_with_factor_2_knots')
    @pytest.mark.parametrize("n,tol", [(2, 2.5e-7), (3, 1e-9)])
    @pytest.mark.parametrize("beta", [1e3, 1e4, 1e6, 1e10])
    def test_rhs_matches_gauss_oracle(self, n, tol, beta):
        for label, p, err, ratio in polya_against_oracle(n, beta):
            assert err <= tol, (label, p)
            assert ratio >= 1.0 - 1e-6, (label, p)

    # geometric knots cut every segment past the first to a factor 2: the
    # largest error left is 3.0e-9 (n = 2, beta = 1e4), and the ratio
    # holds to rounding (it was 1 - 2.1e-7 at n = 2, beta >= 1e6)
    @pytest.mark.parametrize("n,tol", [(2, 5e-9), (3, 1e-10)])
    @pytest.mark.parametrize("beta", [1e3, 1e4, 1e6, 1e10])
    def test_rhs_with_factor_2_knots(self, n, tol, beta):
        for label, p, err, ratio in polya_against_oracle(n, beta):
            assert err <= tol, (label, p)
            assert ratio >= 1.0 - 1e-12, (label, p)

    def test_oracle_matches_mpmath(self):
        u = dict(curated_profiles())["tent_1"]
        for n in (2, 3):
            want = warped_polya_rhs_oracle(
                n, 0.5, 1e3, lambda r: -1,
                np.linspace(0.0, 0.06, 4).tolist() + [1.0])
            assert warped_polya_rhs_gauss(
                n, 0.5, 1e3, u.deriv, u.r_grid, 2.0) == pytest.approx(
                    want, rel=1e-13, abs=0.0)


class TestLayerCake:
    def test_constant_function(self):
        space = warped(n=3, a=0.5, beta=2.0)
        val, vol = layer_cake_radial_integral(
            space, lambda r, _: (np.ones_like(r), np.zeros_like(r)), 4.0)
        assert vol == vol_ball(space, 4.0)
        assert val == pytest.approx(vol, rel=1e-10)

    def test_linear_euclidean(self):
        # int_{B(1)} |x| dx = 2 pi / 3 in the plane
        val = layer_cake_radial_integral(
            Euclidean(2), lambda r, _: (r, np.ones_like(r)), 1.0)[0]
        assert val == pytest.approx(2 * math.pi / 3.0, rel=1e-10)

    def test_quadratic_on_cone(self):
        # m_M int_0^1 r^2 r^2 dr = 2 pi / 5
        val = layer_cake_radial_integral(
            EuclideanCone(2, 2 * math.pi), lambda r, _: (r * r, 2.0 * r),
            1.0)[0]
        assert val == pytest.approx(2 * math.pi / 5.0, rel=1e-10)

    @pytest.mark.parametrize("n,a,beta,R", [(2, 0.7, 1.0, 5000.0),
                                            (2, 0.45, 2.5, 1e4),
                                            (3, 0.5, 1.0, 2e4)])
    def test_far_radius_on_warped_matches_composite_gauss(self, n, a, beta, R):
        # both quadratures must split where F turns affine; without it the
        # direct one was off by 1.3e-7 at n=2, a=0.7, R=5000
        space = warped(n=n, a=a, beta=beta)
        val = layer_cake_radial_integral(
            space, lambda r, _: ((1.0 - r / R) ** 2, -2.0 * (1.0 - r / R) / R),
            R)[0]
        x, w = np.polynomial.legendre.leggauss(20)
        edges = np.linspace(0.0, R, 4001)
        half = np.diff(edges)[:, None] / 2.0
        r = edges[:-1, None] + half * (x + 1.0)
        ref = np.sum(((1.0 - r / R) ** 2 * space.content(r)) * half * w)
        assert val == pytest.approx(ref, rel=1e-12)

    def test_domain(self):
        for R in (-1.0, np.array([1.0, -1.0]), np.array([])):
            with pytest.raises(DomainError):
                layer_cake_radial_integral(
                    Euclidean(2), lambda r, _: (r, np.ones_like(r)), R)

    @pytest.mark.parametrize("pair,name", [
        pytest.param(lambda r, _: (np.full_like(r, math.nan),
                                   np.zeros_like(r)),
                     "direct integral", id="nan"),
        pytest.param(lambda r, _: (np.full_like(r, math.inf),
                                   np.zeros_like(r)),
                     "direct integral", id="inf"),
        # one route alone: the slope route, or f(R) vol(B_R)
        pytest.param(lambda r, _: (np.ones_like(r), np.full_like(r, math.inf)),
                     "layer-cake integral", id="slope_inf"),
        pytest.param(lambda r, _: (np.where(r < 1.0, 1.0, math.inf),
                                   np.zeros_like(r)),
                     "layer cake value inf", id="inf_at_R"),
    ])
    def test_non_finite_integrand_raises(self, pair, name):
        # no comparison fails on NaN, and an inf on both routes agrees
        with pytest.raises(DomainError, match=name):
            layer_cake_radial_integral(Euclidean(3), pair, 1.0)

    def test_stacked_integrands_equal_single_calls(self):
        R = 7.0
        pairs = [lambda r, _: (np.exp(-r), -np.exp(-r)),
                 lambda r, _: ((1.0 - r / R) ** 2, -2.0 * (1.0 - r / R) / R),
                 lambda r, _: (1.0 / (1.0 + r * r),
                               -2.0 * r / (1.0 + r * r) ** 2)]

        def stacked(r, _):
            fs, slopes = zip(*(pair(r, _) for pair in pairs))
            return np.stack(fs), np.stack(slopes)

        for space in (warped(n=3, a=0.5, beta=1.0), Euclidean(2.5)):
            got = layer_cake_radial_integral(space, stacked, R)[0]
            assert got.tolist() == [
                layer_cake_radial_integral(space, pair, R)[0]
                for pair in pairs]

    def test_array_of_radii_equals_float_calls(self):
        # (1 - r/R)^2 on each node's own ball radius, stacked with e^-r;
        # the warped radii span several groups of nodes
        def stacked(r, R):
            return (np.stack([(1.0 - r / R) ** 2, np.exp(-r)]),
                    np.stack([-2.0 * (1.0 - r / R) / R, -np.exp(-r)]))

        radii = np.geomspace(2.0, 2000.0, 8)
        for space in (warped(n=3, a=0.5, beta=1.0), Euclidean(2.5)):
            got, vols = layer_cake_radial_integral(space, stacked, radii)
            assert got.shape == (2, radii.size)
            for k, R in enumerate(radii.tolist()):
                alone, vol = layer_cake_radial_integral(space, stacked, R)
                assert got[:, k].tolist() == alone.tolist()
                assert vols[k] == vol == vol_ball(space, R)
            one = layer_cake_radial_integral(space, stacked, radii[:1])[0]
            assert one.tolist() == got[:, :1].tolist()
        # int_{B(R)} (1 - |x|/R)^2 dx = pi R^2 / 6 in the plane
        got = layer_cake_radial_integral(Euclidean(2), stacked, radii)[0][0]
        assert got == pytest.approx(math.pi * radii ** 2 / 6.0, rel=1e-12)

    def test_stack_with_a_wrong_slope_raises(self):
        # the 1e-8 cross-check holds for each integrand of a stack
        def stacked(r, _):
            return (np.stack([r, r * r]),
                    np.stack([np.ones_like(r), 2.1 * r]))

        with pytest.raises(InvariantViolation, match="disagrees"):
            layer_cake_radial_integral(warped(n=2), stacked, 3.0)


def _omega_mp(N):
    return mp.pi ** (mp.mpf(N) / 2) / mp.gamma(mp.mpf(N) / 2 + 1)


class TestGradingTowardZero:
    """The r-integrals grade toward r = 0 to ceil(log2(S / r_1)) +
    ceil(54 / N) dyadic levels (at most 100) instead of 100: a panel left
    at 0 holds at most 2^-54 of the measure of [0, r_1]."""

    def test_layer_cake_nodes_on_euclidean_3(self):
        # [0, 2] in 16 panels (r_1 = 1/8): 4 levels at or above r_1 and
        # 18 below it, 34 panels of 12 nodes; 100 levels took 112 panels
        sizes = []

        def pair(r, _):
            sizes.append(r.size)
            return np.ones_like(r), np.zeros_like(r)

        layer_cake_radial_integral(Euclidean(3), pair, 2.0)
        assert sizes == [408, 1]

    @pytest.mark.parametrize("N", [1.05, 1.5, 2.5, 3.0, 13.0, 60.0])
    def test_direct_routes_match_mpmath(self, N):
        space, om = Euclidean(N), _omega_mp(N)
        # a tent: |u'|^p = 1 on the unit ball, and (1 - r)^q against
        # N omega_N r^(N-1), a beta function
        u = tent()
        assert grad_lp_norm(space, u, 1.5) == pytest.approx(
            float(om ** (1 / mp.mpf(1.5))), rel=1e-11)
        direct = rearrange._route_pairs(space, u, [3.5])[0][0]
        assert direct == pytest.approx(float(N * om * mp.beta(N, 4.5)),
                                       rel=1e-11)
        # u'(0) = 0: r = 0 is a flat node, graded to the same depth
        g = gaussian()
        grad = N * om * mp.quad(
            lambda r: (2 * r * mp.exp(-r * r)) ** 1.5 * r ** (N - 1), [0, 3])
        assert grad_lp_norm(space, g, 1.5) == pytest.approx(
            float(grad ** (1 / mp.mpf(1.5))), rel=1e-11)
        # the layer cake of e^-r and of (1 - r/R)^2 on B(R): N omega_N
        # gamma(N, R) and N omega_N R^N B(N, 3)
        R = 2.0

        def stacked(r, _):
            return (np.stack([np.exp(-r), (1.0 - r / R) ** 2]),
                    np.stack([-np.exp(-r), -2.0 * (1.0 - r / R) / R]))

        got = layer_cake_radial_integral(space, stacked, R)[0]
        want = [N * om * mp.gammainc(N, 0, R), N * om * R ** N * mp.beta(N, 3)]
        assert got.tolist() == pytest.approx([float(w) for w in want],
                                             rel=1e-10)
