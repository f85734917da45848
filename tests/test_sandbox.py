import numpy as np
import pytest

from isosharp.errors import DomainError, InvariantViolation
from isosharp.sandbox import (
    BmReport,
    FiniteMetricMeasureSpace,
    InterpolantQuery,
    brunn_minkowski_report,
    eps_neighborhood,
    from_edges,
    grid_graph,
    interpolant_set,
    path_graph,
    random_space,
    z_inclusion_check,
)


class TestSpaceConstruction:
    def test_path3_distances(self):
        sp = path_graph(3)
        assert sp.diameter == 2.0
        assert sp.dist[0, 2] == 2.0
        assert sp.integer_metric
        assert sp.default_slack == 0.0

    def test_triangle_violation_rejected(self):
        bad = [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
        with pytest.raises(InvariantViolation):
            FiniteMetricMeasureSpace(range(3), bad)
        sp = FiniteMetricMeasureSpace(range(3), bad, strict=False)
        assert sp.n_points == 3

    def test_asymmetry_and_zero_rejected(self):
        with pytest.raises(InvariantViolation):
            FiniteMetricMeasureSpace(
                range(2), [[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(InvariantViolation):
            FiniteMetricMeasureSpace(
                range(2), [[0.0, 0.0], [0.0, 0.0]])

    def test_weights_must_be_positive(self):
        with pytest.raises(DomainError):
            FiniteMetricMeasureSpace(
                range(2), [[0.0, 1.0], [1.0, 0.0]], weights=[1.0, 0.0])

    def test_unknown_point_lookup(self):
        with pytest.raises(DomainError):
            path_graph(3).index(99)

    def test_disconnected_edge_list_rejected(self):
        with pytest.raises(DomainError):
            from_edges(range(4), [(0, 1, 1.0), (2, 3, 1.0)])


class TestInterpolants:
    def test_s_zero_returns_a(self):
        sp = path_graph(5)
        q = InterpolantQuery(A=(0, 1), B=(3, 4), s=0.0, slack=0.0)
        assert interpolant_set(sp, q) == (0, 1)

    def test_s_one_returns_b(self):
        sp = path_graph(5)
        q = InterpolantQuery(A=(0, 1), B=(3, 4), s=1.0, slack=0.0)
        assert interpolant_set(sp, q) == (3, 4)

    def test_path3_midpoint(self):
        sp = path_graph(3)
        q = InterpolantQuery(A=(0,), B=(2,), s=0.5, slack=0.0)
        assert interpolant_set(sp, q) == (1,)

    def test_every_hit_lies_on_a_geodesic(self):
        # d(x,z) + d(z,y) = d(x,y) within 2 slack for some witness pair
        sp = random_space(11)
        slack = sp.default_slack
        A = sp.points[:4]
        B = sp.points[-4:]
        for s in (0.25, 0.5, 0.8):
            z_set = interpolant_set(sp, InterpolantQuery(A, B, s, slack))
            for z in z_set:
                iz = sp.index(z)
                gaps = [abs(sp.dist[sp.index(x), iz]
                            + sp.dist[iz, sp.index(y)]
                            - sp.dist[sp.index(x), sp.index(y)])
                        for x in A for y in B]
                assert min(gaps) <= 2.0 * slack

    def test_query_validation(self):
        with pytest.raises(DomainError):
            InterpolantQuery(A=(), B=(1,), s=0.5)
        with pytest.raises(DomainError):
            InterpolantQuery(A=(0,), B=(1,), s=1.5)
        with pytest.raises(DomainError):
            InterpolantQuery(A=(0,), B=(1,), s=0.5, slack=-1.0)


class TestNeighborhood:
    def test_small_eps_is_identity(self):
        sp = path_graph(4)
        assert eps_neighborhood(sp, (1,), 1.0) == (1,)    # strict <
        assert eps_neighborhood(sp, (1,), 0.0) == (1,)

    def test_large_eps_is_everything(self):
        sp = path_graph(4)
        assert eps_neighborhood(sp, (0,), 4.0) == (0, 1, 2, 3)

    def test_grid_corner(self):
        sp = grid_graph(5, 5)
        assert eps_neighborhood(sp, (0,), 1.5) == (0, 1, 5)

    def test_monotone_in_eps_and_a(self):
        sp = random_space(3)
        rng = np.random.default_rng(5)
        A = tuple(sp.points[:3])
        bigger = tuple(sp.points[:6])
        for _ in range(20):
            e1, e2 = sorted(rng.uniform(0.0, sp.diameter, size=2))
            small = set(eps_neighborhood(sp, A, e1))
            assert small <= set(eps_neighborhood(sp, A, e2))
            assert small <= set(eps_neighborhood(sp, bigger, e1))

    def test_negative_eps_rejected(self):
        with pytest.raises(DomainError):
            eps_neighborhood(path_graph(3), (0,), -0.5)


class TestZInclusion:
    def test_s_zero_trivial_pass(self):
        sp = path_graph(5)
        res = z_inclusion_check(sp, (0, 1), 0, R=2.0, s=0.0)
        assert res.passed
        assert set(res.z_set) <= {0, 1}

    def test_grid_instance_with_witnesses(self):
        sp = grid_graph(4, 4)
        res = z_inclusion_check(sp, (0, 1), 0, R=2.5, s=0.5)
        assert res.passed
        assert res.d0 == 1.0
        assert res.radius == pytest.approx(1.75)
        assert set(res.z_set) >= {0, 1, 4, 5}
        assert res.violating is None

    def test_random_graphs_pass_with_default_slack(self):
        # fifty random weighted instances, random Omega / x0 / R, s grid
        rng = np.random.default_rng(2024)
        for seed in range(50):
            sp = random_space(seed)
            n = sp.n_points
            size = int(rng.integers(1, max(2, n // 3)))
            omega = tuple(int(i) for i in
                          rng.choice(n, size=size, replace=False))
            x0 = int(omega[0])
            R = float(rng.uniform(0.3, 1.0)) * sp.diameter
            s = float(rng.choice([0.25, 0.5, 0.75]))
            res = z_inclusion_check(sp, omega, x0, R, s,
                                    interpolant_slack=sp.default_slack)
            assert res.passed, (seed, s)

    def test_zero_slack_batch(self):
        for seed in range(30):
            sp = random_space(seed + 1000)
            omega = sp.points[:3]
            res = z_inclusion_check(sp, omega, omega[0],
                                    R=0.6 * sp.diameter, s=0.5)
            assert res.passed

    def test_adversarial_slack_breaks_inclusion(self):
        # inflating the interpolant slack admits far-away z's: the
        # constant s(d0+R) is tight
        sp = path_graph(5)
        res = z_inclusion_check(sp, (0,), 0, R=2.0, s=0.5,
                                interpolant_slack=1.0)
        assert not res.passed
        assert res.violating is not None
        assert res.violating not in res.neighborhood

    def test_x0_outside_omega_rejected(self):
        with pytest.raises(DomainError):
            z_inclusion_check(path_graph(4), (0, 1), 3, R=1.0, s=0.5)
        with pytest.raises(DomainError):
            z_inclusion_check(path_graph(4), (0,), 0, R=0.0, s=0.5)


class TestBrunnMinkowski:
    def test_a_equals_b_is_flat(self):
        box = [(0.25, 0.5), (0.25, 0.5)]
        for s in (0.0, 0.3, 0.5, 1.0):
            rep = brunn_minkowski_report(2, 1 / 32, box, box, s)
            assert rep.measure_z == rep.measure_a
            assert rep.deficit == pytest.approx(0.0, abs=1e-14)

    def test_1d_intervals_exact(self):
        # equal lengths: additivity of lengths is lattice-exact at any s
        a, b = [(0.0, 0.25)], [(0.5, 0.75)]
        for s in (0.0, 0.3, 0.5, 0.77, 1.0):
            rep = brunn_minkowski_report(1, 1 / 64, a, b, s)
            assert rep.deficit == pytest.approx(0.0, abs=1e-14)
        # unequal lengths stay exact when s keeps the endpoints integral
        rep = brunn_minkowski_report(1, 1 / 64, [(0.0, 0.25)],
                                     [(0.5, 0.875)], 0.5)
        assert rep.deficit == pytest.approx(0.0, abs=1e-14)

    def test_2d_squares_deficit_improves_under_refinement(self):
        # endpoint rounding errs low at h=1/64 here; refinement kills it
        a = [(0.0, 0.25), (0.0, 0.25)]
        b = [(0.0, 0.640625), (0.0, 0.640625)]
        violations = []
        for k in (64, 128, 256):
            rep = brunn_minkowski_report(2, 1.0 / k, a, b, 0.25)
            violations.append(max(0.0, -rep.deficit))
        assert violations[0] > 0.0
        assert -violations[0] >= -0.05
        assert violations[1] <= violations[0]
        assert violations[2] <= violations[1]

    def test_parity_aligned_squares_stay_exact(self):
        # s = 1/2 with dyadic box edges keeps every endpoint on the
        # lattice, so the deficit is 0 at every refinement level
        a = [(0.0, 0.25), (0.0, 0.25)]
        b = [(0.5, 0.75), (0.5, 0.75)]
        for k in (32, 64, 128, 256):
            rep = brunn_minkowski_report(2, 1.0 / k, a, b, 0.5)
            assert rep.deficit == pytest.approx(0.0, abs=1e-14)

    def test_deficit_obeys_ch_contract(self):
        # misaligned s makes the signed deficit oscillate within O(h);
        # the contract is deficit >= -C h with stable C
        a = [(0.0, 0.25), (0.0, 0.25)]
        b = [(0.5, 0.875), (0.5, 0.875)]
        for k in (64, 128, 256, 512):
            rep = brunn_minkowski_report(2, 1.0 / k, a, b, 0.3)
            assert rep.deficit >= -0.5 / k
            assert rep.c_estimate <= 0.5

    def test_counting_measure_bookkeeping(self):
        rep = brunn_minkowski_report(1, 0.25, [(0.0, 0.5)], [(0.5, 1.0)], 0.5)
        # 3 lattice points in each interval at h=1/4
        assert rep.measure_a == pytest.approx(0.75)
        assert rep.measure_b == pytest.approx(0.75)

    def test_validation(self):
        with pytest.raises(DomainError):
            brunn_minkowski_report(2, 0.3, [(0, 1)] * 2, [(0, 1)] * 2, 0.5)
        with pytest.raises(DomainError):
            brunn_minkowski_report(2, 1 / 32, [(0.5, 0.25)] * 2,
                                   [(0, 1)] * 2, 0.5)
        with pytest.raises(DomainError):
            brunn_minkowski_report(1, 1 / 32, [(0, 1)], [(0, 1)], 1.5)
        # finer than 2^-10 the pairwise lattice table outgrows ~8 MB an axis
        with pytest.raises(DomainError):
            brunn_minkowski_report(1, 2.0 ** -11, [(0, 1)], [(0, 1)], 0.5)


class TestSerialization:
    def test_path_round_trip(self, tmp_path):
        sp = path_graph(3)
        f = tmp_path / "edges.csv"
        sp.to_edge_csv(f)
        loaded = FiniteMetricMeasureSpace.from_edge_csv(f)
        assert loaded.n_points == 3
        assert np.array_equal(loaded.dist, sp.dist)

    def test_random_space_round_trip(self, tmp_path):
        sp = random_space(42)
        f = tmp_path / "space.csv"
        sp.to_edge_csv(f)
        loaded = FiniteMetricMeasureSpace.from_edge_csv(f)
        assert loaded.n_points == sp.n_points
        for i, p in enumerate(sp.points):
            for j, q in enumerate(sp.points):
                d = loaded.dist[loaded.index(str(p)), loaded.index(str(q))]
                assert d == pytest.approx(sp.dist[i, j], abs=1e-12)

    def test_malformed_csv_rejected(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("a,b\n0,1\n")
        with pytest.raises(DomainError):
            FiniteMetricMeasureSpace.from_edge_csv(f)


def test_random_space_deterministic():
    a = random_space(7)
    b = random_space(7)
    assert a.points == b.points
    assert np.array_equal(a.dist, b.dist)
