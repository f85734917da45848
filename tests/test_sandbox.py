import math

import numpy as np
import pytest

from isosharp.errors import DomainError, InvariantViolation
from isosharp.sandbox import (
    BmReport,
    FiniteMetricMeasureSpace,
    _shortest_paths,
    brunn_minkowski_report,
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

    def test_equality_is_identity_and_spaces_hash(self):
        # comparing the ndarray fields raised; a space equals only itself
        sp, other = path_graph(3), path_graph(3)
        assert sp == sp and sp != other
        assert len({sp, other, sp}) == 2
        assert hash(sp) == hash(sp)

    def test_triangle_violation_rejected(self):
        bad = [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
        with pytest.raises(InvariantViolation):
            FiniteMetricMeasureSpace(bad)

    def test_asymmetry_and_zero_rejected(self):
        with pytest.raises(InvariantViolation):
            FiniteMetricMeasureSpace([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(InvariantViolation):
            FiniteMetricMeasureSpace([[0.0, 0.0], [0.0, 0.0]])

    def test_unknown_point_lookup(self):
        with pytest.raises(DomainError):
            path_graph(3).index(99)

    @pytest.mark.parametrize("i", [-1, 3, 1.5])
    def test_index_is_an_integer_in_range(self, i):
        sp = path_graph(3)
        assert sp.index(2) == 2
        with pytest.raises(DomainError, match="unknown point id"):
            sp.index(i)

    def test_disconnected_edge_list_rejected(self):
        W = np.full((4, 4), np.inf)
        np.fill_diagonal(W, 0.0)
        W[0, 1] = W[1, 0] = W[2, 3] = W[3, 2] = 1.0
        with pytest.raises(DomainError, match="not connected"):
            _shortest_paths(W)

    def test_triangle_violation_in_a_large_space_rejected(self):
        # 300 points at mutual distance 2, the last one at distance 1 from
        # all: d(0, 1) = 2.5 breaks the triangle only through y = 299
        d = np.full((300, 300), 2.0)
        d[-1] = d[:, -1] = 1.0
        np.fill_diagonal(d, 0.0)
        d[0, 1] = d[1, 0] = 2.5
        with pytest.raises(InvariantViolation, match="triangle"):
            FiniteMetricMeasureSpace(d)

    def test_closure_matches_scipy_floyd_warshall(self, monkeypatch):
        # scipy's Floyd-Warshall on the same edges is the reference, bit
        # for bit; its Dijkstra adds each path's weights in another order
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import shortest_path

        import isosharp.sandbox as sandbox
        built = []

        def record(W):
            built.append(W.copy())
            return _shortest_paths(W)

        monkeypatch.setattr(sandbox, "_shortest_paths", record)
        for seed in range(200):
            sp = random_space(seed)
            W = built[-1]
            i, j = np.nonzero(np.isfinite(W) & (W > 0.0))
            graph = csr_matrix((W[i, j], (i, j)), shape=W.shape)
            ref = shortest_path(graph, method="FW", directed=False)
            assert np.array_equal(sp.dist, ref), seed
            ref = shortest_path(graph, method="D", directed=False)
            assert np.allclose(sp.dist, ref, rtol=4e-15, atol=0.0), seed


class TestInterpolants:
    def test_s_zero_returns_a(self):
        sp = path_graph(5)
        assert interpolant_set(sp, (0, 1), (3, 4), 0.0, 0.0) == (0, 1)

    def test_s_one_returns_b(self):
        sp = path_graph(5)
        assert interpolant_set(sp, (0, 1), (3, 4), 1.0, 0.0) == (3, 4)

    def test_path3_midpoint(self):
        sp = path_graph(3)
        assert interpolant_set(sp, (0,), (2,), 0.5, 0.0) == (1,)

    def test_every_hit_lies_on_a_geodesic(self):
        # d(x,z) + d(z,y) = d(x,y) within 2 slack for some witness pair
        sp = random_space(11)
        slack = 1e-9 * sp.diameter     # the metric is real-valued
        A = range(4)
        B = range(sp.n_points - 4, sp.n_points)
        for s in (0.25, 0.5, 0.8):
            z_set = interpolant_set(sp, A, B, s, slack)
            for z in z_set:
                gaps = [abs(sp.dist[x, z] + sp.dist[z, y] - sp.dist[x, y])
                        for x in A for y in B]
                assert min(gaps) <= 2.0 * slack

    def test_query_validation(self):
        sp = path_graph(3)
        with pytest.raises(DomainError):
            interpolant_set(sp, (), (1,), 0.5, 0.0)
        with pytest.raises(DomainError):
            interpolant_set(sp, (0,), (1,), 1.5, 0.0)
        with pytest.raises(DomainError):
            interpolant_set(sp, (0,), (1,), 0.5, -1.0)


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

    def test_random_graphs_pass_with_relative_slack(self):
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
                                    interpolant_slack=1e-9 * sp.diameter)
            assert res.passed, (seed, s)

    def test_zero_slack_batch(self):
        for seed in range(30):
            sp = random_space(seed + 1000)
            res = z_inclusion_check(sp, (0, 1, 2), 0,
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
        # s (d0 + R) = 0 * inf has no value
        with pytest.raises(DomainError):
            z_inclusion_check(path_graph(4), (0,), 0, R=math.inf, s=0.0)

    def test_neighborhood_is_closed(self):
        # radius s (d0 + R) = 1 on a unit-step path: the point at distance
        # exactly 1 from Omega belongs to the neighbourhood, the next not
        res = z_inclusion_check(path_graph(5), (0,), 0, R=2.0, s=0.5)
        assert res.radius == 1.0
        assert res.neighborhood == (0, 1)
        res = z_inclusion_check(grid_graph(5, 5), (0, 6), 0, R=1.0, s=0.5)
        assert res.neighborhood == tuple(sorted(
            i for i in range(25)
            if min(abs(i // 5 - j // 5) + abs(i % 5 - j % 5)
                   for j in (0, 6)) <= res.radius))


class TestBrunnMinkowski:
    def test_a_equals_b_is_flat(self):
        edge = (0.25, 0.5)
        for s in (0.0, 0.3, 0.5, 1.0):
            rep = brunn_minkowski_report(2, 1 / 32, edge, edge, s)
            assert rep.measure_z == rep.measure_a
            assert rep.deficit == pytest.approx(0.0, abs=1e-14)

    def test_1d_intervals_exact(self):
        # equal lengths: additivity of lengths is lattice-exact at any s
        a, b = (0.0, 0.25), (0.5, 0.75)
        for s in (0.0, 0.3, 0.5, 0.77, 1.0):
            rep = brunn_minkowski_report(1, 1 / 64, a, b, s)
            assert rep.deficit == pytest.approx(0.0, abs=1e-14)
        # unequal lengths stay exact when s keeps the endpoints integral
        rep = brunn_minkowski_report(1, 1 / 64, (0.0, 0.25), (0.5, 0.875),
                                     0.5)
        assert rep.deficit == pytest.approx(0.0, abs=1e-14)

    def test_2d_squares_deficit_improves_under_refinement(self):
        # endpoint rounding errs low at h=1/64 here; refinement kills it
        a, b = (0.0, 0.25), (0.0, 0.640625)
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
        a, b = (0.0, 0.25), (0.5, 0.75)
        for k in (32, 64, 128, 256):
            rep = brunn_minkowski_report(2, 1.0 / k, a, b, 0.5)
            assert rep.deficit == pytest.approx(0.0, abs=1e-14)

    def test_deficit_obeys_ch_contract(self):
        # misaligned s makes the signed deficit oscillate within O(h);
        # the contract is deficit >= -C h with stable C
        a, b = (0.0, 0.25), (0.5, 0.875)
        for k in (64, 128, 256, 512):
            rep = brunn_minkowski_report(2, 1.0 / k, a, b, 0.3)
            assert rep.deficit >= -0.5 / k
            assert rep.c_estimate <= 0.5

    def test_counting_measure_bookkeeping(self):
        rep = brunn_minkowski_report(1, 0.25, (0.0, 0.5), (0.5, 1.0), 0.5)
        # 3 lattice points in each interval at h=1/4
        assert rep.measure_a == pytest.approx(0.75)
        assert rep.measure_b == pytest.approx(0.75)

    def test_validation(self):
        with pytest.raises(DomainError):
            brunn_minkowski_report(2, 0.3, (0, 1), (0, 1), 0.5)
        with pytest.raises(DomainError):
            brunn_minkowski_report(2, 1 / 32, (0.5, 0.25), (0, 1), 0.5)
        with pytest.raises(DomainError):
            brunn_minkowski_report(1, 1 / 32, (0, 1), (0, 1), 1.5)
        # finer than 2^-10 the pairwise lattice table outgrows ~8 MB an axis
        with pytest.raises(DomainError):
            brunn_minkowski_report(1, 2.0 ** -11, (0, 1), (0, 1), 0.5)

    def test_measures_outside_the_normal_doubles_rejected(self):
        # 64^-170 = 2^-1020 is still normal, 64^-171 is not
        rep = brunn_minkowski_report(170, 1 / 64, (0, 0.25), (0.5, 0.75),
                                     0.5)
        assert rep.measure_a == 17 ** 170 * 64.0 ** -170
        with pytest.raises(DomainError, match="cell volume"):
            brunn_minkowski_report(171, 1 / 64, (0, 0.25), (0.5, 0.75), 0.5)
        # a normal cell 2^-700, but 3^700 lattice points overflow a double
        with pytest.raises(DomainError, match="lattice count"):
            brunn_minkowski_report(700, 0.5, (0, 1), (0, 1), 0.5)


class TestSerialization:
    def test_path_round_trip(self):
        # a metric is its own shortest-path closure
        sp = path_graph(3)
        assert np.array_equal(_shortest_paths(sp.dist), sp.dist)

    def test_random_space_round_trip(self):
        sp = random_space(42)
        assert np.allclose(_shortest_paths(sp.dist), sp.dist,
                           rtol=0.0, atol=1e-12)

    def test_long_path_csv_matches_scipy_floyd_warshall(self):
        # the longest shortest path has n - 1 hops, and the closure still
        # needs only n x n arrays
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import shortest_path

        n = 400
        w = np.random.default_rng(7).uniform(1.0, 2.0, n - 1)
        i = np.arange(n - 1)
        W = np.full((n, n), np.inf)
        np.fill_diagonal(W, 0.0)
        W[i, i + 1] = W[i + 1, i] = w
        graph = csr_matrix((w, (i, i + 1)), shape=(n, n))
        dist = _shortest_paths(W)
        ref = shortest_path(graph, method="FW", directed=False)
        assert np.array_equal(dist, ref)
        ref = shortest_path(graph, method="D", directed=False)
        assert np.allclose(dist, ref, rtol=4e-15, atol=0.0)


def test_random_space_deterministic():
    a = random_space(7)
    b = random_space(7)
    assert np.array_equal(a.dist, b.dist)


# the loop forms that interpolant_set and random_space vectorize: the same
# float expressions and the same generator stream, so results are equal

def _interpolant_set_loop(space, A, B, s, slack):
    hit = np.zeros(space.n_points, dtype=bool)
    d = space.dist
    for x in A:
        for y in B:
            dxy = d[x, y]
            hit |= ((np.abs(d[x] - s * dxy) <= slack)
                    & (np.abs(d[y] - (1.0 - s) * dxy) <= slack))
    return tuple(int(i) for i in np.flatnonzero(hit))


def _random_space_per_edge(seed):
    """random_space(seed).dist with one weight drawn per edge."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 61))
    order = rng.permutation(n)
    edges = {(min(a, b), max(a, b)) for a, b in zip(order, order[1:])}
    density = rng.uniform(0.05, 0.4)
    mask = rng.random((n, n)) < density
    for i in range(n):
        for j in range(i + 1, n):
            if mask[i, j]:
                edges.add((i, j))
    W = np.full((n, n), np.inf)
    np.fill_diagonal(W, 0.0)
    for u, v in sorted(edges):
        W[u, v] = W[v, u] = rng.uniform(1.0, 2.0)
    return _shortest_paths(W)


class TestVectorizedMatchesLoops:
    def test_random_space_matches_per_edge_draws(self):
        for seed in range(301):
            assert np.array_equal(random_space(seed).dist,
                                  _random_space_per_edge(seed)), seed

    def test_interpolant_set_matches_triple_loop(self):
        rng = np.random.default_rng(2024)
        # integer metrics put interpolants exactly on the equalities
        spaces = [random_space(seed) for seed in range(25)] + [
            path_graph(7), grid_graph(4, 5)]
        for sp in spaces:
            for _ in range(6):
                A = tuple(rng.choice(sp.n_points, size=rng.integers(1, 6),
                                     replace=False).tolist())
                B = tuple(rng.choice(sp.n_points, size=rng.integers(1, 6),
                                     replace=False).tolist())
                for s in (0.0, 1.0, 0.5, float(rng.uniform(0.05, 0.95))):
                    for slack in (0.0, 1e-12 * sp.diameter,
                                  float(rng.uniform(0.0, 0.3))):
                        assert (interpolant_set(sp, A, B, s, slack)
                                == _interpolant_set_loop(sp, A, B, s, slack))
