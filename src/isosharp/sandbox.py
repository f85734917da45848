"""Finite-metric-space laboratory for the interpolation lemmas.

Brute-force checks of the purely metric facts the curvature arguments
lean on: interpolant sets between two subsets, epsilon-neighborhoods,
and the inclusion of s-interpolants of (Omega, ball) in the blown-up
neighborhood of Omega.  Discrete spaces carry no curvature condition,
so the Brunn-Minkowski comparison is reported as a lattice refinement
trend, never asserted as a hard invariant.

All loops are pure over immutable space data and deterministic for a
fixed seed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from .errors import DomainError, InvariantViolation

_TRI_SLACK = 1e-12    # relative slack for float path-sum triangle checks
# finest lattice: one axis pairs up to (1/h + 1)^2 points, 8 MB of doubles
_MIN_SPACING = 2.0 ** -10


@dataclass(frozen=True)
class FiniteMetricMeasureSpace:
    """(points, dist, weights): a metric measure space at finite scale.

    dist must be symmetric, zero exactly on the diagonal, and satisfy
    the triangle inequality; weights are positive reals per point.
    strict=False skips the metric validation so deliberately broken
    instances can exercise the failure paths.
    """

    points: tuple
    dist: np.ndarray
    weights: np.ndarray
    strict: bool = True

    def __init__(self, points, dist, weights=None, strict=True):
        pts = tuple(points)
        d = np.array(dist, dtype=float)
        w = (np.ones(len(pts)) if weights is None
             else np.array(weights, dtype=float))
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "dist", d)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "strict", bool(strict))
        if len(pts) == 0:
            raise DomainError("a space needs at least one point")
        if len(set(pts)) != len(pts):
            raise DomainError("point ids must be unique")
        if d.shape != (len(pts), len(pts)):
            raise DomainError(
                f"distance matrix shape {d.shape} does not match "
                f"{len(pts)} points")
        if w.shape != (len(pts),) or not np.all(w > 0.0):
            raise DomainError("weights must be positive, one per point")
        if not self.strict:
            return
        if not np.all(np.isfinite(d)):
            raise DomainError("distances must be finite")
        if np.any(np.diag(d) != 0.0):
            raise InvariantViolation("nonzero diagonal in distance matrix")
        if not np.array_equal(d, d.T):
            raise InvariantViolation("distance matrix is not symmetric")
        off = d + np.diag(np.full(len(pts), np.inf))
        if len(pts) > 1 and not np.all(off[~np.isinf(off)] > 0.0):
            raise InvariantViolation("dist(x,y)=0 for distinct points")
        slack = _TRI_SLACK * max(float(d.max()), 1.0)
        # d(x,z) <= d(x,y) + d(y,z) for all triples, vectorized
        through = d[:, :, None] + d[None, :, :]
        worst = float((d[:, None, :] - through).max())
        if worst > slack:
            raise InvariantViolation(
                f"triangle inequality violated by {worst:g}")

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def diameter(self) -> float:
        return float(self.dist.max())

    @property
    def integer_metric(self) -> bool:
        return bool(np.all(self.dist == np.round(self.dist)))

    @property
    def default_slack(self) -> float:
        """0 on integer graph metrics, 1e-9 diam on real-valued ones."""
        return 0.0 if self.integer_metric else 1e-9 * self.diameter

    def index(self, label) -> int:
        try:
            return self.points.index(label)
        except ValueError:
            raise DomainError(f"unknown point id {label!r}") from None

    def to_edge_csv(self, path) -> None:
        """Complete upper-triangle edge list; loadable by from_edge_csv."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["u", "v", "weight"])
            for i in range(self.n_points):
                for j in range(i + 1, self.n_points):
                    writer.writerow([self.points[i], self.points[j],
                                     repr(float(self.dist[i, j]))])

    @classmethod
    def from_edge_csv(cls, path) -> "FiniteMetricMeasureSpace":
        """Builds the shortest-path metric closure of an edge list."""
        edges = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if [h.strip() for h in header] != ["u", "v", "weight"]:
                raise DomainError(f"expected header u,v,weight, got {header}")
            for row in reader:
                if not row:
                    continue
                if len(row) != 3:
                    raise DomainError(f"malformed edge row {row}")
                edges.append((row[0].strip(), row[1].strip(), float(row[2])))
        labels = sorted({u for u, _, _ in edges} | {v for _, v, _ in edges})
        if not labels:
            raise DomainError("edge list is empty")
        return from_edges(labels, [(u, v, w) for u, v, w in edges])


def from_edges(points, edges) -> FiniteMetricMeasureSpace:
    """Space whose metric is the shortest-path closure of weighted edges."""
    pts = list(points)
    idx = {p: i for i, p in enumerate(pts)}
    n = len(pts)
    rows, cols, data = [], [], []
    for u, v, w in edges:
        if w <= 0.0:
            raise DomainError(f"edge weight must be positive, got {w!r}")
        i, j = idx[u], idx[v]
        if i == j:
            raise DomainError(f"self loop at {u!r}")
        rows += [i, j]
        cols += [j, i]
        data += [w, w]
    graph = csr_matrix((data, (rows, cols)), shape=(n, n))
    dist = shortest_path(graph, method="D", directed=False)
    if np.any(np.isinf(dist)):
        raise DomainError("edge list is not connected")
    # per-source float accumulation can differ by an ulp across directions
    dist = np.minimum(dist, dist.T)
    return FiniteMetricMeasureSpace(pts, dist)


def path_graph(k: int) -> FiniteMetricMeasureSpace:
    """Unit-edge path 0 - 1 - ... - (k-1)."""
    if not (isinstance(k, int) and k >= 2):
        raise DomainError(f"path graph needs an integer k >= 2, got {k!r}")
    i = np.arange(k)
    return FiniteMetricMeasureSpace(
        range(k), np.abs(i[:, None] - i[None, :]).astype(float))


def grid_graph(rows: int, cols: int) -> FiniteMetricMeasureSpace:
    """Unit grid graph, ids row-major 0..rows*cols-1, L1 metric."""
    if not (isinstance(rows, int) and isinstance(cols, int)
            and rows >= 1 and cols >= 1 and rows * cols >= 2):
        raise DomainError("grid graph needs at least two nodes")
    r = np.arange(rows * cols) // cols
    c = np.arange(rows * cols) % cols
    dist = (np.abs(r[:, None] - r[None, :])
            + np.abs(c[:, None] - c[None, :])).astype(float)
    return FiniteMetricMeasureSpace(range(rows * cols), dist)


def random_space(seed: int, max_nodes: int = 60) -> FiniteMetricMeasureSpace:
    """Connected random graph, uniform [1,2] edge weights, shortest paths.

    A random Hamiltonian path guarantees connectivity; extra edges are
    dropped in with a random density.  Deterministic per seed.
    """
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise DomainError(f"seed must be a nonnegative integer, got {seed!r}")
    if max_nodes < 2:
        raise DomainError("need room for at least two nodes")
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, max_nodes + 1)) if max_nodes >= 8 else max_nodes
    order = rng.permutation(n)
    edges = {(min(a, b), max(a, b)) for a, b in zip(order, order[1:])}
    density = rng.uniform(0.05, 0.4)
    mask = rng.random((n, n)) < density
    for i in range(n):
        for j in range(i + 1, n):
            if mask[i, j]:
                edges.add((i, j))
    weighted = [(int(u), int(v), float(rng.uniform(1.0, 2.0)))
                for u, v in sorted(edges)]
    return from_edges(range(n), weighted)


@dataclass(frozen=True)
class InterpolantQuery:
    """Endpoints A, B, interpolation parameter s, equality slack.

    slack=None resolves to the space's default (0 on integer metrics,
    1e-9 diameter otherwise) when the query runs.
    """

    A: tuple
    B: tuple
    s: float
    slack: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "A", tuple(self.A))
        object.__setattr__(self, "B", tuple(self.B))
        if not self.A or not self.B:
            raise DomainError("A and B must be nonempty")
        if not 0.0 <= self.s <= 1.0:
            raise DomainError(f"s must lie in [0,1], got {self.s!r}")
        if self.slack is not None and not self.slack >= 0.0:
            raise DomainError(f"slack must be nonnegative, got {self.slack!r}")


def interpolant_set(space: FiniteMetricMeasureSpace,
                    query: InterpolantQuery) -> tuple:
    """All z with d(x,z) = s d(x,y) and d(z,y) = (1-s) d(x,y), some x,y.

    Exact brute force over A x B x M with both equalities within the
    query slack.  Returned in point order.
    """
    slack = space.default_slack if query.slack is None else query.slack
    ia = [space.index(p) for p in query.A]
    ib = [space.index(p) for p in query.B]
    s = query.s
    hit = np.zeros(space.n_points, dtype=bool)
    d = space.dist
    for x in ia:
        for y in ib:
            dxy = d[x, y]
            ok = (np.abs(d[x] - s * dxy) <= slack) \
                & (np.abs(d[y] - (1.0 - s) * dxy) <= slack)
            hit |= ok
    return tuple(space.points[i] for i in np.flatnonzero(hit))


def eps_neighborhood(space: FiniteMetricMeasureSpace, A, eps: float) -> tuple:
    """{x : d(x, A) < eps} united with A itself (strict inequality)."""
    if not eps >= 0.0:
        raise DomainError(f"eps must be nonnegative, got {eps!r}")
    ia = [space.index(p) for p in A]
    if not ia:
        raise DomainError("A must be nonempty")
    hit = np.zeros(space.n_points, dtype=bool)
    hit[ia] = True
    hit |= (space.dist[ia].min(axis=0) < eps)
    return tuple(space.points[i] for i in np.flatnonzero(hit))


@dataclass(frozen=True)
class ZInclusionResult:
    passed: bool
    violating: object
    z_set: tuple
    neighborhood: tuple
    radius: float
    d0: float

    def as_dict(self) -> dict:
        return {"passed": self.passed, "violating": self.violating,
                "z_set": list(self.z_set),
                "neighborhood": list(self.neighborhood),
                "radius": self.radius, "d0": self.d0}


def z_inclusion_check(space: FiniteMetricMeasureSpace, omega, x0,
                      R: float, s: float, slack: float = 0.0,
                      interpolant_slack: float = 0.0) -> ZInclusionResult:
    """Z_s(Omega, B(x0, R)) against the closed s(d0+R)-neighborhood of Omega.

    d0 = diam(Omega).  Every interpolant z between x in Omega and y in
    the ball satisfies d(x,z) = s d(x,y) <= s (d0 + R), so the inclusion
    holds whenever both slacks vanish; inflating interpolant_slack can
    break it, which is what makes the constant s(d0+R) tight.
    """
    omega = tuple(omega)
    io = [space.index(p) for p in omega]
    if space.index(x0) not in io:
        raise DomainError("x0 must belong to Omega")
    if not R > 0.0:
        raise DomainError(f"R must be positive, got {R!r}")
    if not slack >= 0.0:
        raise DomainError("slack must be nonnegative")
    ball = tuple(space.points[i] for i in
                 np.flatnonzero(space.dist[space.index(x0)] <= R))
    d0 = float(space.dist[np.ix_(io, io)].max())
    z_set = interpolant_set(space, InterpolantQuery(
        A=omega, B=ball, s=s, slack=interpolant_slack))
    radius = s * (d0 + R) + slack
    # the closed neighbourhood d <= radius: below the next float up, the
    # strict test of eps_neighborhood admits exactly the distances <= radius
    hood = eps_neighborhood(space, omega, np.nextafter(radius, np.inf))
    hood_set = set(hood)
    violating = next((z for z in z_set if z not in hood_set), None)
    return ZInclusionResult(passed=violating is None, violating=violating,
                            z_set=z_set, neighborhood=hood,
                            radius=radius, d0=d0)


def seeded_z_inclusion(seed: int) -> ZInclusionResult:
    """One deterministic random-instance inclusion check, zero slack.

    Draws the space from random_space(seed) and Omega / R / s from an
    independent stream, so the same seed always replays the same check.
    """
    sp = random_space(seed)
    rng = np.random.default_rng(seed + 10 ** 6)
    size = int(rng.integers(1, max(2, sp.n_points // 3)))
    omega = tuple(int(i) for i in
                  rng.choice(sp.n_points, size=size, replace=False))
    R = float(rng.uniform(0.3, 1.0)) * sp.diameter
    s = float(rng.uniform(0.1, 0.9))
    return z_inclusion_check(sp, omega, omega[0], R, s)


# ---------------------------------------------------------------------------
# lattice Brunn-Minkowski

@dataclass(frozen=True)
class BmReport:
    n: int
    h: float
    s: float
    N: float
    measure_a: float
    measure_b: float
    measure_z: float
    lhs: float
    rhs: float
    deficit: float
    c_estimate: float

    def as_dict(self) -> dict:
        return {"n": self.n, "h": self.h, "s": self.s, "N": self.N,
                "measure_a": self.measure_a, "measure_b": self.measure_b,
                "measure_z": self.measure_z, "lhs": self.lhs,
                "rhs": self.rhs, "deficit": self.deficit,
                "c_estimate": self.c_estimate}


def _axis_range(lo: float, hi: float, m: int) -> np.ndarray:
    if not (0.0 <= lo < hi <= 1.0):
        raise DomainError(
            f"box edges must satisfy 0 <= lo < hi <= 1, got ({lo}, {hi})")
    a = int(np.ceil(lo * m - 1e-9))
    b = int(np.floor(hi * m + 1e-9))
    if b < a:
        raise DomainError(f"box edge ({lo}, {hi}) misses the lattice")
    return np.arange(a, b + 1)


def brunn_minkowski_report(n: int, h: float, box_a, box_b, s: float,
                           N: float | None = None) -> BmReport:
    """m(Z_s)^{1/N} vs (1-s) m(A)^{1/N} + s m(B)^{1/N} on the h-lattice.

    A and B are axis-aligned boxes in [0,1]^n, discretized by counting
    measure count h^n.  Z_s collects the lattice roundings of the exact
    interpolants (1-s) a + s b, a factored per-axis product for boxes.
    The deficit is a discretization report, not a curvature statement:
    the contract is deficit >= -C h with the measured C returned.
    """
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"dimension must be a positive integer, got {n!r}")
    if not _MIN_SPACING <= h <= 0.5:
        raise DomainError(
            f"lattice spacing must lie in [2^-10, 0.5], got {h!r}")
    m = round(1.0 / h)
    if abs(m * h - 1.0) > 1e-9:
        raise DomainError(f"1/h must be an integer, got h={h!r}")
    if not 0.0 <= s <= 1.0:
        raise DomainError(f"s must lie in [0,1], got {s!r}")
    box_a, box_b = list(box_a), list(box_b)
    if len(box_a) != n or len(box_b) != n:
        raise DomainError("boxes must supply one (lo, hi) pair per axis")
    if N is None:
        N = float(n)
    if not N >= 1.0:
        raise DomainError(f"exponent dimension must be >= 1, got {N!r}")

    count_a = count_b = count_z = 1
    for (alo, ahi), (blo, bhi) in zip(box_a, box_b):
        ia = _axis_range(alo, ahi, m)
        ib = _axis_range(blo, bhi, m)
        count_a *= ia.size
        count_b *= ib.size
        vals = (1.0 - s) * ia[:, None] + s * ib[None, :]
        count_z *= np.unique(np.floor(vals + 0.5).astype(int)).size
    ma = count_a * h ** n
    mb = count_b * h ** n
    mz = count_z * h ** n
    lhs = mz ** (1.0 / N)
    rhs = (1.0 - s) * ma ** (1.0 / N) + s * mb ** (1.0 / N)
    deficit = lhs - rhs
    return BmReport(n=n, h=h, s=s, N=N, measure_a=ma, measure_b=mb,
                    measure_z=mz, lhs=lhs, rhs=rhs, deficit=deficit,
                    c_estimate=max(0.0, -deficit) / h)
