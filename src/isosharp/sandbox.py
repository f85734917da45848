"""Finite-metric-space laboratory for the interpolation lemmas.

Brute-force checks of the purely metric facts the curvature arguments
lean on: interpolant sets between two subsets, and the inclusion of
s-interpolants of (Omega, ball) in the closed blown-up neighborhood of
Omega.  Discrete spaces carry no curvature condition, so the
Brunn-Minkowski comparison is reported as a lattice refinement trend,
never asserted as a hard invariant.

A space is the points 0..n-1 with their distance matrix, and every
point argument is an index.  All loops are pure over immutable space
data and deterministic for a fixed seed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvariantViolation

_TRI_SLACK = 1e-12    # relative slack for float path-sum triangle checks
# finest lattice: one axis pairs up to (1/h + 1)^2 points, 8 MB of doubles
_MIN_SPACING = 2.0 ** -10


# eq=False: identity equality and hash; the generated ones would compare
# the ndarray field, which has no single truth value
@dataclass(frozen=True, eq=False)
class FiniteMetricMeasureSpace:
    """Points 0..n-1 with distances dist: a finite metric space under
    counting measure.

    dist must be symmetric, zero exactly on the diagonal, and satisfy
    the triangle inequality.
    """

    dist: np.ndarray

    def __init__(self, dist):
        d = np.array(dist, dtype=float)
        object.__setattr__(self, "dist", d)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise DomainError(f"distance matrix shape {d.shape} is not square")
        n = len(d)
        if n == 0:
            raise DomainError("a space needs at least one point")
        if not np.all(np.isfinite(d)):
            raise DomainError("distances must be finite")
        if np.any(np.diag(d) != 0.0):
            raise InvariantViolation("nonzero diagonal in distance matrix")
        if not np.array_equal(d, d.T):
            raise InvariantViolation("distance matrix is not symmetric")
        off = d + np.diag(np.full(n, np.inf))
        if n > 1 and not np.all(off[~np.isinf(off)] > 0.0):
            raise InvariantViolation("dist(x,y)=0 for distinct points")
        slack = _TRI_SLACK * max(float(d.max()), 1.0)
        # d(x,z) <= d(x,y) + d(y,z) for all triples, one y at a time
        worst = max(float((d - (d[:, y, None] + d[y])).max())
                    for y in range(n))
        if worst > slack:
            raise InvariantViolation(
                f"triangle inequality violated by {worst:g}")

    @property
    def n_points(self) -> int:
        return len(self.dist)

    @property
    def diameter(self) -> float:
        return float(self.dist.max())

    def index(self, i) -> int:
        """i as a point index; DomainError unless an integer in 0..n-1."""
        if not (isinstance(i, (int, np.integer)) and 0 <= i < self.n_points):
            raise DomainError(f"unknown point id {i!r}")
        return int(i)


def _shortest_paths(W: np.ndarray) -> np.ndarray:
    """Shortest-path closure of the symmetric weight matrix W: 0 on the
    diagonal, inf where two points share no edge.

    Floyd-Warshall: step k relaxes D[i, j] <- D[i, k] + D[k, j] for all
    pairs at once.  D[j, i] gets the same two terms in the other order, so
    the closure stays exactly symmetric.  O(n^2) memory and O(n^3) time.
    """
    dist = W.copy()
    for k in range(len(dist)):
        np.minimum(dist, dist[:, k, None] + dist[k], out=dist)
    if np.any(np.isinf(dist)):
        raise DomainError("graph is not connected")
    return dist


def path_graph(k: int) -> FiniteMetricMeasureSpace:
    """Unit-edge path 0 - 1 - ... - (k-1)."""
    if not (isinstance(k, int) and k >= 2):
        raise DomainError(f"path graph needs an integer k >= 2, got {k!r}")
    i = np.arange(k)
    return FiniteMetricMeasureSpace(
        np.abs(i[:, None] - i[None, :]).astype(float))


def grid_graph(rows: int, cols: int) -> FiniteMetricMeasureSpace:
    """Unit grid graph, points row-major 0..rows*cols-1, L1 metric."""
    if not (isinstance(rows, int) and isinstance(cols, int)
            and rows >= 1 and cols >= 1 and rows * cols >= 2):
        raise DomainError("grid graph needs at least two nodes")
    r = np.arange(rows * cols) // cols
    c = np.arange(rows * cols) % cols
    dist = (np.abs(r[:, None] - r[None, :])
            + np.abs(c[:, None] - c[None, :])).astype(float)
    return FiniteMetricMeasureSpace(dist)


def random_space(seed: int) -> FiniteMetricMeasureSpace:
    """Connected random graph of 8 to 60 nodes, uniform [1,2] edge weights,
    shortest paths.

    A random Hamiltonian path guarantees connectivity; extra edges are
    dropped in with a random density.  Deterministic per seed.
    """
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise DomainError(f"seed must be a nonnegative integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 61))
    order = rng.permutation(n)
    density = rng.uniform(0.05, 0.4)
    edge = np.triu(rng.random((n, n)) < density, 1)
    edge[np.minimum(order[:-1], order[1:]),
         np.maximum(order[:-1], order[1:])] = True
    u, v = np.nonzero(edge)     # the pairs u < v in sorted order
    W = np.full((n, n), math.inf)
    np.fill_diagonal(W, 0.0)
    # the same stream as one scalar draw per sorted pair
    W[u, v] = W[v, u] = rng.uniform(1.0, 2.0, len(u))
    return FiniteMetricMeasureSpace(_shortest_paths(W))


def interpolant_set(space: FiniteMetricMeasureSpace, A, B, s: float,
                    slack: float) -> tuple:
    """All points z with d(x,z) = s d(x,y) and d(z,y) = (1-s) d(x,y), some
    x in A and y in B (point indices).

    Exact brute force over A x B x M with both equalities within slack,
    vectorized over B and M for each x.  Returned in ascending order.
    """
    A, B = tuple(A), tuple(B)
    if not A or not B:
        raise DomainError("A and B must be nonempty")
    if not 0.0 <= s <= 1.0:
        raise DomainError(f"s must lie in [0,1], got {s!r}")
    if not slack >= 0.0:
        raise DomainError(f"slack must be nonnegative, got {slack!r}")
    ia = [space.index(p) for p in A]
    ib = [space.index(p) for p in B]
    hit = np.zeros(space.n_points, dtype=bool)
    d = space.dist
    d_b = d[ib]                 # (|B|, n): d(y, z), one row per y
    for x in ia:
        dxy = d[x, ib, None]    # (|B|, 1): d(x, y)
        ok = (np.abs(d[x] - s * dxy) <= slack) \
            & (np.abs(d_b - (1.0 - s) * dxy) <= slack)
        hit |= ok.any(axis=0)
    return tuple(np.flatnonzero(hit).tolist())


@dataclass(frozen=True)
class ZInclusionResult:
    d0: float
    radius: float
    passed: bool
    violating: int | None
    z_set: tuple
    neighborhood: tuple


def z_inclusion_check(space: FiniteMetricMeasureSpace, omega, x0,
                      R: float, s: float, slack: float = 0.0,
                      interpolant_slack: float = 0.0) -> ZInclusionResult:
    """Z_s(Omega, B(x0, R)) against the closed s(d0+R)-neighborhood of Omega.

    Omega and x0 are point indices; d0 = diam(Omega).  Every interpolant
    z between x in Omega and y in the ball satisfies
    d(x,z) = s d(x,y) <= s (d0 + R), so the inclusion holds whenever both
    slacks vanish; inflating interpolant_slack can break it, which is what
    makes the constant s(d0+R) tight.
    """
    io = [space.index(p) for p in omega]
    x0 = space.index(x0)
    if x0 not in io:
        raise DomainError("x0 must belong to Omega")
    if not R > 0.0:
        raise DomainError(f"R must be positive, got {R!r}")
    if not slack >= 0.0:
        raise DomainError("slack must be nonnegative")
    ball = np.flatnonzero(space.dist[x0] <= R)
    d0 = float(space.dist[np.ix_(io, io)].max())
    z_set = interpolant_set(space, io, ball, s, interpolant_slack)
    radius = s * (d0 + R) + slack
    if math.isnan(radius):    # s = 0 and R = inf
        raise DomainError("s (d0 + R) is undefined at s = 0, R = inf")
    # radius >= 0, so the closed neighbourhood contains Omega
    inside = space.dist[io].min(axis=0) <= radius
    hood = tuple(np.flatnonzero(inside).tolist())
    violating = next((z for z in z_set if not inside[z]), None)
    return ZInclusionResult(d0=d0, radius=radius, passed=violating is None,
                            violating=violating, z_set=z_set,
                            neighborhood=hood)


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


def _axis_range(lo: float, hi: float, m: int) -> np.ndarray:
    if not (0.0 <= lo < hi <= 1.0):
        raise DomainError(
            f"box edges must satisfy 0 <= lo < hi <= 1, got ({lo}, {hi})")
    a = int(np.ceil(lo * m - 1e-9))
    b = int(np.floor(hi * m + 1e-9))
    if b < a:
        raise DomainError(f"box edge ({lo}, {hi}) misses the lattice")
    return np.arange(a, b + 1)


def brunn_minkowski_report(n: int, h: float, edge_a, edge_b,
                           s: float) -> BmReport:
    """m(Z_s)^{1/n} vs (1-s) m(A)^{1/n} + s m(B)^{1/n} on the h-lattice.

    A and B are the cubes [lo, hi]^n in [0,1]^n of the edges edge_a and
    edge_b, discretized by counting measure count h^n; DomainError where
    h^n or a count leaves the normal doubles.  Z_s collects the lattice
    roundings of the exact interpolants (1-s) a + s b, the n-th power of
    one axis's count for cubes.  The deficit is a discretization report,
    not a curvature statement: the contract is deficit >= -C h with the
    measured C returned.
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
    # before the counts, each size ** n: an n past the normal doubles'
    # exponent range fails here, not in a huge integer power
    try:
        cell = h ** n
    except OverflowError:       # n past the largest double
        cell = 0.0
    if cell < sys.float_info.min:
        raise DomainError(
            f"cell volume h^n = {h!r}^{n} is not a normal double")
    N = float(n)

    ia, ib = _axis_range(*edge_a, m), _axis_range(*edge_b, m)
    vals = (1.0 - s) * ia[:, None] + s * ib[None, :]
    size_z = np.unique(np.floor(vals + 0.5).astype(int)).size
    count_a, count_b, count_z = ia.size ** n, ib.size ** n, size_z ** n
    try:
        ma, mb, mz = (count * cell for count in (count_a, count_b, count_z))
    except OverflowError:       # a count above the largest double
        raise DomainError(
            f"a lattice count at n={n} overflows a double") from None
    lhs = mz ** (1.0 / N)
    rhs = (1.0 - s) * ma ** (1.0 / N) + s * mb ** (1.0 / N)
    deficit = lhs - rhs
    return BmReport(n=n, h=h, s=s, N=N, measure_a=ma, measure_b=mb,
                    measure_z=mz, lhs=lhs, rhs=rhs, deficit=deficit,
                    c_estimate=max(0.0, -deficit) / h)
