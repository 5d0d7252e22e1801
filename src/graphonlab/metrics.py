"""Metric geometry of stepfunctions.

The neighborhood distance r_W is the L1 distance between rows; the
similarity distance is the neighborhood distance of the operator square
W o W and is never larger. On top of these live purification (twin
merging), packing numbers and dimension estimates, average epsilon-nets,
and Voronoi partitions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (Partition, StepBigraphon, StepGraphon, _frozen_array, _measure_vector,
                   aggregate, square)
from .errors import InvalidInputError, SizeLimitError

#: twins are merged below this neighborhood distance
TWIN_TOL = 1e-9

#: largest point count for the exact branch-and-bound packing number
PACKING_MAX_POINTS = 20


#: triangle inequality is verified at construction (under __debug__) up to
#: this many points; beyond that the O(k^3) sweep is opt-in via assert_metric
TRIANGLE_CHECK_MAX = 64


@dataclass(frozen=True, eq=False)
class MetricView:
    """Finite measured metric space: one point per step.

    ``dist`` is symmetric with zero diagonal. In debug mode (python without
    -O) construction also verifies the triangle inequality on all triples
    for k <= 64; ``assert_metric`` runs the same sweep explicitly.
    """

    mu: np.ndarray
    dist: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mu", _measure_vector(self.mu))
        object.__setattr__(self, "dist", _frozen_array(self.dist))
        k = self.mu.size
        if self.dist.shape != (k, k):
            raise InvalidInputError("distance matrix shape does not match measures")
        if np.any(self.dist < 0):
            raise InvalidInputError("distances must be nonnegative")
        if np.any(np.diag(self.dist) != 0.0):
            raise InvalidInputError("distance matrix must have zero diagonal")
        if not np.array_equal(self.dist, self.dist.T):
            raise InvalidInputError("distance matrix must be symmetric")
        if __debug__ and k <= TRIANGLE_CHECK_MAX:
            self.assert_metric(1e-9)

    @property
    def k(self) -> int:
        return self.mu.size

    def assert_metric(self, tol: float = 1e-9) -> None:
        worst = triangle_violation(self.dist)
        if worst > tol:
            raise InvalidInputError(f"triangle inequality violated by {worst:.3g}")

    def to_csv(self) -> str:
        lines = [",".join(str(i) for i in range(self.k))]
        for row in self.dist:
            lines.append(",".join(format(v, ".17g") for v in row))
        return "\n".join(lines) + "\n"


def triangle_violation(d: np.ndarray) -> float:
    """Largest d(i,j) - min_z (d(i,z) + d(z,j)), at least 0; O(k^3) time
    and O(k^2) memory."""
    worst = 0.0
    for i in range(d.shape[0]):
        best_detour = np.min(d[i][:, None] + d, axis=0)
        worst = max(worst, float(np.max(d[i] - best_detour)))
    return worst


def _row_l1_matrix(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """All pairwise weighted L1 distances between rows of ``values``.

    Exactly symmetric with a zero diagonal. A k x m real input costs
    O(k^2 m) time in O(k m) working memory: row i is swept against the
    rows after it, and the upper triangle is mirrored.
    """
    n = values.shape[0]
    if np.all((values == 0.0) | (values == 1.0)):
        # |a-b| = a + b - 2ab for 0-1 entries; one BLAS product instead of
        # an n^2 x m elementwise pass
        s = values @ weights
        g = values @ (weights[:, None] * values.T)
        d = s[:, None] + s[None, :] - 2.0 * g
        d = np.maximum((d + d.T) / 2.0, 0.0)
        np.fill_diagonal(d, 0.0)
        return d
    d = np.zeros((n, n))
    for i in range(n - 1):
        d[i, i + 1:] = np.abs(values[i + 1:] - values[i]) @ weights
    return d + d.T


def neighborhood_metric(w: StepGraphon) -> MetricView:
    """r_W(i, j) = sum_z mu_z |w[i,z] - w[j,z]|."""
    return MetricView(w.mu, _row_l1_matrix(w.w, w.mu))


def bigraphon_metrics(w: StepBigraphon) -> tuple[MetricView, MetricView]:
    """Row metric r_1 and column metric r_2 of a bigraphon."""
    r1 = MetricView(w.mu1, _row_l1_matrix(w.w, w.mu2))
    r2 = MetricView(w.mu2, _row_l1_matrix(w.w.T, w.mu1))
    return r1, r2


def similarity_metric(w: StepGraphon) -> MetricView:
    """r_{WoW}: the neighborhood metric of the operator square."""
    return neighborhood_metric(square(w))


def purify(w: StepGraphon) -> tuple[StepGraphon, list[int]]:
    """Merge twin steps (neighborhood distance <= ``TWIN_TOL``, 1e-9).

    Twins form connected components, numbered by their lowest step; the
    returned mapping sends each old step to its component. Measures of
    merged steps are added and their values are the measure-weighted
    block averages of ``aggregate`` on that partition. The output has all
    pairwise r_W above ``TWIN_TOL``.
    """
    d = _row_l1_matrix(w.w, w.mu)
    mapping = np.full(w.k, -1)
    roots: list[int] = []
    for i in range(w.k):
        if mapping[i] >= 0:
            continue
        mapping[i] = len(roots)
        stack = [i]
        while stack:
            near = np.flatnonzero((d[stack.pop()] <= TWIN_TOL) & (mapping < 0))
            mapping[near] = mapping[i]
            stack.extend(near.tolist())
        roots.append(i)
    if len(roots) == w.k:
        return w, list(range(w.k))
    part = Partition(w.mu, mapping, len(roots))
    vals = aggregate(w, part).w[np.ix_(roots, roots)]
    return StepGraphon(part.class_measures(), vals), mapping.tolist()


def greedy_packing(m: MetricView, eps: float) -> list[int]:
    """Maximal eps-packing by farthest-point insertion.

    Starts at the measure-weighted farthest point and adds the point
    farthest from the chosen ones (ties to the lowest index) until every
    point lies within < eps of one; the result is also an eps-cover.
    """
    chosen = [int(np.argmax(m.dist @ m.mu))]
    mind = m.dist[chosen[0]].copy()
    while True:
        i = int(np.argmax(mind))
        if mind[i] < eps:
            return chosen
        chosen.append(i)
        mind = np.minimum(mind, m.dist[i])


def packing_number(m: MetricView, eps: float, mode: str = "exact") -> int:
    """Maximum number of points mutually at distance >= eps.

    Exact mode (k <= 20) runs branch-and-bound over the >=eps compatibility
    graph; greedy mode returns the size of a maximal packing built by
    farthest-point insertion, a lower bound.
    """
    if eps <= 0:
        raise InvalidInputError("eps must be positive")
    if mode == "greedy":
        return len(greedy_packing(m, eps))
    if mode != "exact":
        raise InvalidInputError(f"unknown packing mode {mode!r}")
    if m.k > PACKING_MAX_POINTS:
        raise SizeLimitError(f"exact packing limited to {PACKING_MAX_POINTS} points")
    compat = m.dist >= eps
    order = sorted(range(m.k), key=lambda i: -int(compat[i].sum()))
    best = 0

    def expand(chosen: int, cand: list[int]) -> None:
        nonlocal best
        if chosen > best:
            best = chosen
        for pos, v in enumerate(cand):
            if chosen + len(cand) - pos <= best:
                return
            expand(chosen + 1, [u for u in cand[pos + 1:] if compat[v, u]])

    expand(0, order)
    return best


def packing_dimension_estimate(m: MetricView, eps_grid, mode: str = "exact"):
    """Least-squares slope of log N(eps) against log(1/eps).

    Returns (slope, table) where table lists (eps, N(eps)). The grid must
    be strictly decreasing inside (0, 1); the finite-data slope stands in
    for the limsup of the packing dimension.
    """
    grid = [float(e) for e in eps_grid]
    if len(grid) < 2:
        raise InvalidInputError("eps grid must have at least two values")
    if any(not (0.0 < e < 1.0) for e in grid):
        raise InvalidInputError("eps grid values must lie in (0, 1)")
    if any(a <= b for a, b in zip(grid, grid[1:])):
        raise InvalidInputError("eps grid must be strictly decreasing")
    table = [(e, packing_number(m, e, mode=mode)) for e in grid]
    xs = np.log(1.0 / np.array(grid))
    ys = np.log(np.array([n for _, n in table], dtype=float))
    slope = float(np.polyfit(xs, ys, 1)[0])
    return slope, table


def average_net(m: MetricView, eps: float) -> tuple[list[int], float]:
    """Greedy average eps-net: centers S with sum_x mu_x dist(x, S) <= eps.

    Seeds with the measure-weighted 1-median, then repeatedly adds the
    point whose insertion lowers the cost most (ties to the lowest index),
    stopping once the cost is at most eps. Returns (centers, cost); the
    cost is nonincreasing during construction and 0 in the worst case
    (all points chosen).
    """
    if eps < 0:
        raise InvalidInputError("eps must be nonnegative")
    costs = m.dist.T @ m.mu
    first = int(np.argmin(costs))
    centers = [first]
    mind = m.dist[first].copy()
    cost = float(mind @ m.mu)
    while cost > eps:
        new_costs = np.minimum(mind[None, :], m.dist) @ m.mu
        new_costs[centers] = np.inf
        i = int(np.argmin(new_costs))
        centers.append(i)
        mind = np.minimum(mind, m.dist[i])
        cost = float(mind @ m.mu)
    return centers, cost


def voronoi_partition(m: MetricView, centers) -> Partition:
    """Partition into Voronoi cells of the centers.

    Each point goes to its nearest center; ties break toward the center
    with the lowest step index (one argmin over the centers' columns taken
    in step order), except that a center always claims itself so every
    cell is nonempty.
    """
    centers = [int(c) for c in centers]
    if not centers:
        raise InvalidInputError("center list must be nonempty")
    if any(not (0 <= c < m.k) for c in centers):
        raise InvalidInputError("center index out of range")
    if len(set(centers)) != len(centers):
        raise InvalidInputError("duplicate centers")
    order = np.argsort(centers)
    assign = order[np.argmin(m.dist[:, np.array(centers)[order]], axis=1)]
    assign[centers] = np.arange(len(centers))
    return Partition(m.mu, assign, len(centers))
