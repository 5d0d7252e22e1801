"""Metric geometry of stepfunctions.

The neighborhood distance r_W is the L1 distance between rows; the
similarity distance is the neighborhood distance of the operator square
W o W and is never larger. On top of these live purification (twin
merging), packing numbers and dimension estimates, average epsilon-nets,
and Voronoi partitions.

The two metrics of a graphon are kept by ``core._derived`` while it is
the graphon last measured, so a sequence of constructions on one graphon
(a weak and an ultra-strong partition, a net from the weak partition)
sweeps each metric once. As L1 distances between rows they are metrics
by construction, built with no triangle sweep (``_RowL1View``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (Partition, StepBigraphon, StepGraphon, _derived, _frozen_array,
                   _measure_vector, aggregate, square)
from .errors import InvalidInputError, SizeLimitError, as_integer

#: twins are merged below this neighborhood distance
TWIN_TOL = 1e-9

#: largest point count for the exact branch-and-bound packing number
PACKING_MAX_POINTS = 20

#: detour sums d(i,z) + d(z,j) in one block of ``triangle_violation``
TRIANGLE_BLOCK = 1 << 16


@dataclass(frozen=True, eq=False)
class MetricView:
    """Finite measured metric space: one point per step.

    ``dist`` is symmetric with zero diagonal. Construction runs the O(k^3)
    triangle sweep of ``assert_metric`` at every k, also under python -O,
    except for the library's row-L1 metrics, built as ``_RowL1View``.
    """

    mu: np.ndarray
    dist: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mu", _measure_vector(self.mu))
        object.__setattr__(self, "dist", _frozen_array(self.dist))
        k = self.mu.size
        if self.dist.shape != (k, k):
            raise InvalidInputError("distance matrix shape does not match measures")
        if self.dist.min() < 0.0:
            raise InvalidInputError("distances must be nonnegative")
        if (np.diag(self.dist) != 0.0).any():
            raise InvalidInputError("distance matrix must have zero diagonal")
        if not np.array_equal(self.dist, self.dist.T):
            raise InvalidInputError("distance matrix must be symmetric")
        if not isinstance(self, _RowL1View):
            self.assert_metric()

    @property
    def k(self) -> int:
        return self.mu.size

    def assert_metric(self) -> None:
        worst = triangle_violation(self.dist)
        if worst > 1e-9:
            raise InvalidInputError(f"triangle inequality violated by {worst:.3g}")

    def to_csv(self) -> str:
        lines = [",".join(str(i) for i in range(self.k))]
        for row in self.dist:
            lines.append(",".join(format(v, ".17g") for v in row))
        return "\n".join(lines) + "\n"


def triangle_violation(d: np.ndarray) -> float:
    """Largest d(i,j) - min_z (d(i,z) + d(z,j)), at least 0; O(k^3) time
    and O(k^2 + ``TRIANGLE_BLOCK``) memory.

    The rows i are taken in blocks, each one (rows, k, k) broadcast of
    the detour sums d(i,z) + d(z,j) of at most ``TRIANGLE_BLOCK`` cells,
    or of one row where a row holds more (k > 256). Each sum is one
    addition and minimum and maximum are exact, so the value is the float
    a row-by-row sweep returns: each row's largest gap enters the same
    running ``max``, in row order, so a row with a NaN gap (inf - inf, from
    infinite distances) is passed over as that sweep passes it over.
    """
    k = d.shape[0]
    step = max(1, TRIANGLE_BLOCK // max(1, k * k))
    worst = 0.0
    for start in range(0, k, step):
        rows = d[start:start + step]
        best_detour = np.min(rows[:, :, None] + d, axis=1)
        worst = max(worst, *np.max(rows - best_detour, axis=1).tolist())
    return worst


def _row_l1_matrix(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """All pairwise weighted L1 distances between rows of ``values``.

    Exactly symmetric with a zero diagonal. A k x m real input costs
    O(k^2 m) time in O(k m + ``TRIANGLE_BLOCK``) working memory. The rows
    are taken in blocks of ``TRIANGLE_BLOCK`` // (k m) rows, at least one
    (one from k m > 2^15 on, k >= 182 for a square input); a block is one
    broadcast subtraction and one ``abs`` of the differences between its
    rows and the rows after its first, in one buffer. Each row i is then
    weighted by its own product over its (k - 1 - i, m) C-order slice of
    the rows after it, as a row-by-row sweep does: BLAS sums a row's
    products in an order that depends on where the row sits in the call,
    so one product over several rows could move the last bits. The upper
    triangle is mirrored.
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
    step = max(1, TRIANGLE_BLOCK // values.size)
    buf = np.empty((min(step, n),) + values.shape)
    for start in range(0, n - 1, step):
        stop = min(start + step, n - 1)
        diff = buf[:stop - start, start + 1:]
        np.subtract(values[start + 1:], values[start:stop, None], out=diff)
        np.abs(diff, out=diff)
        for i in range(start, stop):
            np.matmul(diff[i - start, i - start:], weights, out=d[i, i + 1:])
    return d + d.T


@dataclass(frozen=True, eq=False)
class _RowL1View(MetricView):
    """Weighted L1 distances between rows, a metric by construction: not swept."""


def _neighborhood_view(w: StepGraphon) -> MetricView:
    return _RowL1View(w.mu, _row_l1_matrix(w.w, w.mu))


def neighborhood_metric(w: StepGraphon) -> MetricView:
    """r_W(i, j) = sum_z mu_z |w[i,z] - w[j,z]|, swept once while ``w`` is
    the graphon last measured."""
    return _derived(w, "r_w", lambda: _neighborhood_view(w))


def bigraphon_metrics(w: StepBigraphon) -> tuple[MetricView, MetricView]:
    """Row metric r_1 and column metric r_2 of a bigraphon."""
    r1 = _RowL1View(w.mu1, _row_l1_matrix(w.w, w.mu2))
    r2 = _RowL1View(w.mu2, _row_l1_matrix(w.w.T, w.mu1))
    return r1, r2


def similarity_metric(w: StepGraphon) -> MetricView:
    """r_{WoW}: the neighborhood metric of the operator square, built once
    while ``w`` is the graphon last measured. The square is not kept, and
    its r_W is built directly, so the square is never measured in ``w``'s
    place."""
    return _derived(w, "r_ww", lambda: _neighborhood_view(square(w)))


def purify(w: StepGraphon) -> tuple[StepGraphon, list[int]]:
    """Merge twin steps (neighborhood distance <= ``TWIN_TOL``, 1e-9).

    Twins form connected components, numbered by their lowest step; the
    returned mapping sends each old step to its component. Measures of
    merged steps are added and their values are the measure-weighted
    block averages of ``aggregate`` on that partition. The output has all
    pairwise r_W above ``TWIN_TOL``. The distances are
    ``neighborhood_metric(w)``, so a graphon whose r_W is kept is not
    swept again.
    """
    d = neighborhood_metric(w).dist
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
    if not eps > 0:
        raise InvalidInputError("eps must be positive")
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
    if not eps > 0:
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
    if not eps >= 0:
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
    centers = [as_integer(c, "center") for c in centers]
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
