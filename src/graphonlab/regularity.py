"""Regularity partitions and their error functionals.

Weak partitions come from average nets in the similarity metric via
Voronoi cells; ultra-strong (L1) partitions from a greedy ball cover of
the neighborhood metric refined by value bands; thin 0-1 graphons get the
sharper Boolean-atom refinement, which also drives the bounded-edit
blow-up approximation of pattern-free graphs.

Every report carries both the certified bound the construction promises
and the measured error (the cut norm exactly up to 24 steps, a proven upper
bound above), so callers can assert the guarantee, not the luck.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (CUT_NORM_MAX_STEPS, Graph, Partition, StepGraphon, _derived, aggregate,
                   as_bigraphon, check_basis, cut_norm, cut_norm_upper, difference,
                   graphon_from_graph, l1_norm, operator_product_values, rectangle_max)
from .densities import bigraph_density
from .errors import (CertificationError, HypothesisError, InvalidInputError, SizeLimitError,
                     within_bound)
from .metrics import (average_net, greedy_packing, neighborhood_metric, similarity_metric,
                      voronoi_partition)
from .setsystems import sauer_shelah_bound

@dataclass(frozen=True)
class PartitionReport:
    """Partition plus its measured errors and the certified bound.

    Every report has its bound. ``exact`` is True if and only if the
    graphon has k <= 24 steps (``CUT_NORM_MAX_STEPS``): cut_error is then
    the exact cut norm of W - W_P, and otherwise ``cut_norm_upper``'s
    proven upper bound, so a passing cut certificate is a proof either
    way. ``net_cost`` is filled by the weak variant only, ``atom_count``/
    ``sauer_bound`` by the thin variant only.
    """

    partition: Partition
    cut_error: float
    l1_error: float
    centers: list
    certified_bound: float
    exact: bool
    net_cost: float | None = None
    atom_count: int | None = None
    sauer_bound: int | None = None

    def __post_init__(self):
        if self.cut_error > self.l1_error + 1e-12:
            raise CertificationError("cut norm exceeded the L1 norm")

    @property
    def class_count(self) -> int:
        return self.partition.c

    def certified(self, measured: str) -> bool:
        value = self.cut_error if measured == "cut" else self.l1_error
        return within_bound(value, self.certified_bound)

    def to_dict(self) -> dict:
        d = {
            "classes": self.partition.classes(),
            "centers": list(self.centers),
            "cut_error": self.cut_error,
            "l1_error": self.l1_error,
            "szemeredi_error": None,  # filled by ``partition --szemeredi``
            "net_cost": self.net_cost,
            "certified_bound": self.certified_bound,
            "exact": self.exact,
        }
        if self.atom_count is not None:
            d["atom_count"] = self.atom_count
            d["sauer_bound"] = self.sauer_bound
        return d


def _residual(w: StepGraphon, p: Partition) -> tuple:
    """(W_P, W - W_P) of the pair, and the one place W - W_P is built:
    kept by ``_derived`` under ``(p, "residual")`` while ``w`` is the
    graphon last measured."""
    def build():
        wp = aggregate(w, p)
        return wp, difference(w, wp)
    return _derived(w, (p, "residual"), build)


def partition_cut_error(w: StepGraphon, p: Partition) -> float:
    """Exact cut norm of W - W_P; above k = 24 steps it raises
    ``SizeLimitError``. The value is kept under ``(p, "cut")`` while ``w``
    is the graphon last measured, so the 2^k enumeration runs at most once
    per partition."""
    return _derived(w, (p, "cut"), lambda: cut_norm(_residual(w, p)[1]))


def _measured_report(w: StepGraphon, part: Partition, check_l1: bool = False,
                     **fields) -> PartitionReport:
    """Report of ``part`` with the errors of W - W_P measured: the L1 norm,
    and the one decision on how the cut norm is measured: exactly when
    k <= ``CUT_NORM_MAX_STEPS``, else by ``cut_norm_upper``'s proven upper
    bound. With ``check_l1`` an L1 error above the certified bound
    raises."""
    _, diff = _residual(w, part)
    exact = diff.k <= CUT_NORM_MAX_STEPS
    cut = partition_cut_error(w, part) if exact else cut_norm_upper(diff)
    report = PartitionReport(partition=part, cut_error=cut, l1_error=l1_norm(diff),
                             exact=exact, **fields)
    if check_l1 and not report.certified("l1"):
        raise CertificationError(f"L1 error {report.l1_error:.6g} exceeded the "
                                 f"certified bound {report.certified_bound:.6g}")
    return report


def weak_partition_via_net(w: StepGraphon, eps_net: float) -> PartitionReport:
    """Weak regularity partition from an average eps-net in the similarity
    metric; the Voronoi cells of the net have cut error at most
    8 sqrt(achieved net cost)."""
    if not eps_net >= 0:
        raise InvalidInputError("eps_net must be nonnegative")
    sim = similarity_metric(w)
    centers, cost = average_net(sim, eps_net)
    part = voronoi_partition(sim, centers)
    return _measured_report(w, part, centers=centers, net_cost=cost,
                            certified_bound=8.0 * math.sqrt(cost))


def szemeredi_error(w: StepGraphon, p: Partition) -> float:
    """Exact supremum of |<W - W_P, H>| over 0-1 H supported on one product
    set per (ordered) class pair.

    By linearity the supremum splits into per-block one-sided optima: take
    every block's best positive rectangle (or leave it empty), and
    likewise for the negative sign; the result is the larger total. One
    ``rectangle_max`` call per block gives both signs, exactly; blocks of
    W - W_P that are identically 0 cost nothing, and singleton x singleton
    blocks always are, since ``aggregate`` reproduces W there exactly.

    On a one-class partition the one block is the whole matrix, so the
    value is the exact cut norm of W - W_P, the same ``rectangle_max``
    call on the same array: it is ``partition_cut_error``, kept per
    partition, so a partition whose weak report has just measured it costs
    nothing more.

    The guard is the cut norm's, k <= 24: with classes of n_a steps the
    blocks sum at most sum_{a,b} 2^{n_a} n_b <= k sum_a 2^{n_a} <= k 2^k
    subset columns (a block enumerates its shorter side), one cut norm's
    worth at the same k.
    """
    check_basis(p, w)
    if w.k > CUT_NORM_MAX_STEPS:
        raise SizeLimitError(f"exact Szemeredi error limited to {CUT_NORM_MAX_STEPS} steps")
    if p.c == 1:
        return partition_cut_error(w, p)
    _, r = _residual(w, p)
    a = r.mu[:, None] * r.mu[None, :] * r.w
    cls = p.classes()
    pos = neg = 0.0
    for si in cls:
        for sj in cls:
            block_pos, block_neg = rectangle_max(a[np.ix_(si, sj)])
            pos += block_pos
            neg += block_neg
    return max(pos, neg)


def net_from_partition(w: StepGraphon, p: Partition) -> tuple[list[int], float]:
    """Average-net centers extracted from a weak regularity partition.

    Per class the step minimizing F(x) = sum_z mu_z |sum_s mu_s R(x,s) W(s,z)|
    is "below average", and the selected set is an average 4 eps-net in the
    similarity metric when the partition has cut error eps. The inequality
    net_cost <= 4 * cut error is checked against ``partition_cut_error``,
    the exact cut norm of W - W_P, whenever it exists (k <= 24); it is
    enumerated at most once per partition, so after a weak report has
    measured ``p`` the check enumerates nothing. A failed check raises
    ``CertificationError``; above 24 steps nothing is checked.
    """
    _, r = _residual(w, p)
    inner = operator_product_values(r.w, w.w, w.mu)
    f = np.abs(inner) @ w.mu
    centers = []
    for cl in p.classes():
        best = min(cl, key=lambda i: (f[i], i))
        centers.append(int(best))
    sim = similarity_metric(w)
    mind = np.min(sim.dist[:, centers], axis=1)
    cost = float(mind @ w.mu)
    if w.k <= CUT_NORM_MAX_STEPS:
        cut = partition_cut_error(w, p)
        if not within_bound(cost, 4.0 * cut):
            raise CertificationError(f"net cost {cost} exceeded 4x cut error {cut}")
    return centers, cost


def _cover_and_refine(w: StepGraphon, eps: float, label) -> tuple[list[int], Partition, set]:
    """Cover (J, r_W) by balls of radius eps/4 around the greedy packing's
    centers, then split each Voronoi cell by a per-step label of the
    center rows: ``label`` maps the m x k center rows to an m x k array
    whose column z labels step z. Classes are numbered in order of first
    appearance. Returns the centers, the partition and the set of labels
    seen."""
    rw = neighborhood_metric(w)
    centers = greedy_packing(rw, eps / 4.0)
    cover = voronoi_partition(rw, centers)
    labels = [tuple(col) for col in label(w.w[centers]).T.tolist()]
    keys = {}
    assign = [keys.setdefault(key, len(keys)) for key in zip(cover.assign, labels)]
    return centers, Partition(w.mu, assign, len(keys)), set(labels)


def ultra_strong_partition(w: StepGraphon, eps: float) -> PartitionReport:
    """Ultra-strong (L1) regularity partition with error eps.

    Covers (J, r_W) by balls of radius eps/4 around maximal-packing
    centers, then refines by value bands of the center rows (ceil(1/eps)
    bands at multiples of eps). The class count is at most
    m ceil(1/eps)^m for m centers; the L1 error of the aggregated
    stepfunction is measured exactly, and above eps it raises
    ``CertificationError``.
    """
    if not (0.0 < eps < 1.0):
        raise InvalidInputError("eps must lie in (0, 1)")
    nbands = math.ceil(1.0 / eps)
    centers, part, _ = _cover_and_refine(
        w, eps, lambda rows: np.minimum((rows / eps).astype(int), nbands - 1))
    m = len(centers)
    if part.c > m * nbands ** m:
        raise CertificationError("class count exceeded m ceil(1/eps)^m")
    return _measured_report(w, part, check_l1=True, centers=centers, certified_bound=eps)


def thin_ultra_partition(w: StepGraphon, f, eps: float) -> PartitionReport:
    """Ultra-strong partition of a 0-1 graphon excluding the bigraph f.

    Verifies t^b_ind(f, W) = 0 exactly through ``bigraph_density``, the
    check ``thinness_witness`` makes, so any witness it verifies is
    accepted; covers (J, r_W) by eps/4 balls and intersects the cells with
    the positive-measure atoms of the Boolean algebra generated by the
    center-row supports. The atom count obeys the Sauer-Shelah certificate
    sum_{i < |V(f)|} C(m, i), and the aggregated L1 error is at most eps
    (the ball cover alone gives eps/2).
    """
    if not (0.0 < eps < 1.0):
        raise InvalidInputError("eps must lie in (0, 1)")
    if not w.is_zero_one():
        raise HypothesisError("thin partitioning requires a 0-1 stepfunction")
    excluded = bigraph_density(f, as_bigraphon(w), induced=True)
    if excluded != 0.0:
        raise HypothesisError(
            f"pattern is not excluded: t^b_ind = {excluded:.6g} > 0")
    centers, part, atoms = _cover_and_refine(w, eps, lambda rows: rows == 1.0)
    bound = sauer_shelah_bound(len(centers), f.n1 + f.n2 - 1)
    if len(atoms) > bound:
        raise CertificationError(
            f"atom count {len(atoms)} exceeded the Sauer-Shelah bound {bound}")
    return _measured_report(w, part, check_l1=True, centers=centers,
                            certified_bound=eps, atom_count=len(atoms), sauer_bound=bound)


def equalize(w: StepGraphon, p: Partition, eps: float) -> tuple[StepGraphon, Partition]:
    """Equitable repartition: class measures within 1/ceil(c/eps) of equal,
    at most c ceil(1/eps) classes, cut error at most doubled.

    Each class gets a seat count apportioned by measure (largest
    remainder, at least one seat each); every step of a class is split
    into that many twin copies and the copies are dealt round-robin, so
    each new class is an exact 1/n_T-scaled copy of its parent. The
    aggregated stepfunction W_P is therefore unchanged and the cut error
    is preserved exactly, well inside the 2x contract.
    """
    if not (0.0 < eps < 1.0):
        raise InvalidInputError("eps must lie in (0, 1)")
    check_basis(p, w)
    c = p.c
    target = c * math.ceil(1.0 / eps)
    tol = 1.0 / math.ceil(c / eps)
    masses = p.class_measures()
    if float(np.max(np.abs(masses - 1.0 / c))) <= 1e-12:
        return w, p

    ideal = masses * target
    seats = np.maximum(1, np.floor(ideal).astype(int))
    while seats.sum() > target:
        ratios = np.where(seats > 1, seats / ideal, -np.inf)
        seats[int(np.argmax(ratios))] -= 1
    while seats.sum() < target:
        seats[int(np.argmax(ideal - seats))] += 1

    # step i becomes counts[i] contiguous copies of measure mu_i / counts[i];
    # copy r of a step in class a joins new class offsets[a] + r
    cls = list(p.assign)
    counts = seats[cls]
    idx = np.repeat(np.arange(w.k), counts)
    first = np.cumsum(counts) - counts
    offsets = np.cumsum(seats) - seats
    assign = np.arange(idx.size) + (offsets[cls] - first)[idx]
    new_w = StepGraphon(np.repeat(w.mu / counts, counts), w.w[np.ix_(idx, idx)])
    new_p = Partition(new_w.mu, assign, int(seats.sum()))

    dev = float(np.max(np.abs(new_p.class_measures() - 1.0 / new_p.c)))
    if dev > tol + 1e-12:
        raise CertificationError(
            f"equalized class measures deviate by {dev:.3g} > {tol:.3g}")
    if new_w.k <= CUT_NORM_MAX_STEPS:  # splitting never lowers k, so w.k fits too
        before = partition_cut_error(w, p)
        after = partition_cut_error(new_w, new_p)
        if not within_bound(after, 2.0 * before):
            raise CertificationError("equalize more than doubled the cut error")
    return new_w, new_p


@dataclass(frozen=True)
class BlowupApprox:
    """Bounded-edit blow-up approximation of a pattern-free 0-1 graphon.

    ``edits`` counts changed unordered node pairs; ``changed_cells`` counts
    changed ordered matrix cells including the diagonal (this is what the
    eps n^2 guarantee bounds).
    """

    graph: Graph
    quotient: Graph
    sizes: tuple
    internal: tuple
    edits: int
    changed_cells: int
    report: PartitionReport


def edit_blowup_approx(g: Graph | StepGraphon, f, eps: float) -> BlowupApprox:
    """Edit a pattern-free graph into a blow-up, changing <= eps n^2 cells.

    Accepts a Graph (adjacency stepfunction, zero diagonal) or directly a
    uniform-step 0-1 StepGraphon such as the half graphon, whose diagonal
    carries the threshold structure. Runs the thin ultra-strong partition,
    rounds each block of W_P to its majority value, and realizes the
    rounded stepfunction as a blow-up of the quotient graph (diagonal
    blocks become the internal clique flags).
    """
    if isinstance(g, Graph):
        w0 = graphon_from_graph(g)
    elif isinstance(g, StepGraphon):
        w0 = g
    else:
        raise InvalidInputError("expected a Graph or a StepGraphon")
    n = w0.k
    if float(np.max(np.abs(w0.mu - 1.0 / n))) > 1e-9:
        raise InvalidInputError(
            "cannot realize as a blow-up: step measures are not multiples of 1/n")

    report = thin_ultra_partition(w0, f, eps)
    part = report.partition
    assign = np.array(part.assign, dtype=int)
    wp, _ = _residual(w0, part)
    reps = [cl[0] for cl in part.classes()]
    block = wp.w[np.ix_(reps, reps)]
    rounded = (block >= 0.5).astype(float)
    expanded = rounded[np.ix_(assign, assign)]

    changed = int(np.sum(w0.w != expanded))
    if changed > eps * n * n:
        raise CertificationError(
            f"{changed} changed cells exceed eps n^2 = {eps * n * n:.6g}")
    edits = int(np.sum(np.triu(w0.w != expanded, k=1)))

    sizes = tuple(len(cl) for cl in part.classes())
    internal = tuple(bool(rounded[a, a]) for a in range(part.c))
    quotient = Graph(part.c, [(a, b) for a in range(part.c)
                              for b in range(a + 1, part.c) if rounded[a, b] == 1.0])
    edited = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                       if expanded[i, j] == 1.0])
    return BlowupApprox(graph=edited, quotient=quotient, sizes=sizes,
                        internal=internal, edits=edits, changed_cells=changed,
                        report=report)
