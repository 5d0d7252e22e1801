"""Finite representations of graphons and bigraphons.

Everything here is a stepfunction: a symmetric matrix of values together
with positive step measures summing to 1. All values are immutable after
construction (arrays are copied in and marked read-only), and every
operation is a pure function, so concurrent use on shared inputs is safe.
The value types that hold arrays (kernels, graphons, bigraphons and
partitions) compare and hash by identity, so any of them can key a dict;
``Graph`` and ``Bigraph`` compare by value.

What is derived from a graphon is kept in one place, ``_derived``: the
values measured on the graphon last measured (its metrics r_W and
r_{WoW}, and per partition W_P, W - W_P and the exact cut norm of the
residual), so a sequence of constructions on one graphon builds each
once. Nothing is cached on the value types themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import BasisMismatchError, InvalidInputError, SizeLimitError, as_integer

#: tolerance for measure sums and basis comparisons
MEASURE_TOL = 1e-9

#: largest step count for which the exact cut norm is attempted (2^k subsets)
CUT_NORM_MAX_STEPS = 24

#: pair-column evaluations in one block swept by rectangle_max
RECTANGLE_BLOCK = 1 << 16


def _real_array(a) -> np.ndarray:
    """``a`` as a float array, not copied if it is one. Bool, integer and
    float arrays pass; complex, string and bytes arrays and any failed
    conversion (an object array holding a dict) are input errors, so no
    imaginary part is dropped and no string array parsed."""
    try:
        arr = np.asarray(a)
        if arr.dtype.kind in "biufO":
            return arr.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidInputError("values must be real numbers")


def _frozen_array(a) -> np.ndarray:
    arr = np.array(_real_array(a))
    if not np.isfinite(arr).all():
        raise InvalidInputError("measures and values must be finite")
    arr.setflags(write=False)
    return arr


def _measure_vector(mu, name: str = "mu") -> np.ndarray:
    """``mu`` frozen as step measures: a nonempty 1-d vector of positive
    entries summing to 1 within ``MEASURE_TOL``."""
    mu = _frozen_array(mu)
    if mu.ndim != 1 or mu.size == 0:
        raise InvalidInputError(f"{name} must be a nonempty 1-d vector")
    if mu.min() <= 0.0:
        raise InvalidInputError("steps of zero or negative measure are rejected")
    if abs(float(mu.sum()) - 1.0) > MEASURE_TOL:
        raise InvalidInputError(f"{name} must sum to 1 (tolerance 1e-9)")
    return mu


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StepKernel:
    """Symmetric step-constant function on a finite measured partition.

    ``mu`` holds the k step measures (all positive, summing to 1 within
    1e-9) and ``w`` the k x k symmetric value matrix with entries in
    [-1, 1]. The signed range exists so that differences of graphons
    (W - W_P) live in the same type.
    """

    mu: np.ndarray
    w: np.ndarray

    _value_lo = -1.0
    _value_hi = 1.0

    def __post_init__(self):
        object.__setattr__(self, "mu", _measure_vector(self.mu))
        object.__setattr__(self, "w", _frozen_array(self.w))
        k = self.mu.size
        if self.w.shape != (k, k):
            raise InvalidInputError(f"value matrix must be {k}x{k}, got {self.w.shape}")
        if not np.array_equal(self.w, self.w.T):
            raise InvalidInputError("value matrix must be exactly symmetric")
        if self.w.min() < self._value_lo or self.w.max() > self._value_hi:
            raise InvalidInputError(
                f"values must lie in [{self._value_lo}, {self._value_hi}]")

    @property
    def k(self) -> int:
        return self.mu.size


@dataclass(frozen=True, eq=False)
class StepGraphon(StepKernel):
    """Stepfunction graphon: a StepKernel with values in [0, 1]."""

    _value_lo = 0.0
    _value_hi = 1.0

    def is_zero_one(self) -> bool:
        return bool(np.all((self.w == 0.0) | (self.w == 1.0)))


@dataclass(frozen=True, eq=False)
class StepBigraphon:
    """Step-constant bigraphon on a product of two measured partitions."""

    mu1: np.ndarray
    mu2: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mu1", _measure_vector(self.mu1, "mu1"))
        object.__setattr__(self, "mu2", _measure_vector(self.mu2, "mu2"))
        object.__setattr__(self, "w", _frozen_array(self.w))
        if self.w.shape != (self.mu1.size, self.mu2.size):
            raise InvalidInputError("value matrix shape does not match measures")
        if self.w.min() < 0.0 or self.w.max() > 1.0:
            raise InvalidInputError("bigraphon values must lie in [0, 1]")

    @property
    def k1(self) -> int:
        return self.mu1.size

    @property
    def k2(self) -> int:
        return self.mu2.size

    def is_zero_one(self) -> bool:
        return bool(np.all((self.w == 0.0) | (self.w == 1.0)))


def _edge_pairs(edges, n1: int, n2: int, size: str) -> list[tuple[int, int]]:
    """Each edge as a pair (u, v) of integers with u < n1 and v < n2; an
    edge that is not exactly two integers is an input error."""
    out = []
    for e in edges:
        try:
            u, v = e
        except (TypeError, ValueError):
            raise InvalidInputError(f"edge {e!r} must be a pair of nodes") from None
        u, v = as_integer(u, "node"), as_integer(v, "node")
        if not (0 <= u < n1 and 0 <= v < n2):
            raise InvalidInputError(f"edge ({u},{v}) out of range for {size}")
        out.append((u, v))
    return out


@dataclass(frozen=True)
class Graph:
    """Simple pattern graph: ``n`` nodes, unordered loop-free edges."""

    n: int
    edges: frozenset

    def __init__(self, n: int, edges: Iterable = ()):
        n = as_integer(n, "node count")
        if n < 0:
            raise InvalidInputError("node count must be nonnegative")
        pairs = _edge_pairs(edges, n, n, f"{n} nodes")
        for u, v in pairs:
            if u == v:
                raise InvalidInputError(f"loop at node {u} is not allowed")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset((min(e), max(e)) for e in pairs))

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, [(i, j) for i in range(n) for j in range(i + 1, n)])

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, [])

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges


@dataclass(frozen=True)
class Bigraph:
    """Bipartite pattern: classes of sizes n1, n2 and ordered edges (u, v)."""

    n1: int
    n2: int
    edges: frozenset

    def __init__(self, n1: int, n2: int, edges: Iterable = ()):
        n1, n2 = as_integer(n1, "class size"), as_integer(n2, "class size")
        if n1 < 0 or n2 < 0:
            raise InvalidInputError("class sizes must be nonnegative")
        object.__setattr__(self, "n1", n1)
        object.__setattr__(self, "n2", n2)
        object.__setattr__(self, "edges", frozenset(_edge_pairs(edges, n1, n2, f"({n1},{n2})")))


@dataclass(frozen=True, eq=False)
class Partition:
    """Assignment of base steps to classes.

    ``base`` are the measures of the steps being partitioned (copied from
    the graphon), ``assign[i]`` is the class id of step i, and ``c`` is the
    number of classes. Every class must be nonempty.
    """

    base: np.ndarray
    assign: tuple
    c: int

    def __init__(self, base, assign: Sequence[int], c: int | None = None):
        base = _measure_vector(base, "base")
        assign = tuple(as_integer(a, "class id") for a in assign)
        if len(assign) != base.size:
            raise InvalidInputError("assignment length must match the base step count")
        if c is None:
            c = (max(assign) + 1) if assign else 0
        c = as_integer(c, "class count")
        if c <= 0:
            raise InvalidInputError("partition needs at least one class")
        seen = [False] * c
        for a in assign:
            if not (0 <= a < c):
                raise InvalidInputError(f"class id {a} out of range [0,{c})")
            seen[a] = True
        if not all(seen):
            raise InvalidInputError("every partition class must be nonempty")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "assign", assign)
        object.__setattr__(self, "c", c)

    @classmethod
    def trivial(cls, base) -> "Partition":
        return cls(base, [0] * len(base), 1)

    @classmethod
    def singletons(cls, base) -> "Partition":
        return cls(base, list(range(len(base))), len(base))

    def classes(self) -> list[list[int]]:
        out = [[] for _ in range(self.c)]
        for i, a in enumerate(self.assign):
            out[a].append(i)
        return out

    def class_measures(self) -> np.ndarray:
        m = np.zeros(self.c)
        np.add.at(m, np.array(self.assign, dtype=int), self.base)
        return m


#: (W, {key: value}) for the graphon W last measured; see ``_derived``
_slot = (None, {})


def _derived(w: StepKernel, key, build):
    """The value ``key`` derived from ``w``, kept while ``w`` is the
    graphon last measured; on a miss ``build()`` makes it and it is kept.

    The slot is one tuple (W, entries), matched to W by identity and
    holding W, so its id is never reused while the slot names it. Asking
    about another graphon replaces the tuple whole, dropping every value
    kept before anything new is built: at most one graphon's values are
    held. Each call reads the slot once, so a call whose slot another
    thread has replaced meanwhile still stores into ``w``'s own entries.
    """
    global _slot
    slot = _slot
    if slot[0] is not w:
        slot = _slot = (w, {})
    value = slot[1].get(key)
    if value is None:
        value = slot[1][key] = build()
    return value


def _require_same_basis(mu: np.ndarray, nu: np.ndarray) -> None:
    if mu.size != nu.size or float(np.max(np.abs(mu - nu))) > MEASURE_TOL:
        raise BasisMismatchError("operands must share step count and measures")


def check_basis(p: Partition, w: StepGraphon) -> None:
    _require_same_basis(p.base, w.mu)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def graphon_from_graph(g: Graph) -> StepGraphon:
    """Adjacency stepfunction of a graph: uniform steps, diagonal 0."""
    if g.n == 0:
        raise InvalidInputError("cannot build a graphon from the empty graph")
    w = np.zeros((g.n, g.n))
    for u, v in g.edges:
        w[u, v] = w[v, u] = 1.0
    return StepGraphon(np.full(g.n, 1.0 / g.n), w)


def bigraphon_from_bigraph(b: Bigraph) -> StepBigraphon:
    """0-1 step bigraphon of a bigraph with uniform measures on both sides."""
    if b.n1 == 0 or b.n2 == 0:
        raise InvalidInputError("cannot build a bigraphon from an empty side")
    w = np.zeros((b.n1, b.n2))
    for u, v in b.edges:
        w[u, v] = 1.0
    return StepBigraphon(np.full(b.n1, 1.0 / b.n1), np.full(b.n2, 1.0 / b.n2), w)


def as_bigraphon(w: StepGraphon) -> StepBigraphon:
    """View a graphon as a bigraphon on two copies of its step space."""
    return StepBigraphon(w.mu, w.mu, w.w)


def difference(u: StepGraphon | StepKernel, w: StepGraphon | StepKernel) -> StepKernel:
    """Signed kernel u - w on a shared basis."""
    _require_same_basis(u.mu, w.mu)
    return StepKernel(u.mu, u.w - w.w)


def operator_product_values(u_values: np.ndarray, w_values: np.ndarray,
                            mu: np.ndarray) -> np.ndarray:
    """Raw operator product matrix sum_z mu_z u[i,z] w[z,j] (no symmetry)."""
    return np.asarray(u_values) @ (np.asarray(mu)[:, None] * np.asarray(w_values))


def operator_product(u: StepGraphon, w: StepGraphon) -> StepGraphon:
    """Operator product (U o W)(i,j) = sum_z mu_z U[i,z] W[z,j].

    The result of two symmetric factors is itself symmetric only when the
    factors commute (always the case for U = W, the main use). A product
    that comes out asymmetric would be a digraphon, which this library
    does not represent; such inputs are rejected.
    """
    _require_same_basis(u.mu, w.mu)
    m = operator_product_values(u.w, w.w, u.mu)
    if float(np.max(np.abs(m - m.T))) > 1e-12:
        raise InvalidInputError(
            "operator product is not symmetric (non-commuting factors); "
            "only symmetric products are representable")
    m = (m + m.T) / 2.0
    return StepGraphon(u.mu, np.clip(m, 0.0, 1.0))


def square(w: StepGraphon) -> StepGraphon:
    """Operator square W o W."""
    return operator_product(w, w)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def l1_norm(r: StepKernel) -> float:
    """L1 norm sum_ij mu_i mu_j |r_ij|."""
    return float(r.mu @ np.abs(r.w) @ r.mu)


def _subset_sums(rows: np.ndarray) -> np.ndarray:
    # row s is the sum of the rows whose bits are set in s, built by doubling
    sums = np.empty((1 << len(rows), rows.shape[1]))
    sums[0] = 0.0
    for i, row in enumerate(rows):
        np.add(sums[:1 << i], row, out=sums[1 << i:2 << i])
    return sums


def rectangle_max(a: np.ndarray, *, larger_side: bool = False) -> tuple[float, float] | float:
    """Largest positive and negative rectangle sums of ``a``:
    (max_{S,T} sum_{S x T} a, max_{S,T} -sum_{S x T} a), both >= 0; with
    ``larger_side`` only the larger of the two, max_{S,T} |sum_{S x T} a|.
    ``szemeredi_error`` adds each sign over its blocks, so it takes both;
    ``cut_norm`` reads only the larger and sets ``larger_side``.

    ``a`` must be a finite 2-d array (else ``InvalidInputError``) whose
    shorter side, as given, has at most ``CUT_NORM_MAX_STEPS`` rows or
    columns (else ``SizeLimitError``), since that side is enumerated.

    For a fixed row set S the best column set takes every column of the
    sign wanted, and sum_j max(0, -c_j) = sum_j max(0, c_j) - sum_j c_j, so
    one pass over S gives both sides. All-zero rows and columns are
    dropped (exact) and the shorter side is enumerated, by meet in the
    middle: the subset sums of each half of the rows are (m, 2^half)
    tables, a pair of a high-half sum h and a low-half sum l has column
    sums h + l, and its positive side is fl(h_j + l_j), then max(0, .),
    summed in column order j = 0..m-1, its negative side that sum minus
    (h total + l total). Every evaluation is a block of high sums against
    low sums, laid out as one C-order (m, shorter side, longer side) array
    summed down its first axis, which numpy adds in that order for every
    shape but a lone (m, 1, 1) column, which it adds pairwise; so a block
    takes at least two low sums. fl(h_j + l_j) = fl(l_j + h_j), so either
    way round each pair is the same float, and numpy's inner loop runs
    along the longer side. A one-row matrix (k = 1), whose one-column low
    table the full sweep adds pairwise, is two sums.

    Pairs that cannot beat the best value found so far are skipped, by a
    separable bound: max(0, x + y) <= max(0, x - c_j) + max(0, y + c_j),
    so for any vector c the side of sign s (+1 or -1) of (h, l) is at most
    P_h + Q_l, with P_h = sum_j max(0, s h_j - c_j) and
    Q_l = sum_j max(0, s l_j + c_j). Each side is centred on a seed pair
    (h*, l*) of its own, found by alternating maximisation on ``a``
    itself: from the rows i with s sum_j a_ij > 0, keep the columns whose
    sum over the chosen rows, times s, is positive, then the rows whose
    sum over those columns is, until nothing changes or k rounds have run
    (both signs as one (2, k, m) product). The seed row set splits into
    its high-half and low-half indices h* and l*, and the 2 x 2 block of
    both signs' seed pairs is evaluated, so each side starts from exact
    floats. c = (s h* - s l*) / 2 makes the bound tight at the seed. The high
    sums, in decreasing order of P, are then swept in blocks against the
    prefix of the low sums, in decreasing order of Q, whose bound with the
    block's first high sum, plus ``margin``, beats the side's best value;
    the side ends when no low sum does. A block ends where a high sum's own
    prefix would fall below half of the first one's, or at
    ``RECTANGLE_BLOCK`` pair columns, which only moves time. Every pair
    evaluated updates both sides, and a skipped pair never holds a larger
    value, so both results equal the full sweep's bit for bit.

    Only the sums that can still be swept are sorted. When a side starts,
    a high sum h can pass only if P_h + max Q + ``margin`` beats its best
    value, and a low sum l only if Q_l + max P + ``margin`` does; the best
    value only grows and rounding is monotone, so each set is a prefix of
    its full decreasing order, ties included, and one comparison selects
    it. A block takes at least two low sums, so at least two are kept.

    ``margin`` is 4 (k + m) 2^-53 (sum|a| + 2 sum|c|) for a k x m matrix,
    plus k + m units of the smallest subnormal for the rounding of the
    margin itself where it is subnormal (a sum or difference that lands
    there is exact). Let A = sum_j (|h_j| + |l_j|) <= (1 + k 2^-53) sum|a|
    for a pair and C = sum_j |c_j|. To first order in 2^-53:

    - the evaluated positive side exceeds the exact side of the stored h
      and l by at most 2^-53 A for fl(h_j + l_j) and (m - 1) 2^-53 A for
      its sum; the negative side adds (m - 1) 2^-53 A for the two totals,
      2^-53 A for their sum and 2^-53 A for the difference: (2m + 1) 2^-53 A;
    - each term fl(s h_j - c_j) of P and fl(s l_j + c_j) of Q is off by at
      most 2^-53 (|h_j| + |c_j|) and 2^-53 (|l_j| + |c_j|), each sum adds
      (m - 1) times as much, and fl(P + Q) and adding ``margin`` round
      once each, so the rounded bound falls short of the exact bound by at
      most (m + 2) 2^-53 (A + 2C); the comparison is exact.

    Together that is at most (3m + 3) 2^-53 (A + 2C), below ``margin``. The
    bound holds for the computed c as it is, whatever its rounding, as long
    as both tables are shifted by the same c; the centre only decides
    which pairs are swept.

    The side whose best value is larger after the seeds is swept first.
    With ``larger_side`` every comparison above that selects sums or sizes
    a block is made against the larger of the two best values, not the
    side's own. That is exact for the larger side: a pair skipped on side
    s has a side-s value at most its bound plus ``margin``, so at most the
    larger best value then, and both best values only grow, so at most the
    final maximum; its other side is evaluated or skipped by that side's
    own sweep. The seeds, ``evaluate`` and the margin are the same, so
    every pair that could hold the maximum is evaluated as the same float,
    and the value is max(positive, negative) of the full sweep bit for
    bit, while the pairs of the smaller side below the larger value are
    never swept.

    An enumeration of at most ``RECTANGLE_BLOCK`` pair columns (2^k m) is
    one block, swept without bounds. The worst case skips almost nothing
    (on an entrywise nonnegative matrix the negative side is rounding
    noise below ``margin``, swept whole unless ``larger_side``): O(2^k m)
    time, in O(2^{k/2} m + RECTANGLE_BLOCK) memory.
    """
    a = _real_array(a)
    if a.ndim != 2 or not np.isfinite(a).all():
        raise InvalidInputError("rectangle_max takes a finite 2-d array")
    if min(a.shape) > CUT_NORM_MAX_STEPS:
        raise SizeLimitError(
            f"rectangle_max enumerates 2^k subsets of the shorter side; "
            f"k={min(a.shape)} exceeds {CUT_NORM_MAX_STEPS}")

    def result(pos, neg):
        return max(pos, neg) if larger_side else (pos, neg)

    nonzero = a != 0.0
    nonzero_rows, nonzero_cols = nonzero.any(axis=1), nonzero.any(axis=0)
    if not (nonzero_rows.all() and nonzero_cols.all()):
        a = a[nonzero_rows][:, nonzero_cols]
    if a.size == 0:
        return result(0.0, 0.0)
    if a.shape[0] > a.shape[1]:
        a = a.T
    k, m = a.shape
    if k == 1:
        gain = float(np.maximum(a[0], 0.0).sum())
        return result(gain, max(0.0, gain - float(a[0].sum())))
    half = k // 2
    low = _subset_sums(a[:half]).T.copy()
    high = _subset_sums(a[half:])
    # the full sweep's totals: high rows added pairwise, low columns in order
    low_total, high_total = low.sum(axis=0), high.sum(axis=1)
    high = high.T.copy()
    best = [0.0, 0.0]

    def evaluate(rows, lows, lows_total, cols):
        # both sides of every pair in rows x cols, noted in ``best``: one
        # C-order (m, shorter side, longer side) sum, whose maximum is the
        # same either way round; without order="C" numpy may lay the sum
        # out with m fastest and add it pairwise
        x, y = high[:, rows], lows[:, cols]
        totals = high_total[rows, None] + lows_total[cols]
        if x.shape[1] > y.shape[1]:
            x, y, totals = y, x, totals.T
        gains = np.add(x[:, :, None], y[:, None, :], order="C")
        np.maximum(gains, 0.0, out=gains)
        gain = gains.sum(axis=0)
        best[0] = max(best[0], float(gain.max()))
        best[1] = max(best[1], float((gain - totals).max()))

    if high.size * low.shape[1] <= RECTANGLE_BLOCK:
        # one block holds every pair, and the bounds would cost more than
        # they skip
        evaluate(slice(None), low, low_total, slice(None))
        return result(*best)
    # both signs' seed pairs (h*, l*) and centres c, as the docstring says;
    # row 0 of each stacked array is the positive side, row 1 the negative
    signs = np.array([[1.0], [-1.0]])

    def bounds(table, shift):
        # sum over the columns j of max(0, s t_j + shift) for both signs s,
        # in one buffer, so no stacked temporary outgrows a swept block
        x = signs[:, :, None] * table
        x += shift
        return np.maximum(x, 0.0, out=x).sum(axis=1)

    # the seed row sets, by alternating maximisation on both signs of a
    signed = signs[:, :, None] * a
    chosen = signed.sum(axis=2) > 0.0
    for _ in range(k):
        picked = np.matmul(chosen[:, None, :], signed)[:, 0] > 0.0
        kept = np.matmul(signed, picked[:, :, None])[:, :, 0] > 0.0
        if np.array_equal(kept, chosen):
            break
        chosen = kept
    low_seeds = chosen[:, :half] @ (1 << np.arange(half))
    high_seeds = chosen[:, half:] @ (1 << np.arange(k - half))
    evaluate(high_seeds, low, low_total, low_seeds)
    centre = signs * (high[:, high_seeds] - low[:, low_seeds]).T / 2.0
    margin = (k + m) * (2.0 ** -51 * (float(np.abs(a).sum())
                                      + 2.0 * np.abs(centre).sum(axis=1)) + 2.0 ** -1074)
    high_bound = bounds(high, -centre[:, :, None])
    low_bound = bounds(low, centre[:, :, None])
    high_max, low_max = high_bound.max(axis=1), low_bound.max(axis=1)

    def floor(side):
        # the value a pair must beat on this side to change the result
        return max(best) if larger_side else best[side]

    for side in ((0, 1) if best[0] >= best[1] else (1, 0)):
        high_side, low_side = high_bound[side], low_bound[side]
        # the only sums this side can still sweep: a prefix of each order
        rows = np.flatnonzero((high_side + low_max[side]) + margin[side] > floor(side))
        lows = np.flatnonzero((low_side + high_max[side]) + margin[side] > floor(side))
        if rows.size == 0:
            # no pair of this side can beat the floor (only with larger_side)
            continue
        if lows.size == 1:
            # a block evaluates at least two low sums
            lows = np.argsort(-low_side, kind="stable")[:2]
        rows = rows[np.argsort(-high_side[rows], kind="stable")]
        lows = lows[np.argsort(-low_side[lows], kind="stable")]
        high_side, low_side = high_side[rows], low_side[lows]
        lows_total, lows = low_total[lows], low[:, lows]
        start = 0
        while start < len(rows):
            c = int(np.count_nonzero((high_side[start] + low_side) + margin[side] > floor(side)))
            if c == 0:
                break
            block_bounds = high_side[start:start + max(1, RECTANGLE_BLOCK // (m * c))]
            size = int(np.count_nonzero(
                (block_bounds + low_side[(c - 1) // 2]) + margin[side] > floor(side)))
            evaluate(rows[start:start + size], lows, lows_total, slice(max(c, 2)))
            start += size
    return result(*best)


def cut_norm(r: StepKernel) -> float:
    """Cut norm sup_{S,T} |sum_{i in S, j in T} mu_i mu_j r_ij|, exactly,
    for k <= 24 steps (``CUT_NORM_MAX_STEPS``); above, ``SizeLimitError``.

    For stepfunctions the supremum over measurable sets is attained on
    unions of steps: with fractional memberships the objective is bilinear
    and a box-constrained bilinear maximum sits at a vertex. The value is
    ``rectangle_max(a, larger_side=True)``, the larger of its two sides:
    the full enumeration of the 2^k row subsets' values, bit for bit, with
    pruning described there. Only the larger side is asked for, so a pair
    is swept only if its bound beats the larger best value so far, on
    either sign; a pair of the smaller sign below it cannot change the
    value. An all-zero kernel (such as W - W_P on an all-singletons
    partition) returns 0.0 without any search, after the size guard.
    """
    if r.k > CUT_NORM_MAX_STEPS:
        raise SizeLimitError(
            f"exact cut norm enumerates 2^k subsets; k={r.k} exceeds {CUT_NORM_MAX_STEPS}")
    a = r.mu[:, None] * r.mu[None, :] * r.w
    if not a.any():
        return 0.0
    return rectangle_max(a, larger_side=True)


def cut_norm_upper(r: StepKernel) -> float:
    """Proven upper bound on ``cut_norm(r)`` at any k: the smaller of
    ``l1_norm(r)`` (the float a report carries as its L1 error) and
    |M|_2 + ``padding``, M = D^{1/2} R D^{1/2}, D = diag(mu). An all-zero
    kernel returns 0.0 without an eigen-solve.

    With u = D^{1/2} 1_S, v = D^{1/2} 1_T: |u|^2 = mu(S) <= 1, |v|^2 <= 1
    and sum_{S x T} mu_i mu_j r_ij = u^T M v, so the cut norm is at most
    |M|_2, the largest |eigenvalue| of the symmetric M. The L1 term is
    off only by its own rounding, which could matter only where the cut
    norm equals the L1 norm (a one-signed R), never for a residual
    W - W_P: its entries sum to 0, so its cut norm is at most half its L1.

    ``padding`` is k 2^-40 |M'|_F for the computed M'. With e = 2^-53, to
    first order: each entry of M' is four roundings off M's, so
    |M' - M|_2 <= |M' - M|_F <= 4e |M|_F; ``eigvalsh`` (LAPACK, reading one
    triangle of M') returns the exact eigenvalues of M' + E with
    |E|_2 <= p(k) e |M'|_2, p a modestly growing function, and by Weyl's
    inequality that moves each by at most |E|_2. So |M|_2 <= max |computed
    eigenvalue| + (p(k) + 4) e |M'|_F, inside the padding, 2^13 k e |M'|_F,
    with room for the padding's own roundings and for the exact
    enumeration's (a few k e sum |mu_i mu_j r_ij| <= k e |M|_F, by
    Cauchy-Schwarz), so a computed exact value never exceeds the bound.

    The eigen-solve is skipped where the L1 term is the smaller one for
    sure: every column of M has |M e_j|_2 <= |M|_2, and |M|_2 is at most
    the computed spectral term plus padding, so a computed column norm
    above twice the L1 term (each off by a few k e relative) proves that
    the spectral term would exceed the L1 term, and the min is the L1
    term bit for bit. Returning the L1 term is sound in any case.
    """
    if not r.w.any():
        return 0.0
    s = np.sqrt(r.mu)
    m = s[:, None] * r.w * s[None, :]
    l1 = l1_norm(r)
    if np.sqrt((m * m).sum(axis=0).max()) > 2.0 * l1:
        return l1
    spectral = float(np.max(np.abs(np.linalg.eigvalsh(m))))
    padding = r.k * 2.0 ** -40 * float(np.linalg.norm(m))
    return min(l1, spectral + padding)


# ---------------------------------------------------------------------------
# partition aggregation and step surgery
# ---------------------------------------------------------------------------

def aggregate(w: StepGraphon, p: Partition) -> StepGraphon:
    """Stepping of W on a partition: W_P, pulled back to the original steps.

    The value on (i, j) is the measure-weighted average of W over
    class(i) x class(j), computed as Z^T W Z with the membership weight
    z_ia = mu_i / (measure of class a). A singleton class has weight
    exactly 1.0, so W_P equals W bit for bit on singleton x singleton
    blocks, and the all-singletons partition reproduces W. Aggregating
    twice with the same partition is a no-op up to rounding.

    An all-singletons partition (in any order) skips the products: with
    every weight 1.0 and W symmetric they give W back, so W's values are
    returned, with a -0.0 read as 0.0, as the products' sums read it.
    """
    check_basis(p, w)
    if p.c == w.k:
        return StepGraphon(w.mu, w.w + 0.0)
    assign = np.array(p.assign, dtype=int)
    z = np.zeros((w.k, p.c))
    cmass = np.bincount(assign, weights=w.mu, minlength=p.c)
    z[np.arange(w.k), assign] = w.mu / cmass[assign]
    block = z.T @ w.w @ z
    block = (block + block.T) / 2.0
    out = block[np.ix_(assign, assign)]
    return StepGraphon(w.mu, np.clip(out, 0.0, 1.0))


def split_step(w: StepGraphon, i: int, parts: int) -> StepGraphon:
    """Replace step i by ``parts`` twin copies of measure mu_i / parts.

    The result is weakly isomorphic to the input: all densities are
    preserved.
    """
    i, parts = as_integer(i, "step index"), as_integer(parts, "parts")
    if not (0 <= i < w.k):
        raise InvalidInputError(f"step index {i} out of range [0,{w.k})")
    if parts < 2:
        raise InvalidInputError("parts must be at least 2")
    idx = list(range(i)) + [i] * parts + list(range(i + 1, w.k))
    mu = w.mu[idx].copy()
    mu[i:i + parts] = w.mu[i] / parts
    return StepGraphon(mu, w.w[np.ix_(idx, idx)])


def blow_up(h: Graph, sizes: Sequence[int], internal: Sequence[bool]) -> Graph:
    """Blow-up of h: node v becomes a set of ``sizes[v]`` twins.

    Nodes in different sets are adjacent iff the originals were; inside a
    set all pairs are adjacent iff ``internal[v]``.
    """
    if len(sizes) != h.n or len(internal) != h.n:
        raise InvalidInputError("sizes and internal flags must have one entry per node")
    sizes = [as_integer(s, "blow-up size") for s in sizes]
    if any(s < 1 for s in sizes):
        raise InvalidInputError("blow-up sizes must be positive")
    offsets = np.concatenate(([0], np.cumsum(sizes))).astype(int)
    edges = []
    for u, v in h.edges:
        for x in range(offsets[u], offsets[u + 1]):
            for y in range(offsets[v], offsets[v + 1]):
                edges.append((x, y))
    for u in range(h.n):
        if internal[u]:
            for x in range(offsets[u], offsets[u + 1]):
                for y in range(x + 1, offsets[u + 1]):
                    edges.append((x, y))
    return Graph(int(offsets[-1]), edges)
