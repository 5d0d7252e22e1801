"""Finite representations of graphons and bigraphons.

Everything here is a stepfunction: a symmetric matrix of values together
with positive step measures summing to 1. All values are immutable after
construction (arrays are copied in and marked read-only), and every
operation is a pure function, so concurrent use on shared inputs is safe.
The value types that hold arrays (kernels, graphons, bigraphons and
partitions) compare and hash by identity, so any of them can key a dict;
``Graph`` and ``Bigraph`` compare by value.

One derived quantity is kept: a ``Partition`` remembers the residual
W - W_P of the last graphon it was measured against (and, once computed,
its exact cut norm), so a partition is measured once however often it is
asked about. The memo is one immutable tuple replaced whole, so a
concurrent reader sees the old memo or the new one, never half of one; it
is matched to the graphon by identity and lives only as long as the
partition does. Nothing is cached on graphons or kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import BasisMismatchError, InvalidInputError, SizeLimitError

#: tolerance for measure sums and basis comparisons
MEASURE_TOL = 1e-9

#: largest step count for which the exact cut norm is attempted (2^k subsets)
CUT_NORM_MAX_STEPS = 24

#: elements of one block of subset sums swept by rectangle_max
RECTANGLE_BLOCK = 1 << 18


def _frozen_array(a, dtype=float) -> np.ndarray:
    arr = np.array(a, dtype=dtype)
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("measures and values must be finite")
    arr.setflags(write=False)
    return arr


def _measure_vector(mu, name: str = "mu") -> np.ndarray:
    """``mu`` frozen as step measures: a nonempty 1-d vector of positive
    entries summing to 1 within ``MEASURE_TOL``."""
    mu = _frozen_array(mu)
    if mu.ndim != 1 or mu.size == 0:
        raise InvalidInputError(f"{name} must be a nonempty 1-d vector")
    if np.any(mu <= 0.0):
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
        if np.any(self.w < self._value_lo) or np.any(self.w > self._value_hi):
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
        if np.any(self.w < 0.0) or np.any(self.w > 1.0):
            raise InvalidInputError("bigraphon values must lie in [0, 1]")

    @property
    def k1(self) -> int:
        return self.mu1.size

    @property
    def k2(self) -> int:
        return self.mu2.size

    def is_zero_one(self) -> bool:
        return bool(np.all((self.w == 0.0) | (self.w == 1.0)))


def _canonical_edges(edges, n) -> frozenset:
    out = set()
    for e in edges:
        u, v = int(e[0]), int(e[1])
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidInputError(f"edge ({u},{v}) out of range for {n} nodes")
        if u == v:
            raise InvalidInputError(f"loop at node {u} is not allowed")
        out.add((min(u, v), max(u, v)))
    return frozenset(out)


@dataclass(frozen=True)
class Graph:
    """Simple pattern graph: ``n`` nodes, unordered loop-free edges."""

    n: int
    edges: frozenset

    def __init__(self, n: int, edges: Iterable = ()):
        if n < 0:
            raise InvalidInputError("node count must be nonnegative")
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "edges", _canonical_edges(edges, n))

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
        if n1 < 0 or n2 < 0:
            raise InvalidInputError("class sizes must be nonnegative")
        out = set()
        for e in edges:
            u, v = int(e[0]), int(e[1])
            if not (0 <= u < n1 and 0 <= v < n2):
                raise InvalidInputError(f"edge ({u},{v}) out of range for ({n1},{n2})")
            out.add((u, v))
        object.__setattr__(self, "n1", int(n1))
        object.__setattr__(self, "n2", int(n2))
        object.__setattr__(self, "edges", frozenset(out))


@dataclass(frozen=True, eq=False)
class Partition:
    """Assignment of base steps to classes.

    ``base`` are the measures of the steps being partitioned (copied from
    the graphon), ``assign[i]`` is the class id of step i, and ``c`` is the
    number of classes. Every class must be nonempty.

    ``_residual`` is not a field: it is the memo that ``regularity`` keeps
    of the last graphon W this partition was measured against, as one
    tuple (W, W_P, W - W_P, exact cut norm of W - W_P or None), matched to
    W by identity and replaced whole. ``repr`` and the file formats ignore
    it, and it lives exactly as long as the partition.
    """

    base: np.ndarray
    assign: tuple
    c: int

    _residual = None

    def __init__(self, base, assign: Sequence[int], c: int | None = None):
        base = _frozen_array(base)
        assign = tuple(int(a) for a in assign)
        if len(assign) != base.size:
            raise InvalidInputError("assignment length must match the base step count")
        if c is None:
            c = (max(assign) + 1) if assign else 0
        c = int(c)
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

    def matches(self, w: StepKernel) -> bool:
        return (w.k == self.base.size
                and float(np.max(np.abs(w.mu - self.base))) <= MEASURE_TOL)


def check_basis(p: Partition, w: StepGraphon) -> None:
    if not p.matches(w):
        raise BasisMismatchError("partition base does not match the graphon's steps")


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
    _require_same_basis(u, w)
    return StepKernel(u.mu, u.w - w.w)


def _require_same_basis(u, w) -> None:
    if u.k != w.k or float(np.max(np.abs(u.mu - w.mu))) > MEASURE_TOL:
        raise BasisMismatchError("operands must share step count and measures")


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
    _require_same_basis(u, w)
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
    sums = np.zeros((1, rows.shape[1]))
    for row in rows:
        sums = np.concatenate((sums, sums + row))
    return sums


def rectangle_max(a: np.ndarray) -> tuple[float, float]:
    """Largest positive and negative rectangle sums of ``a``:
    (max_{S,T} sum_{S x T} a, max_{S,T} -sum_{S x T} a), both >= 0.

    For a fixed row set S the best column set takes every column of the
    sign wanted, so each side is a maximum over S alone, and
    sum_j max(0, -c_j) = sum_j max(0, c_j) - sum_j c_j gives both from one
    pass. All-zero rows and columns are dropped first (exact), and the
    shorter side is enumerated. Meet in the middle: the subset sums of
    each half of the rows are tabulated once, and blocks of high-half sums
    are swept against the whole low-half table, so the 2^k subsets cost
    O(2^k m) time in O(2^{k/2} m + RECTANGLE_BLOCK) memory.
    """
    a = np.asarray(a, dtype=float)
    a = a[np.any(a != 0.0, axis=1)][:, np.any(a != 0.0, axis=0)]
    if a.size == 0:
        return 0.0, 0.0
    if a.shape[0] > a.shape[1]:
        a = a.T
    half = a.shape[0] // 2
    low = _subset_sums(a[:half]).T.copy()
    high = _subset_sums(a[half:])
    low_total, high_total = low.sum(axis=0), high.sum(axis=1)
    step = max(1, RECTANGLE_BLOCK // low.size)
    pos = neg = 0.0
    for start in range(0, len(high), step):
        cols = high[start:start + step, :, None] + low
        np.maximum(cols, 0.0, out=cols)
        gain = cols.sum(axis=1)
        pos = max(pos, float(gain.max()))
        gain -= high_total[start:start + step, None] + low_total
        neg = max(neg, float(gain.max()))
    return pos, neg


def _cut_norm_heuristic(a: np.ndarray, restarts: int, seed: int) -> float:
    k = a.shape[0]
    rng = np.random.Generator(np.random.PCG64(seed))
    best = 0.0
    starts = [np.ones(k), (a.sum(axis=1) > 0).astype(float)]
    starts += [(rng.random(k) < 0.5).astype(float) for _ in range(restarts)]
    for b in (a, -a):
        for s0 in starts:
            s = s0.copy()
            val = -np.inf
            for _ in range(100):
                t = (s @ b > 0).astype(float)
                s = (b @ t > 0).astype(float)
                new = float(s @ b @ t)
                if new <= val:
                    break
                val = new
            best = max(best, val)
    return best


def cut_norm(r: StepKernel, mode: str = "exact") -> float:
    """Cut norm sup_{S,T} |sum_{i in S, j in T} mu_i mu_j r_ij|.

    For stepfunctions the supremum over measurable sets is attained on
    unions of steps: with fractional memberships the objective is bilinear
    and a box-constrained bilinear maximum sits at a vertex. Exact mode
    (k <= 24) is ``rectangle_max``: all 2^k row subsets, with the optimal
    column set per sign, in O(2^k k) time and bounded working memory,
    after dropping zero rows and columns. Heuristic mode runs an
    alternating sign-greedy ascent from 20 random restarts under the fixed
    seed 0, so it is deterministic, and returns a lower bound: every value
    it reaches is the sum of an actual rectangle. An all-zero kernel (such
    as W - W_P on an all-singletons partition) returns 0.0 in either mode
    without any search, after the exact mode's size guard.
    """
    if mode not in ("exact", "heuristic"):
        raise InvalidInputError(f"unknown cut norm mode {mode!r}")
    if mode == "exact" and r.k > CUT_NORM_MAX_STEPS:
        raise SizeLimitError(
            f"exact cut norm enumerates 2^k subsets; k={r.k} exceeds {CUT_NORM_MAX_STEPS}")
    a = r.mu[:, None] * r.mu[None, :] * r.w
    if not a.any():
        return 0.0
    if mode == "exact":
        return max(rectangle_max(a))
    return _cut_norm_heuristic(a, restarts=20, seed=0)


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
    """
    check_basis(p, w)
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
    sizes = [int(s) for s in sizes]
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
