"""Exact homomorphism-type densities of patterns in stepfunctions.

Densities are exact sums over all assignments of pattern nodes to steps.
Rooted ("partial") variants fix some nodes at given steps; per our
convention rooted nodes carry no measure factor, only the unassigned
nodes are integrated. Each pattern kind has one entry point and one
guard, which counts only the nodes that entry point enumerates: a graph
density is one planned einsum over its free nodes; a bigraph density is
a broadcast product that enumerates the free nodes of one class only.
"""

from __future__ import annotations

import math
import string
from collections import Counter
from typing import Iterable, Mapping

import numpy as np

from .core import Bigraph, Graph, StepBigraphon, StepGraphon
from .errors import InvalidInputError, SizeLimitError, as_integer

#: assignments guard: reject densities whose enumerated nodes x log2(k) exceed this
PATTERN_GUARD_BITS = 40.0

_LETTERS = string.ascii_letters

#: a rooted assignment is a plain mapping node -> step index
StepAssignment = Mapping[int, int]


def _guard(n_nodes: int, k: int) -> None:
    if n_nodes * math.log2(max(k, 1)) > PATTERN_GUARD_BITS:
        raise SizeLimitError(
            f"pattern too large: {n_nodes} enumerated nodes over {k} steps exceeds the "
            f"2^{PATTERN_GUARD_BITS:.0f}-assignment guard")


def _check_assignment(x: StepAssignment, s, k: int, n: int, side: str = "") -> dict:
    s = set(as_integer(v, "rooted node") for v in s)
    x = {as_integer(a, "rooted node"): as_integer(b, "assigned step") for a, b in x.items()}
    if set(x) != s:
        raise InvalidInputError(f"assignment must cover exactly the rooted set {side}".rstrip())
    for v, step in x.items():
        if not (0 <= v < n):
            raise InvalidInputError(f"rooted node {v} is not a pattern node {side}".rstrip())
        if not (0 <= step < k):
            raise InvalidInputError(f"assigned step {step} out of range for node {v}")
    return x


def density(f: Graph, w: StepGraphon) -> float:
    """Homomorphism density t(F, W)."""
    return partial_density(f, (), {}, w, induced=False)


def induced_density(f: Graph, w: StepGraphon) -> float:
    """Induced density t_ind(F, W): non-adjacent pairs contribute (1 - W)."""
    return partial_density(f, (), {}, w, induced=True)


def partial_density(f: Graph, s: Iterable[int], x: StepAssignment,
                    w: StepGraphon, induced: bool = False) -> float:
    """Rooted density t_S(F, W; x): integrate only over V \\ S.

    One einsum, planned so that it stays within numpy's operand limit, over
    the edge values (sorted edges), the non-edge values 1 - W if
    ``induced``, then a measure per free node; rooted nodes index their
    axes. The free nodes x log2(k) must stay within the guard bits.
    """
    if f.n == 0:
        raise InvalidInputError("pattern graph has no nodes")
    fixed = _check_assignment(x, s, w.k, f.n)
    free = [v for v in range(f.n) if v not in fixed]
    _guard(len(free), w.k)
    if len(free) > len(_LETTERS):
        raise SizeLimitError("pattern too large for tensor contraction")
    letter = dict(zip(free, _LETTERS))
    factors = [(w.w, e) for e in sorted(f.edges)]
    if induced:
        comp = 1.0 - w.w
        factors += [(comp, (u, v)) for u in range(f.n) for v in range(u + 1, f.n)
                    if (u, v) not in f.edges]
    scalar, operands, subs = 1.0, [], []
    for t, pair in factors:
        ends = [v for v in pair if v in letter]
        t = t[tuple(fixed.get(v, slice(None)) for v in pair)]
        if not ends:
            scalar *= float(t)
            continue
        operands.append(t)
        subs.append("".join(letter[v] for v in ends))
    operands += [w.mu] * len(free)
    subs += letter.values()
    if not operands:
        return scalar
    return scalar * float(np.einsum(",".join(subs) + "->", *operands, optimize=True))


def bigraph_density(f: Bigraph, w: StepBigraphon, induced: bool = False) -> float:
    """Bigraph density t^b(F, W), or t^b_ind with ``induced``."""
    return partial_bigraph_density(f, (), (), {}, {}, w, induced=induced)


def partial_bigraph_density(f: Bigraph, s1: Iterable[int], s2: Iterable[int],
                            x: StepAssignment, y: StepAssignment,
                            w: StepBigraphon, induced: bool = False) -> float:
    """Rooted bigraph density integrating only over the unassigned nodes,
    factored over one class.

    The class with fewer free nodes (class 1 on a tie) is enumerated on a
    grid, one axis per free node; free nodes x log2(its step count) must
    stay within the guard bits. Each node of the other class gives a
    factor: the product of its edge (and, if ``induced``, non-edge) rows,
    laid along its neighbours' axes or read at their roots, summed against
    its measure or read at its root; twins share a factor, raised to their
    multiplicity. The last free neighbour's rows enter that sum as a matrix
    product, so no array spans both the grid and the other class's steps.
    """
    if f.n1 == 0 and f.n2 == 0:
        raise InvalidInputError("pattern bigraph has no nodes")
    x = _check_assignment(x, s1, w.k1, f.n1, "of class 1")
    y = _check_assignment(y, s2, w.k2, f.n2, "of class 2")
    sides = [(f.n1, w.mu1, x), (f.n2, w.mu2, y)]
    edges, mat = f.edges, w.w
    if f.n2 - len(y) < f.n1 - len(x):
        sides.reverse()
        edges, mat = {(v, u) for u, v in edges}, mat.T
    (n_a, mu_a, x_a), (n_b, mu_b, x_b) = sides
    axis = {u: i for i, u in enumerate(u for u in range(n_a) if u not in x_a)}
    _guard(len(axis), len(mu_a))
    comp = 1.0 - mat

    def laid(t, u):  # u's rows at its root, or along its axis with b's steps last
        shape = [len(mu_a) if i == axis.get(u) else 1 for i in axis.values()] + [len(mu_b)]
        return t[x_a[u]] if u in x_a else t.reshape(shape)

    twins = Counter((tuple(u for u in range(n_a) if (u, v) in edges), x_b.get(v))
                    for v in range(n_b))
    grid = np.ones((len(mu_a),) * len(axis))
    for (nbrs, root), mult in twins.items():
        nu = mu_b if root is None else np.eye(len(mu_b))[root]  # a root is read, not summed
        rows = {u: mat if u in nbrs else comp for u in (range(n_a) if induced else nbrs)}
        last = max(rows.keys() & axis.keys(), default=None)
        part = np.ones([1] * len(axis) + [len(mu_b)])
        for u in [u for u in rows if u != last]:
            part = part * laid(rows[u], u)
        # the last free neighbour meets b's steps in a matrix product
        factor = part @ nu if last is None else np.swapaxes(
            part @ (rows[last] * nu).T, axis[last], -1)[..., 0]
        grid = grid * factor ** mult
    for _ in axis:
        grid = grid @ mu_a
    return float(grid)
