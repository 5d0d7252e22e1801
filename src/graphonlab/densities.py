"""Exact homomorphism-type densities of patterns in stepfunctions.

Densities are exact sums over all assignments of pattern nodes to steps,
evaluated as tensor contractions by one integrator. Rooted ("partial")
variants fix some nodes at given steps; per our convention rooted nodes
carry no measure factor, only the unassigned nodes are integrated.
Bigraph densities enumerate one class only: given its steps, every node
of the other class contributes an independent factor.
"""

from __future__ import annotations

import math
import string
from collections import Counter
from typing import Iterable, Mapping

import numpy as np

from .core import Bigraph, Graph, StepBigraphon, StepGraphon
from .errors import InvalidInputError, SizeLimitError

#: assignments guard: reject patterns with |V| * log2(k) above this
PATTERN_GUARD_BITS = 40.0

_LETTERS = string.ascii_letters

#: a rooted assignment is a plain mapping node -> step index
StepAssignment = Mapping[int, int]


def _guard(n_nodes: int, k: int, what: str = "pattern") -> None:
    if n_nodes * math.log2(max(k, 1)) > PATTERN_GUARD_BITS:
        raise SizeLimitError(
            f"{what} too large: {n_nodes} nodes over {k} steps exceeds the "
            f"2^{PATTERN_GUARD_BITS:.0f}-assignment guard")


def _integrate(factors, measures, fixed=None, out=()):
    """Sum a product of step tensors over the assignments of its free nodes.

    ``factors`` is a list of (tensor, nodes) pairs, one tensor axis per
    node. Rooted nodes (``fixed``: node -> step) index their axes; every
    other node is summed against its vector in ``measures``, except the
    nodes in ``out``, which stay as the axes of the result, in that order.
    The path is always planned, so numpy contracts a long product pair by
    pair and stays within its operand limit.
    """
    fixed = fixed or {}
    names = [*measures, *out]
    if len(names) > len(_LETTERS):
        raise SizeLimitError("pattern too large for tensor contraction")
    letter = dict(zip(names, _LETTERS))
    scalar = 1.0
    operands, subs = [], []
    for t, nodes in factors:
        free = [v for v in nodes if v not in fixed]
        if len(free) < len(nodes):
            t = t[tuple(fixed.get(v, slice(None)) for v in nodes)]
        if not free:
            scalar *= float(t)
            continue
        operands.append(t)
        subs.append("".join(letter[v] for v in free))
    for v, mu in measures.items():
        operands.append(mu)
        subs.append(letter[v])
    if not operands:
        return scalar
    spec = ",".join(subs) + "->" + "".join(letter[v] for v in out)
    total = np.einsum(spec, *operands, optimize=True)
    return total if scalar == 1.0 else scalar * total


def _graph_factors(f: Graph, w: StepGraphon, induced: bool):
    factors = [(w.w, e) for e in sorted(f.edges)]
    if induced:
        comp = 1.0 - w.w
        for u in range(f.n):
            for v in range(u + 1, f.n):
                if (u, v) not in f.edges:
                    factors.append((comp, (u, v)))
    return factors


def _check_assignment(x: StepAssignment, s, k: int, n: int, side: str = "") -> dict:
    s = set(int(v) for v in s)
    x = {int(a): int(b) for a, b in x.items()}
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
    """Rooted density t_S(F, W; x): integrate only over V \\ S."""
    if f.n == 0:
        raise InvalidInputError("pattern graph has no nodes")
    _guard(f.n, w.k)
    fixed = _check_assignment(x, s, w.k, f.n)
    measures = {v: w.mu for v in range(f.n) if v not in fixed}
    return float(_integrate(_graph_factors(f, w, induced), measures, fixed))


def bigraph_density(f: Bigraph, w: StepBigraphon, induced: bool = False) -> float:
    """Bigraph density t^b(F, W), or t^b_ind with ``induced``."""
    return partial_bigraph_density(f, (), (), {}, {}, w, induced=induced)


def partial_bigraph_density(f: Bigraph, s1: Iterable[int], s2: Iterable[int],
                            x: StepAssignment, y: StepAssignment,
                            w: StepBigraphon, induced: bool = False) -> float:
    """Rooted bigraph density integrating only over the unassigned nodes."""
    if f.n1 == 0 and f.n2 == 0:
        raise InvalidInputError("pattern bigraph has no nodes")
    _guard(f.n1 + f.n2, max(w.k1, w.k2))
    x = _check_assignment(x, s1, w.k1, f.n1, "of class 1")
    y = _check_assignment(y, s2, w.k2, f.n2, "of class 2")
    return bigraph_integral(f, w, induced, x, y)


def bigraph_integral(f: Bigraph, w: StepBigraphon, induced: bool = False,
                     x: StepAssignment | None = None,
                     y: StepAssignment | None = None) -> float:
    """Rooted bigraph density for checked roots, factored over one class.

    The class with fewer free nodes (class 1 on a tie) is enumerated; its
    free nodes x log2(its step count) must stay within the guard bits.
    Given those steps, each node of the other class contributes its edge
    values (and, if ``induced``, its non-edge values) summed against its
    measure, or read at its rooted step. Nodes with the same neighbourhood
    and root share one factor, raised to their multiplicity. Each factor
    costs k^(enumerated free nodes) times the other class's step count.
    """
    x, y = x or {}, y or {}
    sides = [(f.n1, w.mu1, x), (f.n2, w.mu2, y)]
    edges, mat = f.edges, w.w
    if f.n2 - len(y) < f.n1 - len(x):
        sides.reverse()
        edges, mat = {(v, u) for u, v in edges}, mat.T
    (n_a, mu_a, x_a), (n_b, mu_b, x_b) = sides
    free = {u: mu_a for u in range(n_a) if u not in x_a}
    _guard(len(free), len(mu_a), "enumerated class")
    comp = 1.0 - mat
    twins = Counter((tuple(u for u in range(n_a) if (u, v) in edges), x_b.get(v))
                    for v in range(n_b))
    factors = []
    for (nbrs, root), mult in twins.items():
        touched = range(n_a) if induced else nbrs
        pairs = [(mat if u in nbrs else comp, (u, -1)) for u in touched]
        keep = tuple(u for u in touched if u in free)
        measure, roots = ({-1: mu_b}, x_a) if root is None else ({}, {**x_a, -1: root})
        t = _integrate(pairs, measure, roots, keep)
        factors.append((t ** mult if mult > 1 else t, keep))
    return float(_integrate(factors, free))
