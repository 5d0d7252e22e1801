"""Set systems: VC dimension, DE-dimension, transversals, and the
neighborhood families of 0-1 stepfunctions.

Sets are bitmasks over a ground set [0, m). An optional weight vector on
the ground set (summing to 1) turns the family into a measured one, which
the DE-dimension and the transversal/packing bounds need.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence

import numpy as np

from .core import Bigraph, StepGraphon, _frozen_array, as_bigraphon
from .densities import bigraph_integral
from .errors import GraphonError, HypothesisError, InvalidInputError, SizeLimitError

#: an atom counts as present when its weight exceeds this
ATOM_TOL = 1e-12

VC_MAX_GROUND = 25
DE_MAX_SETS = 20
SHATTER_MAX = 25
TRANSVERSAL_MAX_SETS = 10_000


def _to_mask(s: Iterable[int] | int, m: int) -> int:
    if isinstance(s, (int, np.integer)):
        mask = int(s)
        if mask < 0 or mask >> m:
            raise InvalidInputError("bitmask outside the ground set")
        return mask
    mask = 0
    for e in s:
        e = int(e)
        if not (0 <= e < m):
            raise InvalidInputError(f"element {e} outside ground set of size {m}")
        mask |= 1 << e
    return mask


def _mask_to_set(mask: int) -> list[int]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


@dataclass(frozen=True, eq=False)
class SetFamily:
    """Family of subsets of [0, m), deduplicated, in first-seen order."""

    m: int
    sets: tuple
    weights: np.ndarray | None = None

    def __init__(self, m: int, sets: Iterable, weights=None):
        m = int(m)
        if m < 0:
            raise InvalidInputError("ground set size must be nonnegative")
        masks, seen = [], set()
        for s in sets:
            mask = _to_mask(s, m)
            if mask not in seen:
                seen.add(mask)
                masks.append(mask)
        if weights is not None:
            weights = _frozen_array(weights)
            if weights.size != m:
                raise InvalidInputError("weights must have one entry per ground element")
            if np.any(weights < 0):
                raise InvalidInputError("weights must be nonnegative")
            if abs(float(weights.sum()) - 1.0) > 1e-9:
                raise InvalidInputError("weights must sum to 1 (tolerance 1e-9)")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "sets", tuple(masks))
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return len(self.sets)

    def members(self) -> list[list[int]]:
        return [_mask_to_set(s) for s in self.sets]

    def set_weight(self, mask: int) -> float:
        if self.weights is None:
            raise InvalidInputError("family has no ground-set weights")
        return float(sum(self.weights[i] for i in _mask_to_set(mask)))


def is_shattered(h: SetFamily, s: Iterable[int] | int) -> bool:
    """True iff every subset of s appears as a trace Y & s, Y in h."""
    mask = _to_mask(s, h.m)
    size = bin(mask).count("1")
    if size > SHATTER_MAX:
        raise SizeLimitError(f"shattering check limited to sets of size {SHATTER_MAX}")
    if not h.sets:
        return False
    traces = {y & mask for y in h.sets}
    return len(traces) == (1 << size)


def vc_dimension(h: SetFamily) -> int:
    """Exact VC dimension; -1 for the empty family (nothing shattered).

    Level-by-level search: only supersets of shattered sets can be
    shattered, and no set larger than log2 |h| can be.
    """
    if h.m > VC_MAX_GROUND:
        raise SizeLimitError(f"exact VC dimension limited to ground sets of {VC_MAX_GROUND}")
    if not h.sets:
        return -1
    max_d = min(h.m, int(np.log2(len(h.sets))) if len(h.sets) > 1 else 0)
    level = [0]
    depth = 0
    while depth < max_d:
        nxt = []
        for s in level:
            top = s.bit_length()
            for b in range(top, h.m):
                cand = s | (1 << b)
                if is_shattered(h, cand):
                    nxt.append(cand)
        if not nxt:
            break
        level = nxt
        depth += 1
    return depth


def sym_diff_family(h: SetFamily) -> SetFamily:
    """Family of all pairwise symmetric differences A ^ B (includes 0)."""
    out = {a ^ b for a in h.sets for b in h.sets}
    if h.sets:
        out.add(0)
    return SetFamily(h.m, sorted(out), h.weights)


def transversal_number(h: SetFamily) -> int:
    """Minimum size of a set of ground elements meeting every member.

    Branch and bound: branch on the elements of the lowest-index
    uncovered set.
    """
    if 0 in h.sets:
        raise HypothesisError("the empty set admits no transversal")
    if h.m > VC_MAX_GROUND or len(h.sets) > TRANSVERSAL_MAX_SETS:
        raise SizeLimitError("transversal search out of the exact-size range")
    if not h.sets:
        return 0
    best = h.m

    def search(remaining: list[int], used: int) -> None:
        nonlocal best
        if used >= best:
            return
        if not remaining:
            best = used
            return
        first = remaining[0]
        for e in _mask_to_set(first):
            bit = 1 << e
            search([s for s in remaining if not (s & bit)], used + 1)

    search(list(h.sets), 0)
    return best


def _atoms_all_positive(masks: Sequence[int], weights: np.ndarray, m: int) -> bool:
    d = len(masks)
    acc = np.zeros(1 << d)
    for i in range(m):
        sig = 0
        for j, s in enumerate(masks):
            if s >> i & 1:
                sig |= 1 << j
        acc[sig] += weights[i]
    return bool(np.all(acc > ATOM_TOL))


def de_dimension(h: SetFamily) -> int:
    """Dual essential VC dimension: the largest qualitatively independent
    subfamily, i.e. one with all 2^d Boolean atoms of weight > 1e-12.

    Qualitative independence is closed under taking subfamilies, so the
    search grows level by level; 2^d positive atoms need at least 2^d
    weighted points, which caps the depth at log2(m).
    """
    if h.weights is None:
        raise InvalidInputError("DE-dimension needs ground-set weights")
    if len(h.sets) > DE_MAX_SETS:
        raise SizeLimitError(f"exact DE-dimension limited to {DE_MAX_SETS} sets")
    positive = int(np.sum(h.weights > ATOM_TOL))
    level = [()]
    depth = 0
    while True:
        if (2 << depth) > max(positive, 1):
            break
        nxt = []
        for combo in level:
            start = combo[-1] + 1 if combo else 0
            for i in range(start, len(h.sets)):
                cand = combo + (i,)
                if _atoms_all_positive([h.sets[j] for j in cand], h.weights, h.m):
                    nxt.append(cand)
        if not nxt:
            break
        level = nxt
        depth += 1
    return depth


def neighborhood_family(w: StepGraphon) -> tuple[SetFamily, list[int]]:
    """Supports of the distinct rows of a 0-1 stepfunction.

    Ground set = steps weighted by their measures. Duplicate rows are
    deduplicated; the second return value records how many steps share
    each distinct row.
    """
    if not w.is_zero_one():
        raise InvalidInputError("neighborhood family requires a 0-1 stepfunction")
    counts = Counter(sum(1 << j for j in range(w.k) if w.w[i, j] == 1.0)
                     for i in range(w.k))
    return SetFamily(w.k, list(counts), w.mu), list(counts.values())


def witness_bigraph(d: int) -> Bigraph:
    """The exclusion witness with d+1 left nodes and all 2^(d+1) distinct
    right neighborhoods."""
    n1 = d + 1
    edges = [(i, j) for j in range(1 << n1) for i in range(n1) if j >> i & 1]
    return Bigraph(n1, 1 << n1, edges)


def thinness_witness(w: StepGraphon, kmax: int) -> Bigraph | None:
    """Search for an excluded induced sub-bigraph of a 0-1 stepfunction.

    Computes d = DE-dimension of the neighborhood family; if d < kmax the
    witness with d+1 and 2^(d+1) nodes is excluded, and the exact density
    check t^b_ind(F, W) = 0 is verified before returning it. Returns None
    when d >= kmax.
    """
    if kmax < 1 or kmax > 6:
        raise InvalidInputError("kmax must be between 1 and 6")
    fam, _ = neighborhood_family(w)
    d = de_dimension(fam)
    if d >= kmax:
        return None
    f = witness_bigraph(d)
    val = bigraph_integral(f, as_bigraphon(w), induced=True)
    if val != 0.0:
        raise GraphonError(
            f"internal error: witness density {val} nonzero at DE-dimension {d}")
    return f


def sauer_shelah_bound(m: int, k: int) -> int:
    """1 + C(m,1) + ... + C(m,k); zero when k < 0."""
    return sum(comb(m, i) for i in range(0, k + 1)) if k >= 0 else 0
