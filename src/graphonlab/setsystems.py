"""Set systems: VC dimension, DE-dimension, transversals, and the
neighborhood families of 0-1 stepfunctions.

Sets are bitmasks over a ground set [0, m). An optional weight vector on
the ground set (summing to 1) turns the family into a measured one, which
the DE-dimension and the transversal/packing bounds need.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from math import comb

import numpy as np

from .core import Bigraph, StepGraphon, _frozen_array, as_bigraphon
from .densities import bigraph_density
from .errors import (CertificationError, HypothesisError, InvalidInputError,
                     SizeLimitError, as_integer)

#: an atom counts as present when its weight exceeds this
ATOM_TOL = 1e-12

VC_MAX_GROUND = 25
DE_MAX_SETS = 20
TRANSVERSAL_MAX_SETS = 10_000


def _to_mask(s: Iterable[int] | int, m: int) -> int:
    if not isinstance(s, Iterable):  # a bitmask: an integer, not a bool
        mask = as_integer(s, "set")
        if mask < 0 or mask >> m:
            raise InvalidInputError("bitmask outside the ground set")
        return mask
    mask = 0
    for e in s:
        e = as_integer(e, "element")
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
        m = as_integer(m, "ground set size")
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


def is_shattered(h: SetFamily, s: Iterable[int] | int) -> bool:
    """True iff every subset of s appears as a trace Y & s, Y in h."""
    mask = _to_mask(s, h.m)
    traces = {y & mask for y in h.sets}
    return len(traces) == (1 << bin(mask).count("1"))


def _largest_closed(n: int, cap: int, holds) -> int:
    """Length of the longest increasing index tuple over range(n), at most
    ``cap``, on which ``holds`` (closed under subsets) is true."""
    level = [()]
    for depth in range(cap):
        level = [t + (i,) for t in level
                 for i in range(t[-1] + 1 if t else 0, n) if holds(t + (i,))]
        if not level:
            return depth
    return cap


def vc_dimension(h: SetFamily) -> int:
    """Exact VC dimension; -1 for the empty family (nothing shattered).

    Shattering is closed under subsets, and no set larger than log2 |h|
    can be shattered.
    """
    if h.m > VC_MAX_GROUND:
        raise SizeLimitError(f"exact VC dimension limited to ground sets of {VC_MAX_GROUND}")
    if not h.sets:
        return -1
    cap = min(h.m, len(h.sets).bit_length() - 1)
    return _largest_closed(h.m, cap, lambda s: is_shattered(h, s))


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


def _atoms_all_positive(h: SetFamily, subfamily: Sequence[int]) -> bool:
    acc = np.zeros(1 << len(subfamily))
    for i in range(h.m):
        sig = 0
        for bit, j in enumerate(subfamily):
            if h.sets[j] >> i & 1:
                sig |= 1 << bit
        acc[sig] += h.weights[i]
    return bool(np.all(acc > ATOM_TOL))


def de_dimension(h: SetFamily) -> int:
    """Dual essential VC dimension: the largest qualitatively independent
    subfamily, i.e. one with all 2^d Boolean atoms of weight > 1e-12.

    Qualitative independence is closed under taking subfamilies, and 2^d
    positive atoms need at least 2^d positively weighted points, which
    caps d at log2 of their number.
    """
    if h.weights is None:
        raise InvalidInputError("DE-dimension needs ground-set weights")
    if len(h.sets) > DE_MAX_SETS:
        raise SizeLimitError(f"exact DE-dimension limited to {DE_MAX_SETS} sets")
    positive = int(np.sum(h.weights > ATOM_TOL))
    return _largest_closed(len(h.sets), max(positive, 1).bit_length() - 1,
                           lambda t: _atoms_all_positive(h, t))


def neighborhood_family(w: StepGraphon) -> tuple[SetFamily, list[int]]:
    """Supports of the distinct rows of a 0-1 stepfunction.

    Ground set = steps weighted by their measures. Duplicate rows are
    deduplicated; the second return value records how many steps share
    each distinct row.
    """
    if not w.is_zero_one():
        raise HypothesisError("neighborhood family requires a 0-1 stepfunction")
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
    check t^b_ind(F, W) = 0 is verified before returning it; a nonzero
    density raises ``CertificationError``. Returns None when d >= kmax.
    """
    kmax = as_integer(kmax, "kmax")
    if kmax < 1 or kmax > 6:
        raise InvalidInputError("kmax must be between 1 and 6")
    fam, _ = neighborhood_family(w)
    d = de_dimension(fam)
    if d >= kmax:
        return None
    f = witness_bigraph(d)
    val = bigraph_density(f, as_bigraphon(w), induced=True)
    if val != 0.0:
        raise CertificationError(f"witness density {val} nonzero at DE-dimension {d}")
    return f


def sauer_shelah_bound(m: int, k: int) -> int:
    """1 + C(m,1) + ... + C(m,k); zero when k < 0."""
    return sum(comb(m, i) for i in range(0, k + 1)) if k >= 0 else 0
