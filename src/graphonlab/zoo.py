"""Example graphons and deterministic test corpora.

All randomness flows through numpy's PCG64 generator keyed by an explicit
64-bit seed, so the same seed reproduces the same object on any platform.
"""

from __future__ import annotations

import numpy as np

from .core import StepBigraphon, StepGraphon
from .errors import InvalidInputError, SizeLimitError
from .metrics import triangle_violation

MAX_BINARY_DEPTH = 12


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(int(seed)))


def sphere_graphon(dim: int, n: int, seed: int) -> tuple[StepGraphon, np.ndarray]:
    """Hemisphere graphon sampled on the unit sphere S^dim.

    Draws n normalized standard normal vectors in R^(dim+1) and sets
    w[i,j] = 1 iff the dot product is nonnegative (so the diagonal is 1).
    Returns the uniform-step graphon together with the sample points, kept
    for oracle checks against the normalized spherical distance.
    """
    if dim < 1:
        raise InvalidInputError("sphere dimension must be at least 1")
    if n < 2:
        raise InvalidInputError("need at least 2 sample points")
    pts = _rng(seed).standard_normal((n, dim + 1))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    w = (pts @ pts.T >= 0.0).astype(float)
    w = np.maximum(w, w.T)
    return StepGraphon(np.full(n, 1.0 / n), w), pts


def metric_graphon(dist, mu=None) -> StepGraphon:
    """A metric of diameter <= 1 viewed as a graphon (W = d).

    The identity map is contractive from d to the neighborhood distance:
    r_W <= d entrywise.
    """
    dist = np.array(dist, dtype=float)
    k = dist.shape[0]
    if dist.shape != (k, k) or k == 0:
        raise InvalidInputError("distance matrix must be square and nonempty")
    if mu is None:
        mu = np.full(k, 1.0 / k)
    if np.any(dist < 0) or np.any(np.diag(dist) != 0) or not np.array_equal(dist, dist.T):
        raise InvalidInputError("need a symmetric nonnegative matrix with zero diagonal")
    if np.any(dist > 1.0):
        raise InvalidInputError("metric diameter must be at most 1")
    worst = triangle_violation(dist)
    if worst > 1e-9:
        raise InvalidInputError(f"triangle inequality violated by {worst:.3g}")
    return StepGraphon(mu, dist)


def half_graphon(n: int) -> StepGraphon:
    """Half graphon on n uniform steps: w[i,j] = 1 iff i + j <= n - 1.

    Row supports form a chain, the canonical thin 0-1 example: the
    2-matching bigraph is excluded as an induced sub-bigraph.
    """
    if n < 1:
        raise InvalidInputError("need at least one step")
    i = np.arange(n)
    w = (i[:, None] + i[None, :] <= n - 1).astype(float)
    return StepGraphon(np.full(n, 1.0 / n), w)


def _binary_digit(x: float, k: int) -> int:
    # k-th digit after the binary point; exact for dyadic x
    return int(np.floor(x * (1 << k))) & 1


def _floor_log2_inv(y: float) -> int:
    k = 0
    while y <= 0.5 ** (k + 1):
        k += 1
    return k


def _ceil_log2_inv(y: float) -> int:
    k = 0
    while y < 0.5 ** k:
        k += 1
    return k


def binary_graphon(depth: int, variant: str = "sym") -> StepGraphon | StepBigraphon:
    """Binary-expansion constructions discretized at dyadic midpoints.

    ``sym`` builds the symmetric graphon W(x,y) = x_{floor(log2 1/y)} on
    the mixed halves of [0,1]^2 (zero on the diagonal blocks), with
    2^(depth+1) uniform steps. ``asym`` builds the bigraphon
    W(x,y) = x_{ceil(log2 1/y)} with 2^depth steps per side; its row
    metric is exactly sum_k 2^-k |x_k - x'_k| on the dyadic grid, and one
    column point per dyadic level is pairwise exactly 1/2 apart.
    """
    if depth < 1:
        raise InvalidInputError("depth must be at least 1")
    if depth > MAX_BINARY_DEPTH:
        raise SizeLimitError(f"depth limited to {MAX_BINARY_DEPTH}")
    if variant == "sym":
        k = 1 << (depth + 1)
        mids = (2 * np.arange(k) + 1) / (2.0 * k)
        w = np.zeros((k, k))
        for i, x in enumerate(mids):
            for j, y in enumerate(mids):
                if x > 0.5 and y <= 0.5:
                    w[i, j] = _binary_digit(x, _floor_log2_inv(y))
                elif x <= 0.5 and y > 0.5:
                    w[i, j] = _binary_digit(y, _floor_log2_inv(x))
        return StepGraphon(np.full(k, 1.0 / k), w)
    if variant == "asym":
        k = 1 << depth
        mids = (2 * np.arange(k) + 1) / (2.0 * k)
        levels = [_ceil_log2_inv(y) for y in mids]
        w = np.zeros((k, k))
        for i, x in enumerate(mids):
            for j in range(k):
                w[i, j] = _binary_digit(x, levels[j])
        u = np.full(k, 1.0 / k)
        return StepBigraphon(u, u, w)
    raise InvalidInputError(f"unknown variant {variant!r}")


def counterexample_U() -> StepGraphon:
    """The 2-step graphon with value 1/2 on the mixed block and 1 elsewhere.

    Not thin as a bigraphon, although its graph-induced densities vanish
    for every pattern with 3 pairwise non-adjacent nodes.
    """
    return StepGraphon(np.array([0.5, 0.5]), np.array([[1.0, 0.5], [0.5, 1.0]]))


def random_stepfunction(k: int, seed: int, zero_one: bool = False) -> StepGraphon:
    """Uniform-step graphon with i.i.d. symmetric values, keyed by seed."""
    if k < 1:
        raise InvalidInputError("need at least one step")
    rng = _rng(seed)
    vals = rng.random((k, k))
    if zero_one:
        vals = (vals < 0.5).astype(float)
    upper = np.triu(vals)
    w = upper + np.triu(upper, 1).T
    return StepGraphon(np.full(k, 1.0 / k), w)


def random_kernel(k: int, seed: int):
    """Signed StepKernel test corpus: values in [-1,1], random measures."""
    from .core import StepKernel

    if k < 1:
        raise InvalidInputError("need at least one step")
    rng = _rng(seed)
    vals = rng.uniform(-1.0, 1.0, (k, k))
    upper = np.triu(vals)
    w = upper + np.triu(upper, 1).T
    mu = rng.random(k) + 0.1
    return StepKernel(mu / mu.sum(), w)
