"""Example graphons and deterministic test corpora.

All randomness flows through numpy's PCG64 generator keyed by an explicit
64-bit seed, so the same seed reproduces the same object on any platform.
"""

from __future__ import annotations

import numpy as np

from .core import StepBigraphon, StepGraphon
from .errors import InvalidInputError, SizeLimitError, as_integer
from .metrics import MetricView

MAX_BINARY_DEPTH = 12


def _rng(seed: int) -> np.random.Generator:
    """The PCG64 generator keyed by ``seed``, a nonnegative integer (Python
    or numpy); 2.5, "3" or -1 is an input error."""
    seed = as_integer(seed, "seed")
    if seed < 0:
        raise InvalidInputError(f"seed must be nonnegative, got {seed}")
    return np.random.Generator(np.random.PCG64(seed))


def sphere_graphon(dim: int, n: int, seed: int) -> tuple[StepGraphon, np.ndarray]:
    """Hemisphere graphon sampled on the unit sphere S^dim.

    Draws n normalized standard normal vectors in R^(dim+1) and sets
    w[i,j] = 1 iff the dot product is nonnegative (so the diagonal is 1).
    Returns the uniform-step graphon together with the sample points, kept
    for oracle checks against the normalized spherical distance.
    """
    dim, n = as_integer(dim, "sphere dimension"), as_integer(n, "point count")
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
    """A metric of diameter <= 1, checked by ``MetricView`` (one triangle
    sweep), viewed as a graphon (W = d). The identity map is contractive
    from d to the neighborhood distance: r_W <= d entrywise.
    """
    dist = np.array(dist, dtype=float, ndmin=2)
    if dist.size == 0:
        raise InvalidInputError("distance matrix must be nonempty")
    view = MetricView(np.full(len(dist), 1.0 / len(dist)) if mu is None else mu, dist)
    if np.any(view.dist > 1.0):
        raise InvalidInputError("metric diameter must be at most 1")
    return StepGraphon(view.mu, view.dist)


def half_graphon(n: int) -> StepGraphon:
    """Half graphon on n uniform steps: w[i,j] = 1 iff i + j <= n - 1.

    Row supports form a chain, the canonical thin 0-1 example: the
    2-matching bigraph is excluded as an induced sub-bigraph.
    """
    n = as_integer(n, "step count")
    if n < 1:
        raise InvalidInputError("need at least one step")
    i = np.arange(n)
    w = (i[:, None] + i[None, :] <= n - 1).astype(float)
    return StepGraphon(np.full(n, 1.0 / n), w)


def _binary_digits(x: np.ndarray, levels) -> np.ndarray:
    """Entry (i, j) is the levels[j]-th binary digit of x[i] after the
    point; exact for dyadic x."""
    return np.floor(x[:, None] * (1 << np.array(levels))[None, :]).astype(int) & 1


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
    depth = as_integer(depth, "depth")
    if depth < 1:
        raise InvalidInputError("depth must be at least 1")
    if depth > MAX_BINARY_DEPTH:
        raise SizeLimitError(f"depth limited to {MAX_BINARY_DEPTH}")
    if variant == "sym":
        k = 1 << (depth + 1)
        mids = (2 * np.arange(k) + 1) / (2.0 * k)
        digits = _binary_digits(mids, [_floor_log2_inv(y) for y in mids])
        high = mids > 0.5
        mixed = high[:, None] & ~high[None, :]  # x > 1/2 >= y
        w = np.where(mixed, digits, 0) + np.where(mixed.T, digits.T, 0)
        return StepGraphon(np.full(k, 1.0 / k), w)
    if variant == "asym":
        k = 1 << depth
        mids = (2 * np.arange(k) + 1) / (2.0 * k)
        w = _binary_digits(mids, [_ceil_log2_inv(y) for y in mids])
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
    k = as_integer(k, "step count")
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

    k = as_integer(k, "step count")
    if k < 1:
        raise InvalidInputError("need at least one step")
    rng = _rng(seed)
    vals = rng.uniform(-1.0, 1.0, (k, k))
    upper = np.triu(vals)
    w = upper + np.triu(upper, 1).T
    mu = rng.random(k) + 0.1
    return StepKernel(mu / mu.sum(), w)
