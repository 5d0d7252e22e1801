"""Shared fixtures and independent brute-force oracles.

The oracles deliberately avoid the library's algorithms: densities are
plain loops over assignments, the cut norm enumerates every subset pair,
packing/VC go through itertools. Expected values in the tests come from
these, not from the code under test.
"""

import itertools
import os
from pathlib import Path

import numpy as np
import pytest

import graphonlab as gl

# tests that start ``python -m graphonlab.cli`` in a subprocess get the
# copy of the package imported here, also from a plain checkout
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(gl.__file__).parents[1]), os.environ.get("PYTHONPATH")]))


# -- corpora -----------------------------------------------------------------

def rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def random_bigraphon(k1, k2, seed):
    r = rng(seed)
    mu1 = r.random(k1) + 0.2
    mu2 = r.random(k2) + 0.2
    return gl.StepBigraphon(mu1 / mu1.sum(), mu2 / mu2.sum(), r.random((k1, k2)))


def random_partition(base, c, seed):
    r = rng(seed)
    k = len(base)
    c = min(c, k)
    assign = list(range(c)) + [int(r.integers(0, c)) for _ in range(k - c)]
    r.shuffle(assign)
    return gl.Partition(base, assign, c)


def random_graph(n, seed, p=0.5):
    r = rng(seed)
    return gl.Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                        if r.random() < p])


def random_bigraph(n1, n2, seed, p=0.5):
    r = rng(seed)
    return gl.Bigraph(n1, n2, [(u, v) for u in range(n1) for v in range(n2)
                               if r.random() < p])


# -- oracles -----------------------------------------------------------------

def brute_cut_norm(kernel):
    """Full enumeration over all 2^k x 2^k subset pairs."""
    k = kernel.k
    a = kernel.mu[:, None] * kernel.mu[None, :] * kernel.w
    subsets = np.array([[(s >> i) & 1 for i in range(k)] for s in range(1 << k)],
                       dtype=float)
    vals = subsets @ a @ subsets.T
    return float(np.max(np.abs(vals)))


def reference_rectangle_max(a):
    """The subset enumeration ``rectangle_max`` replaced: a 2^k x k
    membership matrix times ``a`` per chunk of row subsets, then the best
    column set per sign. Returns (positive, negative) rectangle maxima."""
    rows = a.shape[0]
    total = 1 << rows
    chunk = 1 << min(16, rows)
    shifts = np.arange(rows, dtype=np.int64)
    pos = neg = 0.0
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        members = ((idx[:, None] >> shifts) & 1).astype(float)
        cols = members @ a
        pos = max(pos, float(np.maximum(cols, 0.0).sum(axis=1).max()))
        neg = max(neg, float(np.maximum(-cols, 0.0).sum(axis=1).max()))
    return pos, neg


def _doubled_sums(rows):
    # row s is the sum of the rows whose bits are set in s
    sums = np.zeros((1, rows.shape[1]))
    for row in rows:
        sums = np.concatenate((sums, sums + row))
    return sums


def unpruned_rectangle_max(a):
    """The meet-in-the-middle sweep ``rectangle_max`` prunes: every pair of
    a high-half and a low-half row subset, in blocks of high-half sums
    against the whole low-half table (2^18 elements a block). The pruned
    kernel must return the same two floats bit for bit."""
    a = np.asarray(a, dtype=float)
    a = a[np.any(a != 0.0, axis=1)][:, np.any(a != 0.0, axis=0)]
    if a.size == 0:
        return 0.0, 0.0
    if a.shape[0] > a.shape[1]:
        a = a.T
    half = a.shape[0] // 2
    low = _doubled_sums(a[:half]).T.copy()
    high = _doubled_sums(a[half:])
    low_total, high_total = low.sum(axis=0), high.sum(axis=1)
    step = max(1, (1 << 18) // low.size)
    pos = neg = 0.0
    for start in range(0, len(high), step):
        cols = high[start:start + step, :, None] + low
        np.maximum(cols, 0.0, out=cols)
        gain = cols.sum(axis=1)
        pos = max(pos, float(gain.max()))
        gain -= high_total[start:start + step, None] + low_total
        neg = max(neg, float(gain.max()))
    return pos, neg


def reference_row_l1(values, weights):
    """The broadcast formula the row sweep replaced: |row_i - row_j| for
    every ordered pair, weighted, then symmetrised with a zero diagonal."""
    d = np.abs(values[:, None, :] - values[None, :, :]) @ weights
    d = (d + d.T) / 2.0
    np.fill_diagonal(d, 0.0)
    return d


def reference_row_sweep(values, weights):
    """The row-by-row sweep: a fresh C-order difference array per row and
    one product over it. ``_row_l1_matrix`` takes the rows in blocks but
    keeps each row's product over the same (k - 1 - i, m) C-order slice, so
    the two agree bit for bit, also on a transposed (F-order) input."""
    values = np.ascontiguousarray(values)
    n = values.shape[0]
    d = np.zeros((n, n))
    for i in range(n - 1):
        d[i, i + 1:] = np.abs(values[i + 1:] - values[i]) @ weights
    return d + d.T


def reference_cut_norm_upper(r):
    """``cut_norm_upper`` without its skip: the eigen-solve always runs, and
    the smaller of the L1 term and the padded spectral term is returned."""
    if not r.w.any():
        return 0.0
    s = np.sqrt(r.mu)
    m = s[:, None] * r.w * s[None, :]
    spectral = float(np.max(np.abs(np.linalg.eigvalsh(m))))
    padding = r.k * 2.0 ** -40 * float(np.linalg.norm(m))
    return min(gl.l1_norm(r), spectral + padding)


def reference_triangle_violation(d):
    """The per-row sweep ``triangle_violation`` replaced: for each row i,
    the best detour min_z d(i,z) + d(z,j) as one k x k broadcast, and the
    largest gap d(i,j) minus it, kept by a running ``max`` from 0.0."""
    worst = 0.0
    for i in range(d.shape[0]):
        best_detour = np.min(d[i][:, None] + d, axis=0)
        worst = max(worst, float(np.max(d[i] - best_detour)))
    return worst


def reference_purify(w, tol=1e-9):
    """The per-pair twin test and g^2 block loop that purify replaced:
    grow each twin component from its lowest step, then average W over
    every pair of groups by measure."""
    d = reference_row_l1(w.w, w.mu)
    mapping = [-1] * w.k
    groups = []
    for i in range(w.k):
        if mapping[i] >= 0:
            continue
        stack, comp = [i], []
        mapping[i] = len(groups)
        while stack:
            a = stack.pop()
            comp.append(a)
            for b in range(w.k):
                if mapping[b] < 0 and d[a, b] <= tol:
                    mapping[b] = len(groups)
                    stack.append(b)
        groups.append(sorted(comp))
    g = len(groups)
    mu = np.array([w.mu[grp].sum() for grp in groups])
    vals = np.zeros((g, g))
    for a, ga in enumerate(groups):
        for b, gb in enumerate(groups):
            mass = np.outer(w.mu[ga], w.mu[gb])
            vals[a, b] = float((mass * w.w[np.ix_(ga, gb)]).sum() / mass.sum())
    vals = (vals + vals.T) / 2.0
    return mu, np.clip(vals, 0.0, 1.0), mapping


def reference_aggregate(w, p):
    """The block average ``aggregate`` replaced: measure-weighted block sums
    of mu_i mu_j W_ij divided by the product of the class measures, then
    symmetrised and clipped. Returns the pulled-back value matrix."""
    assign = np.array(p.assign, dtype=int)
    z = np.zeros((w.k, p.c))
    z[np.arange(w.k), assign] = 1.0
    cmass = z.T @ w.mu
    block = z.T @ (w.mu[:, None] * w.mu[None, :] * w.w) @ z
    block = (block + block.T) / 2.0
    vals = block / np.outer(cmass, cmass)
    return np.clip(vals[np.ix_(assign, assign)], 0.0, 1.0)


def reference_voronoi(m, centers):
    """The per-step loop ``voronoi_partition`` replaced: a center claims
    itself; any other step scans the centers in step order and keeps the
    first strictly nearer one. Returns the assignment tuple."""
    order = np.argsort(np.array(centers), kind="stable")
    assign = []
    for x in range(m.k):
        if x in centers:
            assign.append(centers.index(x))
            continue
        best = None, np.inf
        for ci in order:
            dxc = m.dist[x, centers[ci]]
            if dxc < best[1]:
                best = int(ci), float(dxc)
        assign.append(best[0])
    return tuple(assign)


def reference_szemeredi_blocks(w, p):
    """The per-block sum that ``szemeredi_error`` runs for every partition
    and that its one-class shortcut replaced: ``rectangle_max`` on each
    ordered class-pair block of mu_i mu_j (W - W_P)_ij, added up per sign."""
    r = gl.difference(w, gl.aggregate(w, p))
    a = r.mu[:, None] * r.mu[None, :] * r.w
    pos = neg = 0.0
    for si in p.classes():
        for sj in p.classes():
            block_pos, block_neg = gl.core.rectangle_max(a[np.ix_(si, sj)])
            pos += block_pos
            neg += block_neg
    return max(pos, neg)


def brute_szemeredi_error(w, p):
    """Every S x T inside every ordered class-pair block, both sides
    enumerated; the per-block optima add up per sign."""
    a = w.mu[:, None] * w.mu[None, :] * (w.w - gl.aggregate(w, p).w)

    def subsets(n):
        return np.array([[(s >> i) & 1 for i in range(n)] for s in range(1 << n)],
                        dtype=float)

    pos = neg = 0.0
    for si in p.classes():
        for sj in p.classes():
            vals = subsets(len(si)) @ a[np.ix_(si, sj)] @ subsets(len(sj)).T
            pos += float(vals.max())
            neg += float(-vals.min())
    return max(pos, neg)


def brute_density(f, w, induced=False):
    """Loop over all assignments of pattern nodes to steps."""
    total = 0.0
    pairs = [(u, v) for u in range(f.n) for v in range(u + 1, f.n)]
    for x in itertools.product(range(w.k), repeat=f.n):
        term = 1.0
        for u, v in pairs:
            val = w.w[x[u], x[v]]
            if f.has_edge(u, v):
                term *= val
            elif induced:
                term *= 1.0 - val
        for xu in x:
            term *= w.mu[xu]
        total += term
    return total


def brute_bigraph_density(f, w, induced=False, roots1=None, roots2=None):
    """Loop over all assignments of both classes; rooted nodes (maps node ->
    step) stay at their steps and carry no measure factor."""
    roots1, roots2 = roots1 or {}, roots2 or {}

    def choices(n, k, roots):
        return itertools.product(*[[roots[v]] if v in roots else range(k)
                                   for v in range(n)])

    total = 0.0
    for x in choices(f.n1, w.k1, roots1):
        for y in choices(f.n2, w.k2, roots2):
            term = 1.0
            for u in range(f.n1):
                for v in range(f.n2):
                    val = w.w[x[u], y[v]]
                    if (u, v) in f.edges:
                        term *= val
                    elif induced:
                        term *= 1.0 - val
            for u, xu in enumerate(x):
                if u not in roots1:
                    term *= w.mu1[xu]
            for v, yv in enumerate(y):
                if v not in roots2:
                    term *= w.mu2[yv]
            total += term
    return total


def brute_hom_count(f, g):
    """Number of adjacency-preserving maps V(f) -> V(g) (loops absent)."""
    adj = np.zeros((g.n, g.n), dtype=bool)
    for u, v in g.edges:
        adj[u, v] = adj[v, u] = True
    count = 0
    for x in itertools.product(range(g.n), repeat=f.n):
        if all(adj[x[u], x[v]] for u, v in f.edges):
            count += 1
    return count


def brute_packing(m, eps):
    """Maximum eps-separated subset by exhaustive search."""
    best = 0
    for size in range(m.k, 0, -1):
        for combo in itertools.combinations(range(m.k), size):
            if all(m.dist[a, b] >= eps for a, b in itertools.combinations(combo, 2)):
                best = size
                break
        if best:
            break
    return best


def brute_vc(h):
    """Largest shattered subset via direct trace enumeration."""
    best = -1
    for size in range(h.m + 1):
        for combo in itertools.combinations(range(h.m), size):
            mask = 0
            for e in combo:
                mask |= 1 << e
            if h.sets and len({s & mask for s in h.sets}) == (1 << size):
                best = max(best, size)
    return best


def brute_de(h):
    """Largest subfamily whose 2^d Boolean atoms all weigh more than 1e-12,
    over every subfamily; an atom is the set of ground elements sharing one
    membership signature."""
    best = 0
    for size in range(1, len(h.sets) + 1):
        for combo in itertools.combinations(h.sets, size):
            atoms = {}
            for e in range(h.m):
                sig = tuple(s >> e & 1 for s in combo)
                atoms[sig] = atoms.get(sig, 0.0) + h.weights[e]
            if len(atoms) == 1 << size and min(atoms.values()) > 1e-12:
                best = size
    return best


@pytest.fixture
def k2_graphon():
    return gl.graphon_from_graph(gl.Graph(2, [(0, 1)]))


@pytest.fixture
def constant_half():
    return gl.StepGraphon(np.array([1.0]), np.array([[0.5]]))
