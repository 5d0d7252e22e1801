import itertools
import tracemalloc

import numpy as np
import pytest

import graphonlab as gl
from graphonlab.setsystems import witness_bigraph

from conftest import (brute_bigraph_density, brute_density, random_bigraph,
                      random_bigraphon, random_graph, rng)


def test_density_examples(k2_graphon, constant_half):
    assert abs(gl.density(gl.Graph(2, [(0, 1)]), k2_graphon) - 0.5) <= 1e-15
    assert gl.density(gl.Graph.complete(3), k2_graphon) == 0.0
    p = gl.StepGraphon(np.array([1.0]), np.array([[0.3]]))
    assert abs(gl.density(gl.Graph.complete(3), p) - 0.3 ** 3) <= 1e-15


def test_induced_density_examples(k2_graphon):
    p = gl.StepGraphon(np.array([1.0]), np.array([[0.3]]))
    assert abs(gl.induced_density(gl.Graph(2, [(0, 1)]), p) - 0.3) <= 1e-15
    assert abs(gl.induced_density(gl.Graph.empty(2), p) - 0.7) <= 1e-15
    assert abs(gl.induced_density(gl.Graph(2, [(0, 1)]), k2_graphon) - 0.5) <= 1e-15


def test_density_matches_brute_force():
    for seed in range(12):
        w = gl.zoo.random_stepfunction(2 + seed % 4, seed=seed)
        f = random_graph(int(rng(seed).integers(2, 5)), seed=50 + seed)
        assert abs(gl.density(f, w) - brute_density(f, w)) <= 1e-12
        assert abs(gl.induced_density(f, w) - brute_density(f, w, induced=True)) <= 1e-12


def test_density_rejects_empty_and_oversized(k2_graphon):
    with pytest.raises(gl.InvalidInputError):
        gl.density(gl.Graph(0), k2_graphon)
    big = gl.zoo.random_stepfunction(32, seed=1)
    with pytest.raises(gl.SizeLimitError):
        gl.density(gl.Graph.complete(9), big)  # 9 * log2(32) = 45 > 40


def test_density_contraction_guard_counts_free_nodes():
    # k = 1 passes the assignments guard at any size; the einsum has one
    # letter per free node and 52 letters
    w = gl.StepGraphon(np.ones(1), np.full((1, 1), 0.5))
    path53 = gl.Graph(53, [(i, i + 1) for i in range(52)])
    with pytest.raises(gl.SizeLimitError, match="too large for tensor contraction"):
        gl.density(path53, w)
    with pytest.raises(gl.SizeLimitError, match="too large for tensor contraction"):
        gl.induced_density(path53, w)
    assert gl.partial_density(path53, [0], {0: 0}, w) == 0.5 ** 52
    assert gl.density(gl.Graph(52, [(i, i + 1) for i in range(51)]), w) == 0.5 ** 51


def test_rooted_density_guard_counts_free_nodes():
    # K9 with 5 roots at k = 32: the 4 free nodes enumerate 20 bits, which
    # the guard accepts though |V| log2(k) = 45; brute force over 32^4 steps
    k = 32
    w = gl.zoo.random_stepfunction(k, seed=5)
    k9 = gl.Graph.complete(9)
    roots = {0: 3, 1: 17, 2: 17, 3: 30, 4: 0}
    steps = list(roots.values()) + list(np.indices((k,) * 4).reshape(4, -1))
    want = np.ones(k ** 4)
    for u, v in k9.edges:
        want *= w.w[steps[u], steps[v]]
    for s in steps[5:]:
        want *= w.mu[s]
    want = float(want.sum())
    got = gl.partial_density(k9, list(roots), roots, w)
    assert want > 0 and abs(got - want) <= 1e-12 * want


def test_partial_density_path_examples(k2_graphon, constant_half):
    p3 = gl.Graph(3, [(0, 1), (1, 2)])  # path u - v - w with S = {u, w}
    for a, b in itertools.product(range(1), repeat=2):
        val = gl.partial_density(p3, [0, 2], {0: a, 2: b}, constant_half)
        assert abs(val - 0.25) <= 1e-15
    assert abs(gl.partial_density(p3, [0, 2], {0: 0, 2: 0}, k2_graphon) - 0.5) <= 1e-15
    assert gl.partial_density(p3, [0, 2], {0: 0, 2: 1}, k2_graphon) == 0.0


def test_partial_density_matches_square(k2_graphon):
    w = gl.zoo.random_stepfunction(5, seed=3)
    sq = gl.square(w)
    p3 = gl.Graph(3, [(0, 1), (1, 2)])
    for a in range(w.k):
        for b in range(w.k):
            val = gl.partial_density(p3, [0, 2], {0: a, 2: b}, w)
            assert abs(val - sq.w[a, b]) <= 1e-12


def test_partial_density_incomplete_assignment(k2_graphon):
    p3 = gl.Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(gl.InvalidInputError):
        gl.partial_density(p3, [0, 2], {0: 0}, k2_graphon)
    # rooted nodes and steps are integers: 0.5 is not read as node 0
    k3 = gl.Graph.complete(3)
    for s, x in (([0.5], {0: 1}), ([0], {0: 1.7}), ([0], {0.0: 1})):
        with pytest.raises(gl.InvalidInputError, match="must be an integer"):
            gl.partial_density(k3, s, x, k2_graphon)
    assert gl.partial_density(k3, np.array([0]), {np.int64(0): np.int8(1)}, k2_graphon) == \
        gl.partial_density(k3, [0], {0: 1}, k2_graphon)


def test_full_assignment_is_pointwise_product():
    w = gl.zoo.random_stepfunction(4, seed=8)
    f = gl.Graph(3, [(0, 1), (0, 2)])
    val = gl.partial_density(f, [0, 1, 2], {0: 1, 1: 2, 2: 3}, w)
    assert abs(val - w.w[1, 2] * w.w[1, 3]) <= 1e-15


def test_bigraph_density_examples():
    m2 = gl.Bigraph(2, 2, [(0, 0), (1, 1)])
    const = gl.StepBigraphon(np.array([1.0]), np.array([1.0]), np.array([[0.4]]))
    single = gl.Bigraph(1, 1, [(0, 0)])
    assert abs(gl.bigraph_density(single, const) - 0.4) <= 1e-15
    h4 = gl.as_bigraphon(gl.zoo.half_graphon(4))
    assert gl.bigraph_density(m2, h4, induced=True) == 0.0
    half = gl.StepBigraphon(np.array([1.0]), np.array([1.0]), np.array([[0.5]]))
    assert abs(gl.bigraph_density(m2, half, induced=True) - 0.5 ** 4) <= 1e-15


def test_bigraph_density_matches_brute_force():
    for seed in range(10):
        w = random_bigraphon(2 + seed % 3, 2 + (seed + 1) % 3, seed)
        f = random_bigraph(2, 3, seed=60 + seed)
        assert abs(gl.bigraph_density(f, w) - brute_bigraph_density(f, w)) <= 1e-12
        assert abs(gl.bigraph_density(f, w, induced=True)
                   - brute_bigraph_density(f, w, induced=True)) <= 1e-12


def test_partial_bigraph_density_examples():
    w = random_bigraphon(3, 4, seed=2)
    edgeless = gl.Bigraph(2, 1)
    val = gl.partial_bigraph_density(edgeless, [0, 1], [], {0: 0, 1: 1}, {}, w)
    assert abs(val - 1.0) <= 1e-15  # only the free node's measure, which sums to 1
    f = random_bigraph(2, 2, seed=4)
    assert abs(gl.partial_bigraph_density(f, [], [], {}, {}, w)
               - gl.bigraph_density(f, w)) <= 1e-15
    single = gl.Bigraph(1, 1, [(0, 0)])
    for i in range(w.k1):
        val = gl.partial_bigraph_density(single, [0], [], {0: i}, {}, w)
        assert abs(val - float(w.w[i] @ w.mu2)) <= 1e-15


def test_induced_densities_sum_to_one():
    for seed in range(5):
        w = gl.zoo.random_stepfunction(4, seed=70 + seed)
        for n in (2, 3):
            pairs = list(itertools.combinations(range(n), 2))
            total = 0.0
            for bits in itertools.product([0, 1], repeat=len(pairs)):
                f = gl.Graph(n, [p for p, b in zip(pairs, bits) if b])
                total += gl.induced_density(f, w)
            assert abs(total - 1.0) <= 1e-9


def test_density_as_sum_of_induced_supergraphs():
    w = gl.zoo.random_stepfunction(4, seed=90)
    f = gl.Graph(3, [(0, 1)])
    pairs = [p for p in itertools.combinations(range(3), 2) if p not in f.edges]
    total = 0.0
    for bits in itertools.product([0, 1], repeat=len(pairs)):
        extra = [p for p, b in zip(pairs, bits) if b]
        total += gl.induced_density(gl.Graph(3, list(f.edges) + extra), w)
    assert abs(gl.density(f, w) - total) <= 1e-9


def _random_independent_set(f, seed):
    order = list(rng(seed).permutation(f.n))
    chosen = []
    for v in order:
        if all(not f.has_edge(v, u) for u in chosen):
            chosen.append(v)
    return chosen


def test_lipschitz_bound_graph_form():
    r = rng(123)
    for trial in range(300):
        k = int(r.integers(2, 7))
        w = gl.zoo.random_stepfunction(k, seed=1000 + trial)
        f = random_graph(int(r.integers(2, 5)), seed=2000 + trial, p=0.6)
        s = _random_independent_set(f, seed=3000 + trial)
        if not s:
            continue
        x = {v: int(r.integers(0, k)) for v in s}
        xp = {v: int(r.integers(0, k)) for v in s}
        nm = gl.neighborhood_metric(w)
        lhs = abs(gl.partial_density(f, s, x, w) - gl.partial_density(f, s, xp, w))
        rhs = len(f.edges) * max(nm.dist[x[v], xp[v]] for v in s)
        assert lhs <= rhs + 1e-9


def test_lipschitz_bound_bigraph_form():
    r = rng(321)
    for trial in range(300):
        w = random_bigraphon(int(r.integers(2, 5)), int(r.integers(2, 5)), seed=5000 + trial)
        f = random_bigraph(int(r.integers(1, 4)), int(r.integers(1, 4)), seed=6000 + trial)
        s1 = [v for v in range(f.n1) if r.random() < 0.5]
        blocked = {v for u in s1 for (uu, v) in f.edges if uu == u}
        s2 = [v for v in range(f.n2) if v not in blocked and r.random() < 0.5]
        if not s1 and not s2:
            continue
        x = {v: int(r.integers(0, w.k1)) for v in s1}
        xp = {v: int(r.integers(0, w.k1)) for v in s1}
        y = {v: int(r.integers(0, w.k2)) for v in s2}
        yp = {v: int(r.integers(0, w.k2)) for v in s2}
        r1, r2 = gl.bigraphon_metrics(w)
        lhs = abs(gl.partial_bigraph_density(f, s1, s2, x, y, w)
                  - gl.partial_bigraph_density(f, s1, s2, xp, yp, w))
        moves = [r1.dist[x[v], xp[v]] for v in s1] + [r2.dist[y[v], yp[v]] for v in s2]
        assert lhs <= len(f.edges) * max(moves) + 1e-9


def test_density_invariant_under_split_and_permutation():
    w = gl.zoo.random_stepfunction(5, seed=17)
    f = gl.Graph(3, [(0, 1), (1, 2), (0, 2)])
    base = gl.density(f, w)
    assert abs(gl.density(f, gl.split_step(w, 2, 3)) - base) <= 1e-12
    perm = [4, 2, 0, 1, 3]
    wp = gl.StepGraphon(w.mu[perm], w.w[np.ix_(perm, perm)])
    assert abs(gl.density(f, wp) - base) <= 1e-12


def test_bigraph_density_size_guard():
    # the guard counts the enumerated class only: 9 free nodes on each side
    # enumerate 9 * log2(32) = 45 bits, a 5x4 pattern 4 * 5 = 20 bits
    big = gl.StepBigraphon(np.full(32, 1 / 32), np.full(32, 1 / 32),
                           np.zeros((32, 32)))
    with pytest.raises(gl.SizeLimitError):
        gl.bigraph_density(random_bigraph(9, 9, seed=0), big)
    # each step of a 2 x 2 host split into 16 leaves every density as it was
    small = random_bigraphon(2, 2, seed=0)
    split = gl.StepBigraphon(np.repeat(small.mu1 / 16, 16), np.repeat(small.mu2 / 16, 16),
                             np.repeat(np.repeat(small.w, 16, axis=0), 16, axis=1))
    f = random_bigraph(5, 4, seed=0)
    for induced in (False, True):
        want = brute_bigraph_density(f, small, induced)
        assert abs(gl.bigraph_density(f, split, induced=induced) - want) <= 1e-12


def test_partial_bigraph_incomplete_assignment():
    w = random_bigraphon(3, 3, seed=12)
    f = gl.Bigraph(2, 2, [(0, 0)])
    with pytest.raises(gl.InvalidInputError):
        gl.partial_bigraph_density(f, [0, 1], [], {0: 0}, {}, w)
    with pytest.raises(gl.InvalidInputError):
        gl.partial_bigraph_density(f, [], [0], {}, {0: 9}, w)


@pytest.mark.parametrize("induced", [False, True])
@pytest.mark.parametrize("n1, n2, roots1, roots2", [
    (2, 4, {}, {}),              # n1 < n2: class 1 is enumerated
    (4, 2, {}, {}),              # n1 > n2: class 2 is enumerated
    (3, 3, {1: 2}, {0: 3}),      # roots on both classes
    (2, 4, {}, {1: 0, 3: 2}),    # roots leave class 2 with fewer free nodes
    (0, 3, {}, {}),              # class 1 empty
    (3, 0, {0: 1}, {}),          # class 2 empty
])
def test_bigraph_kernel_matches_brute_force(n1, n2, roots1, roots2, induced):
    for seed in range(4):
        w = random_bigraphon(3, 4, seed=300 + seed)  # k1 != k2
        f = random_bigraph(n1, n2, seed=400 + seed)
        want = brute_bigraph_density(f, w, induced, roots1, roots2)
        got = gl.partial_bigraph_density(f, list(roots1), list(roots2), roots1, roots2,
                                         w, induced=induced)
        assert abs(got - want) <= 1e-12


@pytest.mark.parametrize("induced", [False, True])
def test_bigraph_kernel_twin_class2_nodes(induced):
    # nodes 0-2 share the neighbourhood {0}, 3 and 4 share {0, 1}; rooting
    # node 4 separates it from its twin 3
    f = gl.Bigraph(2, 5, [(0, 0), (0, 1), (0, 2), (0, 3), (1, 3), (0, 4), (1, 4)])
    for seed in range(4):
        w = random_bigraphon(3, 2, seed=500 + seed)
        for roots2 in ({}, {4: 1}):
            want = brute_bigraph_density(f, w, induced, {}, roots2)
            got = gl.partial_bigraph_density(f, [], list(roots2), {}, roots2, w,
                                             induced=induced)
            assert abs(got - want) <= 1e-12


def test_bigraph_kernel_excluded_patterns_exactly_zero():
    for seed in range(6):
        w = gl.zoo.random_stepfunction(6, seed=600 + seed, zero_one=True)
        d = gl.de_dimension(gl.neighborhood_family(w)[0])
        f = witness_bigraph(d)
        flipped = gl.Bigraph(f.n2, f.n1, [(v, u) for u, v in f.edges])
        host = gl.as_bigraphon(w)
        assert gl.bigraph_density(f, host, induced=True) == 0.0
        assert gl.bigraph_density(flipped, host, induced=True) == 0.0


def test_bigraph_kernel_witness_3x8_at_k7():
    w = gl.zoo.random_stepfunction(7, 0, zero_one=True)
    assert gl.de_dimension(gl.neighborhood_family(w)[0]) == 2
    assert gl.bigraph_density(witness_bigraph(2), gl.as_bigraphon(w), induced=True) == 0.0


def test_bigraph_kernel_enumeration_guard():
    big = gl.StepBigraphon(np.full(32, 1 / 32), np.full(32, 1 / 32),
                           np.zeros((32, 32)))
    with pytest.raises(gl.SizeLimitError):
        gl.partial_bigraph_density(random_bigraph(9, 20, seed=0), [], [], {}, {},
                                   big)  # 9 * log2(32) = 45 > 40


def test_bigraph_kernel_large_host_in_small_memory():
    # K_{2,2} at k = 512 (36 bits): each class-2 factor is a k^2 grid; a
    # factor built as one k^2 x k array before its sum would take 1 GiB
    k = 512
    r = rng(512)
    w = gl.StepBigraphon(r.dirichlet(np.ones(k)), r.dirichlet(np.ones(k)), r.random((k, k)))
    f = gl.Bigraph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    common = (w.w * w.mu2) @ w.w.T  # common[a, a'] = sum_c W(a, c) W(a', c) mu2(c)
    tracemalloc.start()
    try:
        plain = gl.bigraph_density(f, w)
        induced = gl.bigraph_density(f, w, induced=True)
        rooted = gl.partial_bigraph_density(f, [0], [], {0: 7}, {}, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(plain - w.mu1 @ common ** 2 @ w.mu1) <= 1e-12
    assert induced == plain  # K_{2,2} has no non-edges
    assert abs(rooted - common[7] ** 2 @ w.mu1) <= 1e-12
    assert peak < 64 * 2 ** 20


@pytest.mark.parametrize("induced", [False, True])
def test_bigraph_kernel_many_class2_factors(induced):
    # the 6x64 witness has 64 distinct class-2 neighbourhoods, so the final
    # sum multiplies 64 factors and 6 measures; at k = 1 every assignment
    # is the same and the density is p^|E| (times (1-p)^non-edges if induced)
    p = 0.3
    f = witness_bigraph(5)
    w = gl.StepBigraphon(np.ones(1), np.ones(1), np.full((1, 1), p))
    e = len(f.edges)
    want = p ** e * ((1 - p) ** (f.n1 * f.n2 - e) if induced else 1.0)
    got = gl.bigraph_density(f, w, induced=induced)
    assert abs(got - want) <= 1e-12 * want


def test_bigraph_kernel_5x32_witness_excluded_at_k2():
    # on two steps some two of the five class-1 nodes share a step, so the
    # class-2 node adjacent to exactly one of them has value 0
    for seed in range(4):
        w = gl.as_bigraphon(gl.zoo.random_stepfunction(2, seed=700 + seed, zero_one=True))
        assert gl.bigraph_density(witness_bigraph(4), w, induced=True) == 0.0
