import numpy as np
import pytest

import graphonlab as gl
from graphonlab.core import operator_product_values

from conftest import (brute_cut_norm, random_partition, reference_aggregate,
                      reference_rectangle_max, rng)


def test_graphon_from_graph_k2(k2_graphon):
    assert k2_graphon.k == 2
    assert k2_graphon.mu.tolist() == [0.5, 0.5]
    assert k2_graphon.w.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_graphon_from_graph_empty_and_triangle():
    w = gl.graphon_from_graph(gl.Graph.empty(3))
    assert np.all(w.w == 0.0) and np.allclose(w.mu, 1 / 3)
    t = gl.graphon_from_graph(gl.Graph.complete(3))
    assert t.w.tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


def test_graphon_from_empty_graph_rejected():
    with pytest.raises(gl.InvalidInputError):
        gl.graphon_from_graph(gl.Graph(0))


def test_graph_rejects_loops_and_bad_indices():
    with pytest.raises(gl.InvalidInputError):
        gl.Graph(3, [(1, 1)])
    with pytest.raises(gl.InvalidInputError):
        gl.Graph(3, [(0, 3)])


def test_bigraphon_from_bigraph():
    single = gl.bigraphon_from_bigraph(gl.Bigraph(1, 1, [(0, 0)]))
    assert single.w.tolist() == [[1.0]]
    match = gl.bigraphon_from_bigraph(gl.Bigraph(2, 2, [(0, 0), (1, 1)]))
    assert match.w.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    full = gl.bigraphon_from_bigraph(gl.Bigraph(2, 2, [(u, v) for u in range(2) for v in range(2)]))
    assert np.all(full.w == 1.0)
    with pytest.raises(gl.InvalidInputError):
        gl.bigraphon_from_bigraph(gl.Bigraph(0, 2))


def test_kernel_validation():
    with pytest.raises(gl.InvalidInputError):
        gl.StepGraphon(np.array([0.5, 0.5]), np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(gl.InvalidInputError):
        gl.StepGraphon(np.array([0.5, 0.4]), np.zeros((2, 2)))
    with pytest.raises(gl.InvalidInputError):
        gl.StepGraphon(np.array([1.0, 0.0]), np.zeros((2, 2)))
    with pytest.raises(gl.InvalidInputError):
        gl.StepGraphon(np.array([1.0]), np.array([[1.5]]))


def test_kernel_rejects_non_finite():
    for mu, w in [([np.nan, 0.5], [[0.0, 1.0], [1.0, 0.0]]),
                  ([0.5, 0.5], [[0.0, np.nan], [np.nan, 0.0]]),
                  ([0.5, 0.5], [[np.inf, 0.0], [0.0, 0.0]])]:
        with pytest.raises(gl.InvalidInputError, match="finite"):
            gl.StepGraphon(np.array(mu), np.array(w))
        with pytest.raises(gl.InvalidInputError, match="finite"):
            gl.StepKernel(np.array(mu), np.array(w))
    with pytest.raises(gl.InvalidInputError, match="finite"):
        gl.Partition([np.nan, 0.5], [0, 1])
    with pytest.raises(gl.InvalidInputError, match="finite"):
        gl.SetFamily(2, [[0]], weights=[np.inf, 0.0])


def test_bigraphon_rejects_non_finite():
    good = np.array([0.5, 0.5])
    with pytest.raises(gl.InvalidInputError, match="finite"):
        gl.StepBigraphon(good, np.array([1.0]), np.array([[np.nan], [0.5]]))
    with pytest.raises(gl.InvalidInputError, match="finite"):
        gl.StepBigraphon(np.array([np.nan, 0.5]), np.array([1.0]), np.zeros((2, 1)))
    with pytest.raises(gl.InvalidInputError, match="finite"):
        gl.StepBigraphon(good, np.array([np.inf]), np.zeros((2, 1)))


def test_values_immutable(k2_graphon):
    with pytest.raises(ValueError):
        k2_graphon.w[0, 0] = 1.0


def test_array_value_types_compare_and_hash_by_identity():
    mu = np.array([0.25, 0.75])
    vals = np.array([[0.0, 1.0], [1.0, 0.5]])
    builders = [lambda: gl.StepKernel(mu, vals), lambda: gl.StepGraphon(mu, vals),
                lambda: gl.StepBigraphon(mu, mu, vals), lambda: gl.Partition(mu, [0, 1]),
                lambda: gl.MetricView(mu, np.array([[0.0, 1.0], [1.0, 0.0]])),
                lambda: gl.SetFamily(2, [[0], [1]], mu)]
    for build in builders:
        a, b = build(), build()
        assert a == a and not a != a
        assert a != b and not a == b
        table = {a: "a", b: "b"}
        assert table[a] == "a" and table[b] == "b"
    # the pattern types keep value equality
    assert gl.Graph(3, [(0, 1)]) == gl.Graph(3, [(1, 0)])
    assert hash(gl.Bigraph(2, 2, [(0, 1)])) == hash(gl.Bigraph(2, 2, [(0, 1)]))


def test_operator_product_examples(k2_graphon):
    sq = gl.operator_product(k2_graphon, k2_graphon)
    assert np.allclose(sq.w, [[0.5, 0.0], [0.0, 0.5]], atol=1e-15)
    p = gl.StepGraphon(np.array([0.3, 0.7]), np.full((2, 2), 0.6))
    q = gl.StepGraphon(np.array([0.3, 0.7]), np.full((2, 2), 0.5))
    assert np.allclose(gl.operator_product(p, q).w, 0.3, atol=1e-15)
    z = gl.StepGraphon(np.array([0.3, 0.7]), np.zeros((2, 2)))
    assert np.all(gl.operator_product(p, z).w == 0.0)


def test_operator_product_basis_mismatch(k2_graphon):
    other = gl.StepGraphon(np.array([0.25, 0.75]), np.zeros((2, 2)))
    with pytest.raises(gl.BasisMismatchError):
        gl.operator_product(k2_graphon, other)


def test_operator_product_associative_on_kernel_values():
    r = rng(11)
    for trial in range(20):
        k = int(r.integers(2, 7))
        mu = r.random(k) + 0.1
        mu = mu / mu.sum()
        mats = [r.random((k, k)) for _ in range(3)]
        left = operator_product_values(operator_product_values(mats[0], mats[1], mu), mats[2], mu)
        right = operator_product_values(mats[0], operator_product_values(mats[1], mats[2], mu), mu)
        assert np.max(np.abs(left - right)) <= 1e-12


def test_operator_powers_associative():
    w = gl.zoo.random_stepfunction(6, seed=5)
    sq = gl.square(w)
    left = gl.operator_product(sq, w)
    right = gl.operator_product(w, sq)
    assert np.max(np.abs(left.w - right.w)) <= 1e-12


def test_cut_norm_examples(k2_graphon):
    zero = gl.StepKernel(np.array([0.5, 0.5]), np.zeros((2, 2)))
    assert gl.cut_norm(zero) == 0.0
    r = gl.StepKernel(k2_graphon.mu, k2_graphon.w - 0.5)
    assert abs(gl.cut_norm(r) - 0.125) <= 1e-15
    corner = gl.StepKernel(np.array([0.5, 0.5]), np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert abs(gl.cut_norm(corner) - 0.25) <= 1e-15


def test_cut_norm_matches_brute_force():
    for seed in range(40):
        k = 2 + seed % 7
        kern = gl.zoo.random_kernel(k, seed=seed)
        assert abs(gl.cut_norm(kern) - brute_cut_norm(kern)) <= 1e-12


def _assert_rectangle_max_matches(a):
    pos, neg = gl.rectangle_max(a)
    ref_pos, ref_neg = reference_rectangle_max(a)
    assert abs(pos - ref_pos) <= 1e-12 and abs(neg - ref_neg) <= 1e-12
    flipped = gl.rectangle_max(-a)
    assert abs(flipped[0] - neg) <= 1e-12 and abs(flipped[1] - pos) <= 1e-12


def test_rectangle_max_matches_reference_square():
    # k up to 18 runs the block sweep several times; odd k splits unevenly
    r = rng(11)
    for k in range(1, 19):
        a = r.standard_normal((k, k)) / k
        _assert_rectangle_max_matches(a + a.T)
        # the optimum of a nonnegative matrix is every row, in the last block
        pos, neg = gl.rectangle_max(np.abs(a))
        assert abs(pos - np.abs(a).sum()) <= 1e-12 and neg <= 1e-12


def test_rectangle_max_matches_reference_rectangular():
    r = rng(12)
    for k1, k2 in [(1, 5), (5, 1), (2, 7), (7, 3), (4, 9), (11, 6), (13, 2), (3, 14)]:
        _assert_rectangle_max_matches(r.standard_normal((k1, k2)))


def test_rectangle_max_zero_rows_and_columns():
    assert gl.rectangle_max(np.zeros((6, 6))) == (0.0, 0.0)
    assert gl.rectangle_max(np.zeros((3, 5))) == (0.0, 0.0)
    r = rng(13)
    for seed in range(6):
        a = r.standard_normal((9, 7))
        a[r.random(9) < 0.4] = 0.0
        a[:, r.random(7) < 0.4] = 0.0
        _assert_rectangle_max_matches(a)
    single = np.zeros((8, 8))
    single[3, 5] = -0.25
    assert gl.rectangle_max(single) == (0.0, 0.25)


def test_cut_norm_heuristic_lower_bound():
    for seed in range(20):
        kern = gl.zoo.random_kernel(2 + seed % 8, seed=100 + seed)
        exact = gl.cut_norm(kern, mode="exact")
        heur = gl.cut_norm(kern, mode="heuristic")
        assert heur <= exact + 1e-12


def test_cut_norm_size_guard():
    big = gl.StepKernel(np.full(25, 1 / 25), np.zeros((25, 25)))
    with pytest.raises(gl.SizeLimitError):
        gl.cut_norm(big, mode="exact")
    assert gl.cut_norm(big, mode="heuristic") == 0.0


def test_cut_norm_zero_kernel_skips_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("searched an all-zero kernel")

    monkeypatch.setattr(gl.core, "rectangle_max", no_search)
    monkeypatch.setattr(gl.core, "_cut_norm_heuristic", no_search)
    for k in (20, 300):
        zero = gl.StepKernel(np.full(k, 1 / k), np.zeros((k, k)))
        assert gl.cut_norm(zero, mode="heuristic") == 0.0
    assert gl.cut_norm(gl.StepKernel(np.full(20, 1 / 20), np.zeros((20, 20)))) == 0.0


def test_cut_norm_at_most_l1():
    for seed in range(50):
        kern = gl.zoo.random_kernel(2 + seed % 9, seed=200 + seed)
        assert gl.cut_norm(kern) <= gl.l1_norm(kern) + 1e-12


def test_l1_norm_examples(k2_graphon):
    assert gl.l1_norm(gl.StepKernel(np.array([1.0]), np.zeros((1, 1)))) == 0.0
    r = gl.StepKernel(k2_graphon.mu, k2_graphon.w - 0.5)
    assert abs(gl.l1_norm(r) - 0.5) <= 1e-15
    c = gl.StepKernel(np.array([0.5, 0.5]), np.full((2, 2), -0.3))
    assert abs(gl.l1_norm(c) - 0.3) <= 1e-15


def test_aggregate_examples(k2_graphon):
    agg = gl.aggregate(k2_graphon, gl.Partition.trivial(k2_graphon.mu))
    assert np.allclose(agg.w, 0.5, atol=1e-15)
    ident = gl.aggregate(k2_graphon, gl.Partition.singletons(k2_graphon.mu))
    assert np.array_equal(ident.w, k2_graphon.w)


def test_aggregate_idempotent():
    for seed in range(10):
        w = gl.zoo.random_stepfunction(6, seed=seed)
        p = random_partition(w.mu, 3, seed)
        once = gl.aggregate(w, p)
        twice = gl.aggregate(once, p)
        assert np.max(np.abs(once.w - twice.w)) <= 1e-12


def test_aggregate_matches_reference_with_exact_singleton_blocks():
    for seed, k in enumerate((20, 100, 300)):
        r = rng(seed)
        mass = r.random(k) + 0.1
        w = gl.StepGraphon(mass / mass.sum(), gl.zoo.random_stepfunction(k, seed=500 + seed).w)
        merged = r.random(k) < 0.5
        labels = [i % 5 if m else 5 + i for i, m in enumerate(merged)]
        _, assign = np.unique(labels, return_inverse=True)
        p = gl.Partition(w.mu, assign.tolist(), int(assign.max()) + 1)
        out = gl.aggregate(w, p).w
        assert np.max(np.abs(out - reference_aggregate(w, p))) <= 1e-15
        alone = np.flatnonzero(~merged)
        assert np.array_equal(out[np.ix_(alone, alone)], w.w[np.ix_(alone, alone)])


def test_aggregate_basis_mismatch(k2_graphon):
    p = gl.Partition(np.array([0.25, 0.75]), [0, 0], 1)
    with pytest.raises(gl.BasisMismatchError):
        gl.aggregate(k2_graphon, p)


def test_aggregate_contracts_cut_norm():
    for seed in range(15):
        w = gl.zoo.random_stepfunction(7, seed=300 + seed)
        p = random_partition(w.mu, 3, seed)
        wp = gl.aggregate(w, p)
        ref = gl.StepGraphon(w.mu, np.zeros((w.k, w.k)))
        assert gl.cut_norm(gl.difference(wp, ref)) <= gl.cut_norm(gl.difference(w, ref)) + 1e-12


def test_cut_norm_invariant_under_within_class_permutation():
    w = gl.zoo.random_stepfunction(6, seed=77)
    p = gl.Partition(w.mu, [0, 0, 1, 1, 2, 2], 3)
    base = gl.cut_norm(gl.difference(w, gl.aggregate(w, p)))
    perm = [1, 0, 3, 2, 5, 4]  # swaps inside classes
    w2 = gl.StepGraphon(w.mu[perm], w.w[np.ix_(perm, perm)])
    p2 = gl.Partition(w2.mu, [p.assign[i] for i in perm], 3)
    other = gl.cut_norm(gl.difference(w2, gl.aggregate(w2, p2)))
    assert abs(base - other) <= 1e-12


def test_split_step_examples(constant_half):
    s = gl.split_step(constant_half, 0, 3)
    assert s.k == 3 and np.all(s.w == 0.5)
    k2 = gl.graphon_from_graph(gl.Graph(2, [(0, 1)]))
    split = gl.split_step(k2, 0, 2)
    assert split.k == 3
    probe = gl.Graph(2, [(0, 1)])
    assert abs(gl.density(probe, split) - 0.5) <= 1e-15
    with pytest.raises(gl.InvalidInputError):
        gl.split_step(k2, 5, 2)


def test_split_then_purify_round_trip():
    w = gl.zoo.random_stepfunction(4, seed=9)
    split = gl.split_step(w, 1, 2)
    back, mapping = gl.purify(split)
    assert back.k == w.k
    assert np.allclose(back.mu, w.mu, atol=1e-12)
    assert np.allclose(back.w, w.w, atol=1e-12)
    assert mapping == [0, 1, 1, 2, 3]


def test_blow_up_examples():
    k22 = gl.blow_up(gl.Graph(2, [(0, 1)]), [2, 2], [False, False])
    assert k22.n == 4
    assert k22.edges == gl.Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)]).edges
    k3 = gl.blow_up(gl.Graph(1), [3], [True])
    assert k3.edges == gl.Graph.complete(3).edges
    same = gl.blow_up(gl.Graph(2, [(0, 1)]), [1, 1], [False, False])
    assert same.edges == {(0, 1)}
    with pytest.raises(gl.InvalidInputError):
        gl.blow_up(gl.Graph(2, [(0, 1)]), [2], [False, False])


def test_blow_up_density_matches_hom_counting():
    from conftest import brute_hom_count, random_graph

    h = gl.Graph(3, [(0, 1), (1, 2)])
    blown = gl.blow_up(h, [2, 1, 2], [True, False, True])
    w = gl.graphon_from_graph(blown)
    for seed in range(6):
        f = random_graph(int(rng(seed).integers(2, 5)), seed=400 + seed)
        expected = brute_hom_count(f, blown) / blown.n ** f.n
        assert abs(gl.density(f, w) - expected) <= 1e-12
