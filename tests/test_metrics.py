import numpy as np
import pytest

import graphonlab as gl

from graphonlab.metrics import _row_l1_matrix

from conftest import (brute_packing, random_bigraphon, reference_purify, reference_row_l1,
                      reference_voronoi, rng)


def test_neighborhood_metric_examples(k2_graphon):
    nm = gl.neighborhood_metric(k2_graphon)
    assert nm.dist[0, 1] == 1.0
    h2 = gl.StepGraphon(np.array([0.5, 0.5]), np.array([[1.0, 1.0], [1.0, 0.0]]))
    assert abs(gl.neighborhood_metric(h2).dist[0, 1] - 0.5) <= 1e-15
    const = gl.StepGraphon(np.array([0.5, 0.5]), np.full((2, 2), 0.4))
    assert np.all(gl.neighborhood_metric(const).dist == 0.0)


def test_neighborhood_metric_zero_one_fast_path_agrees():
    w = gl.zoo.random_stepfunction(30, seed=4, zero_one=True)
    fast = gl.neighborhood_metric(w).dist
    slow = np.abs(w.w[:, None, :] - w.w[None, :, :]) @ w.mu
    assert np.max(np.abs(fast - slow)) <= 1e-12


def _assert_row_l1(d, values, weights):
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    assert np.max(np.abs(d - reference_row_l1(values, weights))) <= 1e-12


def test_row_l1_matrix_matches_reference():
    for k in (1, 2, 3, 7, 40):
        w = gl.zoo.random_stepfunction(k, seed=70 + k)
        _assert_row_l1(_row_l1_matrix(w.w, w.mu), w.w, w.mu)
        b = gl.zoo.random_stepfunction(k, seed=90 + k, zero_one=True)
        _assert_row_l1(_row_l1_matrix(b.w, b.mu), b.w, b.mu)
    # rows of zeros and ones mixed with one fraction take the real sweep
    mixed = gl.zoo.random_stepfunction(12, seed=5, zero_one=True).w.copy()
    mixed[3, 7] = mixed[7, 3] = 0.5
    mu = np.full(12, 1 / 12)
    _assert_row_l1(_row_l1_matrix(mixed, mu), mixed, mu)


def test_row_l1_matrix_rectangular_via_bigraphon_metrics():
    for k1, k2 in ((1, 1), (1, 5), (2, 1), (2, 9), (7, 3), (30, 11)):
        b = random_bigraphon(k1, k2, seed=k1 * 31 + k2)
        zero_one = gl.StepBigraphon(b.mu1, b.mu2, (b.w > 0.5).astype(float))
        for host in (b, zero_one):
            r1, r2 = gl.bigraphon_metrics(host)
            _assert_row_l1(r1.dist, host.w, host.mu2)
            _assert_row_l1(r2.dist, host.w.T, host.mu1)


def test_triangle_violation_value():
    d = np.array([[0.0, 1.0, 0.1], [1.0, 0.0, 0.1], [0.1, 0.1, 0.0]])
    assert abs(gl.triangle_violation(d) - 0.8) <= 1e-15
    assert gl.triangle_violation(gl.neighborhood_metric(
        gl.zoo.random_stepfunction(9, seed=2)).dist) <= 1e-12


def test_bigraphon_metrics_examples():
    w = gl.StepBigraphon(np.array([0.5, 0.5]), np.array([0.5, 0.5]),
                         np.array([[1.0, 0.0], [0.0, 1.0]]))
    r1, r2 = gl.bigraphon_metrics(w)
    assert r1.dist[0, 1] == 1.0 and r2.dist[0, 1] == 1.0
    const = gl.StepBigraphon(np.array([1.0]), np.array([0.3, 0.7]), np.array([[0.2, 0.2]]))
    r1, r2 = gl.bigraphon_metrics(const)
    assert r1.k == 1 and np.all(r2.dist == 0.0)


def test_similarity_metric_examples(k2_graphon):
    sm = gl.similarity_metric(k2_graphon)
    assert abs(sm.dist[0, 1] - 0.5) <= 1e-15
    const = gl.StepGraphon(np.array([0.25, 0.75]), np.full((2, 2), 0.8))
    assert np.all(gl.similarity_metric(const).dist == 0.0)


def test_contraction_similarity_below_neighborhood():
    for seed in range(60):
        w = gl.zoo.random_stepfunction(2 + seed % 10, seed=seed)
        sim = gl.similarity_metric(w).dist
        nbr = gl.neighborhood_metric(w).dist
        assert np.all(sim <= nbr + 1e-12)


def test_metrics_are_metrics():
    for seed in range(15):
        w = gl.zoo.random_stepfunction(2 + seed % 6, seed=40 + seed)
        gl.neighborhood_metric(w).assert_metric(1e-9)
        gl.similarity_metric(w).assert_metric(1e-9)
        b = random_bigraphon(3, 4, seed)
        r1, r2 = gl.bigraphon_metrics(b)
        r1.assert_metric(1e-9)
        r2.assert_metric(1e-9)


def test_metric_view_validation():
    with pytest.raises(gl.InvalidInputError):
        gl.MetricView(np.array([0.5, 0.5]), np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(gl.InvalidInputError):
        gl.MetricView(np.array([0.5, 0.5]), np.array([[0.1, 1.0], [1.0, 0.0]]))
    # triangle inequality is caught at construction in debug mode
    with pytest.raises(gl.InvalidInputError, match="triangle"):
        gl.MetricView(np.array([1 / 3] * 3, dtype=float),
                      np.array([[0.0, 1.0, 0.1], [1.0, 0.0, 0.1], [0.1, 0.1, 0.0]]))


def test_metric_view_rejects_a_2d_measure():
    with pytest.raises(gl.InvalidInputError, match="1-d"):
        gl.MetricView(np.array([[0.5, 0.5]]), np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_metric_view_rejects_non_finite():
    with pytest.raises(gl.InvalidInputError, match="finite"):
        gl.MetricView(np.array([0.5, 0.5]), np.array([[0.0, np.nan], [np.nan, 0.0]]))
    with pytest.raises(gl.InvalidInputError, match="finite"):
        gl.MetricView(np.array([0.5, 0.5]), np.array([[0.0, np.inf], [np.inf, 0.0]]))
    with pytest.raises(gl.InvalidInputError, match="finite"):
        gl.MetricView(np.array([np.nan, 0.5]), np.zeros((2, 2)))


def test_purify_examples(k2_graphon):
    twin = gl.StepGraphon(np.array([0.5, 0.5]), np.full((2, 2), 0.3))
    merged, mapping = gl.purify(twin)
    assert merged.k == 1 and merged.w[0, 0] == 0.3 and mapping == [0, 0]
    same, mapping = gl.purify(k2_graphon)
    assert same.k == 2 and mapping == [0, 1]


def test_purify_preserves_densities():
    w = gl.zoo.random_stepfunction(4, seed=21)
    split = gl.split_step(gl.split_step(w, 0, 2), 3, 3)
    pure, _ = gl.purify(split)
    assert pure.k == w.k
    nm = gl.neighborhood_metric(pure).dist
    off = nm[~np.eye(pure.k, dtype=bool)]
    assert np.all(off > 1e-9)
    for f in (gl.Graph(2, [(0, 1)]), gl.Graph(3, [(0, 1), (1, 2)]), gl.Graph.complete(3)):
        assert abs(gl.density(f, pure) - gl.density(f, w)) <= 1e-9


def _assert_purify_matches_reference(w):
    pure, mapping = gl.purify(w)
    mu, vals, ref_mapping = reference_purify(w)
    assert mapping == ref_mapping
    assert np.max(np.abs(pure.mu - mu)) <= 1e-12
    assert np.max(np.abs(pure.w - vals)) <= 1e-12
    return pure


def test_purify_matches_reference_on_split_hosts():
    for seed in range(6):
        w = gl.zoo.random_stepfunction(5 + seed, seed=800 + seed)
        split = gl.split_step(gl.split_step(gl.split_step(w, 0, 2), 3, 3), w.k + 2, 2)
        pure = _assert_purify_matches_reference(split)
        assert pure.k == w.k
    # twin groups of 1, 2 and 3 steps, with unequal measures
    w = gl.zoo.random_stepfunction(4, seed=3)
    split = gl.split_step(gl.split_step(w, 1, 3), 0, 2)
    _assert_purify_matches_reference(split)


def test_purify_matches_reference_on_sphere_with_duplicates():
    _, pts = gl.zoo.sphere_graphon(2, 30, seed=9)
    idx = [0, 0, 1, 2, 2, 2, 3] + list(range(4, 30)) + [29, 17]
    dup = pts[idx]
    adj = (dup @ dup.T >= 0.0).astype(float)
    w = gl.StepGraphon(np.full(len(idx), 1 / len(idx)), np.maximum(adj, adj.T))
    pure = _assert_purify_matches_reference(w)
    assert pure.k <= 30


def test_packing_number_examples(k2_graphon):
    nm = gl.neighborhood_metric(k2_graphon)
    assert gl.packing_number(nm, 0.5) == 2
    assert gl.packing_number(nm, 1.1) == 1
    # points exactly eps apart are separated: the greedy sweep stops below eps
    assert gl.greedy_packing(nm, 1.0) == [0, 1]
    const = gl.neighborhood_metric(gl.StepGraphon(np.array([0.5, 0.5]), np.full((2, 2), 0.2)))
    assert gl.packing_number(const, 0.01) == 1


def test_packing_number_matches_brute_force():
    for seed in range(20):
        w = gl.zoo.random_stepfunction(2 + seed % 6, seed=500 + seed)
        m = gl.neighborhood_metric(w)
        eps = 0.05 + 0.9 * rng(seed).random()
        assert gl.packing_number(m, eps) == brute_packing(m, eps)


def test_packing_greedy_lower_bound_and_monotone():
    w = gl.zoo.random_stepfunction(9, seed=31)
    m = gl.neighborhood_metric(w)
    prev = None
    for eps in (0.05, 0.1, 0.2, 0.4, 0.8):
        exact = gl.packing_number(m, eps)
        greedy = gl.packing_number(m, eps, mode="greedy")
        assert greedy <= exact
        if prev is not None:
            assert exact <= prev
        prev = exact


def test_packing_number_guards(k2_graphon):
    nm = gl.neighborhood_metric(k2_graphon)
    with pytest.raises(gl.InvalidInputError):
        gl.packing_number(nm, 0.0)
    big = gl.neighborhood_metric(gl.zoo.random_stepfunction(21, seed=1))
    with pytest.raises(gl.SizeLimitError):
        gl.packing_number(big, 0.1)


def test_packing_dimension_interval():
    # d(i, j) = |i - j| / 16 on 16 steps: packing numbers 4, 8, 16 give
    # slope exactly 1 on the grid {1/4, 1/8, 1/16}
    k = 16
    i = np.arange(k)
    d = np.abs(i[:, None] - i[None, :]) / k
    m = gl.MetricView(np.full(k, 1 / k), d)
    slope, table = gl.packing_dimension_estimate(m, [1 / 4, 1 / 8, 1 / 16])
    assert [n for _, n in table] == [4, 8, 16]
    assert abs(slope - 1.0) <= 0.2


def test_packing_dimension_flat_and_grid_validation():
    const = gl.neighborhood_metric(gl.StepGraphon(np.array([0.5, 0.5]), np.full((2, 2), 0.7)))
    slope, table = gl.packing_dimension_estimate(const, [1 / 4, 1 / 8])
    assert slope == 0.0 and all(n == 1 for _, n in table)
    two = gl.neighborhood_metric(gl.graphon_from_graph(gl.Graph(2, [(0, 1)])))
    slope, _ = gl.packing_dimension_estimate(two, [0.6, 0.5, 0.4])
    assert abs(slope) <= 1e-12  # grid below the single gap
    with pytest.raises(gl.InvalidInputError):
        gl.packing_dimension_estimate(two, [0.5])
    with pytest.raises(gl.InvalidInputError):
        gl.packing_dimension_estimate(two, [0.25, 0.5])


def test_average_net_examples(k2_graphon):
    nm = gl.neighborhood_metric(k2_graphon)
    centers, cost = gl.average_net(nm, 0.5)
    assert centers == [0] and abs(cost - 0.5) <= 1e-15
    const = gl.neighborhood_metric(gl.StepGraphon(np.array([0.5, 0.5]), np.full((2, 2), 0.2)))
    centers, cost = gl.average_net(const, 0.3)
    assert len(centers) == 1 and cost == 0.0
    w = gl.zoo.random_stepfunction(6, seed=13)
    m = gl.neighborhood_metric(w)
    centers, cost = gl.average_net(m, 0.0)
    assert sorted(centers) == list(range(6)) and cost == 0.0


def test_average_net_cost_monotone_and_within_budget():
    for seed in range(10):
        w = gl.zoo.random_stepfunction(8, seed=600 + seed)
        m = gl.neighborhood_metric(w)
        for eps in (0.05, 0.15, 0.3):
            centers, cost = gl.average_net(m, eps)
            assert cost <= eps
            # rebuild the cost trajectory to check monotonicity
            mind = m.dist[centers[0]].copy()
            prev = float(mind @ m.mu)
            for c in centers[1:]:
                mind = np.minimum(mind, m.dist[c])
                cur = float(mind @ m.mu)
                assert cur <= prev + 1e-15
                prev = cur


def test_voronoi_examples(k2_graphon):
    nm = gl.neighborhood_metric(k2_graphon)
    part = gl.voronoi_partition(nm, [0])
    assert part.c == 1 and part.assign == (0, 0)
    part = gl.voronoi_partition(nm, [0, 1])
    assert part.classes() == [[0], [1]]
    w = gl.zoo.random_stepfunction(5, seed=19)
    m = gl.neighborhood_metric(w)
    part = gl.voronoi_partition(m, list(range(5)))
    assert part.classes() == [[0], [1], [2], [3], [4]]
    with pytest.raises(gl.InvalidInputError):
        gl.voronoi_partition(m, [])


def test_voronoi_ties_and_twin_centers():
    twin = gl.StepGraphon(np.array([0.25, 0.25, 0.5]),
                          np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]))
    m = gl.neighborhood_metric(twin)
    part = gl.voronoi_partition(m, [1, 0, 2])  # steps 0 and 1 are twins
    # each center keeps its own cell even at distance 0
    assert part.assign[0] == 1 and part.assign[1] == 0 and part.assign[2] == 2


def test_voronoi_matches_the_reference_loop_on_exact_ties():
    # half graphons put many steps at exactly equal distance from two
    # centers; a split sphere step gives two rows at distance 0
    hosts = [gl.zoo.half_graphon(n) for n in (6, 9, 16)]
    hosts += [gl.split_step(gl.zoo.sphere_graphon(2, n, seed)[0], seed % n, 2)
              for n, seed in ((12, 1), (30, 2), (50, 3))]
    r = rng(23)
    for w in hosts:
        for m in (gl.neighborhood_metric(w), gl.similarity_metric(w)):
            for size in (1, 2, 3, w.k // 2, w.k):
                centers = [int(c) for c in r.permutation(w.k)[:size]]
                part = gl.voronoi_partition(m, centers)
                assert part.assign == reference_voronoi(m, centers)


def test_metric_csv_export(k2_graphon):
    nm = gl.neighborhood_metric(k2_graphon)
    lines = nm.to_csv().strip().split("\n")
    assert lines[0] == "0,1"
    assert lines[1].split(",")[1] == "1"
