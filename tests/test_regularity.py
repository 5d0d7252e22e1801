import dataclasses
import math

import numpy as np
import pytest

import graphonlab as gl

from conftest import brute_cut_norm, brute_szemeredi_error, random_partition, rng


def test_weak_partition_constant():
    const = gl.StepGraphon(np.array([0.3, 0.7]), np.full((2, 2), 0.4))
    rep = gl.weak_partition_via_net(const, 0.05)
    assert rep.class_count == 1
    assert rep.cut_error <= 1e-12
    assert rep.certified("cut")


def test_weak_partition_k2(k2_graphon):
    rep = gl.weak_partition_via_net(k2_graphon, 0.1)
    assert rep.class_count == 2
    assert sorted(rep.centers) == [0, 1]
    assert rep.cut_error <= 1e-15
    assert rep.net_cost == 0.0


def test_weak_partition_random_certified():
    for seed in range(30):
        w = gl.zoo.random_stepfunction(4 + seed % 9, seed=seed)
        for eps in (0.02, 0.05, 0.1):
            rep = gl.weak_partition_via_net(w, eps)
            assert rep.exact
            assert rep.net_cost <= eps
            assert rep.cut_error <= rep.certified_bound + 1e-9
            assert rep.cut_error <= rep.l1_error + 1e-12


def test_partition_cut_error_examples(k2_graphon):
    assert gl.partition_cut_error(k2_graphon, gl.Partition.singletons(k2_graphon.mu)) <= 1e-15
    assert abs(gl.partition_cut_error(k2_graphon, gl.Partition.trivial(k2_graphon.mu))
               - 0.125) <= 1e-15
    w = gl.zoo.random_stepfunction(5, seed=3)
    assert gl.partition_cut_error(w, gl.Partition.singletons(w.mu)) <= 1e-12


def test_partition_cut_error_matches_brute_force():
    for seed in range(15):
        w = gl.zoo.random_stepfunction(3 + seed % 4, seed=100 + seed)
        p = random_partition(w.mu, 2 + seed % 2, seed)
        r = gl.difference(w, gl.aggregate(w, p))
        assert abs(gl.partition_cut_error(w, p) - brute_cut_norm(r)) <= 1e-12


def test_szemeredi_error_examples(k2_graphon):
    assert gl.szemeredi_error(k2_graphon, gl.Partition.singletons(k2_graphon.mu)) <= 1e-15
    assert abs(gl.szemeredi_error(k2_graphon, gl.Partition.trivial(k2_graphon.mu))
               - 0.125) <= 1e-15


def test_szemeredi_error_dominates_cut_error():
    for seed in range(20):
        w = gl.zoo.random_stepfunction(4 + seed % 5, seed=200 + seed)
        p = random_partition(w.mu, 2 + seed % 3, seed)
        sz = gl.szemeredi_error(w, p)
        assert sz >= 0.0
        assert sz >= gl.partition_cut_error(w, p) - 1e-12


def test_szemeredi_error_matches_brute_force():
    for seed in range(40):
        w = gl.zoo.random_stepfunction(1 + seed % 7, seed=700 + seed)
        p = random_partition(w.mu, 1 + seed % 4, seed)
        assert abs(gl.szemeredi_error(w, p) - brute_szemeredi_error(w, p)) <= 1e-12


def test_szemeredi_error_pinned_bits():
    # two classes, so four rectangle_max blocks (14x14, 14x6, 6x14, 6x6);
    # the value the unpruned sweep computed, so a kernel change that moves
    # a bit fails here by name
    w = gl.zoo.random_stepfunction(20, seed=3)
    p = gl.Partition(w.mu, [0] * 14 + [1] * 6)
    assert gl.szemeredi_error(w, p).hex() == "0x1.6151204929c7dp-5"


def test_szemeredi_error_size_guard():
    w = gl.zoo.random_stepfunction(25, seed=1)
    with pytest.raises(gl.SizeLimitError):
        gl.szemeredi_error(w, gl.Partition.trivial(w.mu))
    w = gl.zoo.random_stepfunction(24, seed=1)
    one = gl.Partition.trivial(w.mu)
    assert gl.szemeredi_error(w, one) == gl.partition_cut_error(w, one)
    two = gl.Partition(w.mu, [i % 2 for i in range(24)])
    assert gl.szemeredi_error(w, two) >= gl.partition_cut_error(w, two)


def test_net_from_partition_examples(k2_graphon):
    centers, cost = gl.net_from_partition(k2_graphon, gl.Partition.singletons(k2_graphon.mu))
    assert cost == 0.0 and sorted(centers) == [0, 1]
    const = gl.StepGraphon(np.array([0.5, 0.5]), np.full((2, 2), 0.6))
    centers, cost = gl.net_from_partition(const, gl.Partition.trivial(const.mu))
    assert cost == 0.0


def test_net_from_partition_bound():
    for seed in range(25):
        w = gl.zoo.random_stepfunction(4 + seed % 7, seed=300 + seed)
        for trial in range(3):
            p = random_partition(w.mu, 2 + trial, 50 * seed + trial)
            centers, cost = gl.net_from_partition(w, p)
            assert len(centers) == p.c
            assert cost <= 4.0 * gl.partition_cut_error(w, p) + 1e-9


def _certify_host():
    """A k = 20 host and its weak partition, as the certify pipeline makes them."""
    w = gl.zoo.random_stepfunction(20, seed=11)
    return w, gl.weak_partition_via_net(w, 0.05).partition


def _fresh(p):
    """A copy of ``p`` that has measured nothing yet."""
    return gl.Partition(p.base, p.assign, p.c)


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _count_enumerations(monkeypatch):
    """Calls of ``rectangle_max`` from either module that binds it."""
    calls = _count_calls(monkeypatch, gl.core, "rectangle_max")
    monkeypatch.setattr(gl.regularity, "rectangle_max", gl.core.rectangle_max)
    return calls


def _count_upper_bounds(monkeypatch):
    """Calls of ``cut_norm_upper`` from either module that binds it."""
    calls = _count_calls(monkeypatch, gl.core, "cut_norm_upper")
    monkeypatch.setattr(gl.regularity, "cut_norm_upper", gl.core.cut_norm_upper)
    return calls


def test_net_from_partition_exact_path_decides(monkeypatch):
    w, p = _certify_host()
    p = _fresh(p)
    expected = gl.net_from_partition(w, p)
    upper = _count_upper_bounds(monkeypatch)
    exact = _count_calls(monkeypatch, gl.core, "rectangle_max")
    assert gl.net_from_partition(w, _fresh(p)) == expected
    assert expected[1] > 0.0 and len(exact) == 1 and upper == []


def test_net_from_partition_raises_when_exact_falls_short(monkeypatch):
    w, p = _certify_host()
    p = _fresh(p)
    _, cost = gl.net_from_partition(w, p)
    upper = _count_upper_bounds(monkeypatch)
    monkeypatch.setattr(gl.core, "rectangle_max", lambda a, *, larger_side: cost / 8.0)
    with pytest.raises(gl.CertificationError):
        gl.net_from_partition(w, _fresh(p))
    assert upper == []


def test_net_from_partition_above_the_guard_measures_no_cut_norm(monkeypatch):
    w = gl.zoo.random_stepfunction(gl.core.CUT_NORM_MAX_STEPS + 1, seed=11)
    p = random_partition(w.mu, 3, 11)
    exact = _count_enumerations(monkeypatch)
    upper = _count_upper_bounds(monkeypatch)
    centers, cost = gl.net_from_partition(w, p)
    assert len(centers) == 3 and cost > 0.0
    assert exact == [] and upper == []


def test_szemeredi_error_reads_the_weak_reports_cut_norm(monkeypatch):
    w = gl.zoo.random_stepfunction(20, seed=11)
    weak = gl.weak_partition_via_net(w, 0.05)
    assert weak.class_count == 1 and weak.exact
    exact = _count_enumerations(monkeypatch)
    assert gl.szemeredi_error(w, weak.partition) == weak.cut_error
    assert gl.partition_cut_error(w, weak.partition) == weak.cut_error
    assert exact == []


def test_net_from_partition_reads_the_memoized_cut_norm(monkeypatch):
    w, p = _certify_host()
    expected = gl.net_from_partition(w, _fresh(p))
    exact = _count_enumerations(monkeypatch)
    upper = _count_upper_bounds(monkeypatch)
    assert gl.net_from_partition(w, p) == expected
    assert exact == [] and upper == []


def test_another_graphon_on_the_same_basis_is_measured_afresh(monkeypatch):
    w, p = _certify_host()
    twin = gl.StepGraphon(w.mu, w.w)  # equal values, another object
    other = gl.zoo.random_stepfunction(20, seed=12)
    other = gl.StepGraphon(w.mu, other.w)
    exact = _count_enumerations(monkeypatch)
    assert gl.szemeredi_error(w, p) == gl.partition_cut_error(w, p)
    assert exact == []
    assert gl.szemeredi_error(twin, p) == gl.szemeredi_error(w, _fresh(p))
    assert len(exact) == 2
    theirs = gl.szemeredi_error(other, p)
    assert len(exact) == 3
    assert theirs == gl.szemeredi_error(other, _fresh(p))
    assert theirs != gl.szemeredi_error(w, p)
    assert gl.net_from_partition(other, p) == gl.net_from_partition(other, _fresh(p))


def test_memo_leaves_partitions_and_reports_unchanged(monkeypatch):
    w = gl.zoo.random_stepfunction(20, seed=11)
    weak = gl.weak_partition_via_net(w, 0.05)
    p, q = weak.partition, _fresh(weak.partition)
    exact = _count_enumerations(monkeypatch)
    gl.szemeredi_error(w, p)
    assert exact == []
    assert [f.name for f in dataclasses.fields(gl.Partition)] == ["base", "assign", "c"]
    assert p == p and repr(p) == repr(q)
    assert (p.assign, p.c) == (q.assign, q.c) and np.array_equal(p.base, q.base)
    again = gl.regularity._measured_report(w, q, centers=weak.centers,
                                           net_cost=weak.net_cost,
                                           certified_bound=weak.certified_bound)
    assert again.to_dict() == weak.to_dict()


def test_certify_sequence_enumerates_once_and_sweeps_twice(monkeypatch):
    w = gl.zoo.random_stepfunction(20, seed=11)
    exact = _count_enumerations(monkeypatch)
    sweeps = _count_calls(monkeypatch, gl.metrics, "_row_l1_matrix")
    weak = gl.weak_partition_via_net(w, 0.05)
    ultra = gl.ultra_strong_partition(w, 0.3)
    szemeredi = gl.szemeredi_error(w, weak.partition)
    gl.net_from_partition(w, weak.partition)
    assert len(exact) == 1 and len(sweeps) == 2
    assert szemeredi == weak.cut_error and ultra.exact and ultra.class_count > 1


def test_measuring_another_graphon_drops_what_was_derived(monkeypatch):
    w, p = _certify_host()
    other = gl.zoo.random_stepfunction(20, seed=12)
    gl.partition_cut_error(w, p)
    gl.neighborhood_metric(other)
    exact = _count_enumerations(monkeypatch)
    sweeps = _count_calls(monkeypatch, gl.metrics, "_row_l1_matrix")
    first = gl.partition_cut_error(w, p)
    assert len(exact) == 1
    assert gl.partition_cut_error(w, p) == first and len(exact) == 1
    gl.similarity_metric(w)
    gl.similarity_metric(w)
    assert len(sweeps) == 1


def test_measuring_leaves_no_attribute_on_the_partition():
    w = gl.zoo.random_stepfunction(20, seed=11)
    p = gl.weak_partition_via_net(w, 0.05).partition
    gl.szemeredi_error(w, p)
    gl.net_from_partition(w, p)
    assert set(vars(p)) == {"base", "assign", "c"}


def test_ultra_strong_separated_rows_is_exact():
    h = gl.zoo.half_graphon(8)  # min row distance 1/8 > eps/2 for eps = 0.2
    rep = gl.ultra_strong_partition(h, 0.2)
    assert rep.l1_error == 0.0
    assert rep.class_count == 8


def test_ultra_strong_constant():
    const = gl.StepGraphon(np.array([0.25, 0.75]), np.full((2, 2), 0.4))
    rep = gl.ultra_strong_partition(const, 0.1)
    assert rep.class_count == 1
    assert rep.l1_error <= 1e-12


def test_ultra_strong_random_corpus():
    for seed in range(25):
        w = gl.zoo.random_stepfunction(3 + seed % 8, seed=400 + seed)
        for eps in (0.2, 0.3):
            rep = gl.ultra_strong_partition(w, eps)
            m = len(rep.centers)
            assert rep.l1_error <= eps
            assert rep.class_count <= m * int(np.ceil(1 / eps)) ** m
            assert rep.certified("l1")


def test_ball_cover_is_the_greedy_packing():
    # both ultra-strong variants cover by the farthest-point eps/4 packing
    m2 = gl.Bigraph(2, 2, [(0, 0), (1, 1)])
    for n in (5, 8, 11):
        w = gl.zoo.half_graphon(n)
        expected = gl.greedy_packing(gl.neighborhood_metric(w), 0.25 / 4.0)
        assert gl.ultra_strong_partition(w, 0.25).centers == expected
        assert gl.thin_ultra_partition(w, m2, 0.25).centers == expected


def test_ultra_strong_eps_validation(k2_graphon):
    with pytest.raises(gl.InvalidInputError):
        gl.ultra_strong_partition(k2_graphon, 0.0)
    with pytest.raises(gl.InvalidInputError):
        gl.ultra_strong_partition(k2_graphon, 1.0)


def test_thin_ultra_half_graphon():
    h8 = gl.zoo.half_graphon(8)
    m2 = gl.Bigraph(2, 2, [(0, 0), (1, 1)])
    rep = gl.thin_ultra_partition(h8, m2, 0.25)
    assert rep.l1_error <= 0.25
    assert rep.atom_count is not None
    assert rep.atom_count <= rep.sauer_bound
    m = len(rep.centers)
    assert rep.sauer_bound == sum(math.comb(m, i) for i in range(min(4, m + 1)))


def test_thin_ultra_zero_graphon():
    zero = gl.StepGraphon(np.array([0.5, 0.5]), np.zeros((2, 2)))
    f = gl.Bigraph(1, 1, [(0, 0)])
    rep = gl.thin_ultra_partition(zero, f, 0.3)
    assert rep.class_count == 1 and rep.l1_error == 0.0


def test_thin_ultra_rejects_non_zero_one():
    half = gl.StepGraphon(np.array([1.0]), np.array([[0.5]]))
    with pytest.raises(gl.HypothesisError):
        gl.thin_ultra_partition(half, gl.Bigraph(1, 1, [(0, 0)]), 0.3)


def test_thin_ultra_rejects_empty_pattern():
    with pytest.raises(gl.InvalidInputError):
        gl.thin_ultra_partition(gl.zoo.half_graphon(4), gl.Bigraph(0, 0), 0.3)


def test_thin_ultra_rejects_present_pattern():
    w = gl.zoo.random_stepfunction(6, seed=8, zero_one=True)
    m2 = gl.Bigraph(2, 2, [(0, 0), (1, 1)])
    if gl.bigraph_density(m2, gl.as_bigraphon(w), induced=True) > 0:
        with pytest.raises(gl.HypothesisError):
            gl.thin_ultra_partition(w, m2, 0.25)


def test_thin_ultra_random_chain_hosts():
    # random blow-ups of half graphons stay 2-matching free
    r = rng(7)
    m2 = gl.Bigraph(2, 2, [(0, 0), (1, 1)])
    for trial in range(10):
        base = gl.zoo.half_graphon(int(r.integers(2, 6)))
        w = base
        for _ in range(int(r.integers(1, 3))):
            w = gl.split_step(w, int(r.integers(0, w.k)), 2)
        for eps in (0.2, 0.4):
            rep = gl.thin_ultra_partition(w, m2, eps)
            assert rep.l1_error <= eps
            assert rep.atom_count <= rep.sauer_bound


def test_thin_partition_is_the_ultra_strong_partition():
    # on 0-1 values the bands send 0 and 1 apart, so the thin report is the
    # ultra-strong one plus the atoms of the center rows
    m2 = gl.Bigraph(2, 2, [(0, 0), (1, 1)])
    hosts = [(gl.zoo.half_graphon(n), m2) for n in range(4, 41)]
    for seed in range(12):
        w = gl.zoo.random_stepfunction(3 + seed % 6, seed=900 + seed, zero_one=True)
        witness = gl.thinness_witness(w, 3)
        if witness is not None:
            hosts.append((w, witness))
    assert len(hosts) > 37
    for w, f in hosts:
        for eps in (0.5, 0.3, 0.25, 0.1, 0.05):
            thin = gl.thin_ultra_partition(w, f, eps)
            doc = thin.to_dict()
            atoms = doc.pop("atom_count")
            del doc["sauer_bound"]
            assert doc == gl.ultra_strong_partition(w, eps).to_dict()
            assert atoms == np.unique(w.w[thin.centers], axis=1).shape[1]


def test_equalize_unchanged_cases():
    w = gl.zoo.random_stepfunction(4, seed=5)
    p = gl.Partition(w.mu, [0, 0, 1, 1], 2)  # classes already equal
    w2, p2 = gl.equalize(w, p, 0.5)
    assert w2 is w and p2 is p
    single = gl.Partition.trivial(w.mu)
    w3, p3 = gl.equalize(w, single, 0.3)
    assert p3 is single


def test_equalize_example_three_quarters():
    w = gl.StepGraphon(np.array([0.75, 0.25]), np.array([[0.9, 0.1], [0.1, 0.2]]))
    p = gl.Partition.singletons(w.mu)
    before = gl.partition_cut_error(w, p)
    w2, p2 = gl.equalize(w, p, 0.5)
    assert p2.c <= p.c * 2
    masses = p2.class_measures()
    assert np.allclose(masses, 0.25, atol=1e-12)
    after = gl.partition_cut_error(w2, p2)
    assert after <= 2 * before + 1e-9


def test_equalize_takes_back_the_seats_that_overshoot():
    # ideal seats 0.3, 0.3 and 5.4 round to 1, 1 and 5, one over the target
    # 3 ceil(1/0.6) = 6, so the largest class gives one back: 1, 1 and 4
    w = gl.StepGraphon(np.array([0.05, 0.05, 0.45, 0.45]),
                       np.array([[0.2, 0.5, 0.9, 0.1], [0.5, 0.3, 0.4, 0.6],
                                 [0.9, 0.4, 0.8, 0.2], [0.1, 0.6, 0.2, 0.7]]))
    p = gl.Partition(w.mu, [0, 1, 2, 2], 3)
    before = gl.partition_cut_error(w, p)
    assert before > 0.0  # the 0.9 class joins two different rows
    w2, p2 = gl.equalize(w, p, 0.6)
    assert p2.c == 3 * 2
    assert np.allclose(p2.class_measures(), [0.05, 0.05, 0.225, 0.225, 0.225, 0.225],
                       atol=1e-12)
    assert float(np.max(np.abs(p2.class_measures() - 1.0 / p2.c))) <= 1.0 / 5
    after = gl.partition_cut_error(w2, p2)
    assert after == pytest.approx(before, abs=1e-12) and after <= 2 * before


def test_equalize_contract_on_random_corpus():
    r = rng(17)
    for trial in range(20):
        k = int(r.integers(2, 8))
        w = gl.zoo.random_stepfunction(k, seed=500 + trial)
        c = int(r.integers(1, k + 1))
        p = random_partition(w.mu, c, 600 + trial)
        eps = float(r.choice([0.2, 0.3, 0.5, 0.7]))
        w2, p2 = gl.equalize(w, p, eps)
        assert p2.c <= p.c * int(np.ceil(1 / eps))
        tol = 1.0 / np.ceil(p.c / eps)
        assert float(np.max(np.abs(p2.class_measures() - 1.0 / p2.c))) <= tol + 1e-12
        if w2.k <= 24:
            assert gl.partition_cut_error(w2, p2) \
                <= 2 * gl.partition_cut_error(w, p) + 1e-9
        # the refined graphon is weakly isomorphic to the original
        f = gl.Graph(3, [(0, 1), (1, 2)])
        assert abs(gl.density(f, w2) - gl.density(f, w)) <= 1e-12


def test_edit_blowup_k22_with_witness_pattern():
    k22 = gl.blow_up(gl.Graph(2, [(0, 1)]), [2, 2], [False, False])
    witness = gl.witness_bigraph(1)  # DE-dimension of K22's row family is 1
    res = gl.edit_blowup_approx(k22, witness, 0.5)
    assert res.changed_cells == 0 and res.edits == 0
    assert res.graph.edges == k22.edges
    assert res.quotient.n == 2 and res.sizes == (2, 2)
    assert res.internal == (False, False)


def test_edit_blowup_half_graphon():
    h8 = gl.zoo.half_graphon(8)
    m2 = gl.Bigraph(2, 2, [(0, 0), (1, 1)])
    res = gl.edit_blowup_approx(h8, m2, 0.5)
    assert res.changed_cells <= 0.5 * 64
    assert res.report.l1_error <= 0.5


def test_edit_blowup_edgeless():
    res = gl.edit_blowup_approx(gl.Graph.empty(5), gl.Bigraph(1, 1, [(0, 0)]), 0.3)
    assert res.edits == 0 and res.changed_cells == 0
    assert res.quotient.n == 1 and res.sizes == (5,)
    assert not res.graph.edges


def test_edit_blowup_graph_with_edge_contains_two_matching():
    # with the zero-diagonal convention any edge embeds the 2-matching, so
    # the exclusion hypothesis fails for simple graphs
    m2 = gl.Bigraph(2, 2, [(0, 0), (1, 1)])
    with pytest.raises(gl.HypothesisError):
        gl.edit_blowup_approx(gl.Graph(2, [(0, 1)]), m2, 0.5)


def test_edit_blowup_rejects_nonuniform():
    w = gl.StepGraphon(np.array([0.25, 0.75]), np.zeros((2, 2)))
    with pytest.raises(gl.InvalidInputError):
        gl.edit_blowup_approx(w, gl.Bigraph(1, 1, [(0, 0)]), 0.5)


def test_report_serialization_shape(k2_graphon):
    rep = gl.weak_partition_via_net(k2_graphon, 0.1)
    d = rep.to_dict()
    assert list(d) == ["classes", "centers", "cut_error", "l1_error",
                       "szemeredi_error", "net_cost", "certified_bound", "exact"]
    from graphonlab.fileio import dumps_canonical
    import json

    text = dumps_canonical(d)
    assert json.loads(text)["exact"] is True


def test_a_report_needs_its_bound():
    # a report without a bound read as certified; no construction builds one
    p = gl.Partition.trivial(np.array([1.0]))
    with pytest.raises(TypeError):
        gl.PartitionReport(partition=p, cut_error=0.0, l1_error=0.0)


def test_theorem_voronoi_both_directions_small():
    # (a) net -> partition with cut <= 8 sqrt(cost); (b) partition -> net
    # with cost <= 4 cut; both at desk scale
    for seed in range(10):
        w = gl.zoo.random_stepfunction(8, seed=700 + seed)
        rep = gl.weak_partition_via_net(w, 0.05)
        assert rep.cut_error <= 8 * np.sqrt(rep.net_cost) + 1e-9
        p = random_partition(w.mu, 3, 800 + seed)
        _, cost = gl.net_from_partition(w, p)
        assert cost <= 4 * gl.partition_cut_error(w, p) + 1e-9


def test_basis_mismatch_errors(k2_graphon):
    other = gl.Partition(np.array([0.25, 0.75]), [0, 1], 2)
    with pytest.raises(gl.BasisMismatchError):
        gl.partition_cut_error(k2_graphon, other)
    with pytest.raises(gl.BasisMismatchError):
        gl.net_from_partition(k2_graphon, other)
    with pytest.raises(gl.BasisMismatchError):
        gl.equalize(k2_graphon, other, 0.5)
    with pytest.raises(gl.BasisMismatchError):
        gl.szemeredi_error(k2_graphon, other)


@pytest.mark.parametrize("build", [
    lambda w: gl.ultra_strong_partition(w, 0.3),
    lambda w: gl.thin_ultra_partition(w, gl.Bigraph(2, 2, [(0, 0), (1, 1)]), 0.3),
])
def test_l1_partitions_raise_when_l1_exceeds_eps(monkeypatch, build):
    monkeypatch.setattr(gl.regularity, "l1_norm", lambda r: 0.5)
    with pytest.raises(gl.CertificationError):
        build(gl.zoo.half_graphon(8))


@pytest.mark.parametrize("variant", ["weak", "ultra"])
def test_report_cut_error_is_exact_iff_k_at_most_24(variant):
    build = {"weak": lambda w: gl.weak_partition_via_net(w, 0.05),
             "ultra": lambda w: gl.ultra_strong_partition(w, 0.3)}[variant]
    at = gl.zoo.half_graphon(24)
    rep = build(at)
    assert rep.exact and rep.cut_error == gl.partition_cut_error(at, rep.partition)
    above = gl.zoo.half_graphon(25)
    rep = build(above)
    residual = gl.difference(above, gl.aggregate(above, rep.partition))
    assert not rep.exact and rep.cut_error > 0.0
    assert rep.cut_error == gl.cut_norm_upper(residual)
    # above 24 steps a passing cut certificate is a proof
    assert variant != "weak" or rep.certified("cut")
    with pytest.raises(gl.SizeLimitError):
        gl.partition_cut_error(above, rep.partition)
