import itertools

import numpy as np
import pytest

import graphonlab as gl
from graphonlab.setsystems import sauer_shelah_bound, witness_bigraph

from conftest import brute_de, brute_vc, rng

PREFIXES = [[], [0], [0, 1], [0, 1, 2]]


def all_families(m):
    universe = list(range(1 << m))
    for bits in range(1 << len(universe)):
        yield gl.SetFamily(m, [s for i, s in enumerate(universe) if bits >> i & 1])


def random_family(m, seed, max_sets=None):
    r = rng(seed)
    n = int(r.integers(1, (1 << (1 << m)) if m <= 2 else 2 ** 10))
    count = int(r.integers(1, max_sets or (1 << m) + 1))
    return gl.SetFamily(m, [int(r.integers(0, 1 << m)) for _ in range(count)])


def test_is_shattered_examples():
    power = gl.SetFamily(2, [0b00, 0b01, 0b10, 0b11])
    assert gl.is_shattered(power, [0, 1])
    prefixes = gl.SetFamily(3, PREFIXES)
    assert not gl.is_shattered(prefixes, [0, 1])  # trace {1} missing
    assert gl.is_shattered(prefixes, [])
    empty = gl.SetFamily(3, [])
    assert not gl.is_shattered(empty, [])


def test_vc_dimension_examples():
    assert gl.vc_dimension(gl.SetFamily(2, [0, 1, 2, 3])) == 2
    assert gl.vc_dimension(gl.SetFamily(3, PREFIXES)) == 1
    singletons = gl.SetFamily(4, [[]] + [[i] for i in range(4)])
    assert gl.vc_dimension(singletons) == 1
    assert gl.vc_dimension(gl.SetFamily(3, [])) == -1


def test_vc_dimension_matches_brute_force():
    for seed in range(60):
        fam = random_family(2 + seed % 4, seed)
        assert gl.vc_dimension(fam) == brute_vc(fam)


def test_sym_diff_family_examples():
    only_empty = gl.SetFamily(2, [0])
    assert gl.sym_diff_family(only_empty).sets == (0,)
    one = gl.SetFamily(3, [[0, 2]])
    assert gl.sym_diff_family(one).sets == (0,)
    prefixes = gl.SetFamily(3, PREFIXES)
    diffs = gl.sym_diff_family(prefixes)
    intervals = {0}
    for lo in range(3):
        for hi in range(lo, 3):
            intervals.add(sum(1 << i for i in range(lo, hi + 1)))
    assert set(diffs.sets) == intervals


def test_prefix_family_vc_pair():
    prefixes = gl.SetFamily(3, PREFIXES)
    assert gl.vc_dimension(prefixes) == 1
    assert gl.vc_dimension(gl.sym_diff_family(prefixes)) == 2


def test_sauer_shelah_exhaustive_small():
    for m in range(0, 4):
        for fam in all_families(m):
            k = gl.vc_dimension(fam)
            assert len(fam) <= sauer_shelah_bound(m, k)


def test_sym_diff_vc_bound_small():
    # vc = 0 means all sets equal, so the diff family is {0} with vc 0
    for m in range(1, 4):
        for fam in all_families(m):
            if not fam.sets:
                continue
            assert gl.vc_dimension(gl.sym_diff_family(fam)) <= 10 * gl.vc_dimension(fam)


def test_transversal_examples():
    assert gl.transversal_number(gl.SetFamily(4, [[1, 2], [2, 3]])) == 1
    assert gl.transversal_number(gl.SetFamily(4, [[1], [2], [3]])) == 3
    assert gl.transversal_number(gl.SetFamily(4, [[0, 1], [2, 3]])) == 2
    assert gl.transversal_number(gl.SetFamily(4, [])) == 0
    with pytest.raises(gl.HypothesisError):
        gl.transversal_number(gl.SetFamily(4, [[0], []]))


def test_transversal_matches_exhaustive():
    for seed in range(25):
        fam = random_family(2 + seed % 4, seed=700 + seed)
        if 0 in fam.sets:
            continue
        tau = gl.transversal_number(fam)
        best = fam.m
        for size in range(fam.m + 1):
            hit = False
            for combo in itertools.combinations(range(fam.m), size):
                mask = sum(1 << e for e in combo)
                if all(s & mask for s in fam.sets):
                    hit = True
                    break
            if hit:
                best = size
                break
        assert tau == best


def test_de_dimension_examples():
    chain, _ = gl.neighborhood_family(gl.zoo.half_graphon(4))
    assert gl.de_dimension(chain) == 1
    zero = gl.SetFamily(2, [0], np.array([0.5, 0.5]))
    assert gl.de_dimension(zero) == 0
    crossing = gl.SetFamily(4, [[1, 2], [2, 3]], np.full(4, 0.25))
    assert gl.de_dimension(crossing) == 2
    with pytest.raises(gl.InvalidInputError):
        gl.de_dimension(gl.SetFamily(2, [1]))


def test_de_dimension_zero_weight_complement():
    fam = gl.SetFamily(2, [0b11], np.array([0.6, 0.4]))
    assert gl.de_dimension(fam) == 0  # complement atom has weight 0


def test_de_dimension_matches_brute_force():
    seen = set()
    for seed in range(120):
        r = rng(900 + seed)
        m = 1 + seed % 6
        weights = r.random(m) * (r.random(m) < 0.7)  # some zero weights
        weights[int(r.integers(0, m))] += 0.1
        sets = [int(r.integers(0, 1 << m)) for _ in range(int(r.integers(1, 9)))]
        fam = gl.SetFamily(m, sets, weights / weights.sum())
        de = gl.de_dimension(fam)
        assert de == brute_de(fam)
        seen.add(de)
    assert seen == {0, 1, 2}


def test_neighborhood_family_examples(k2_graphon):
    fam, counts = gl.neighborhood_family(k2_graphon)
    assert set(fam.members()[0]) == {1} and set(fam.members()[1]) == {0}
    assert counts == [1, 1]
    h3, counts = gl.neighborhood_family(gl.zoo.half_graphon(3))
    assert h3.members() == [[0, 1, 2], [0, 1], [0]]
    zero = gl.StepGraphon(np.array([0.5, 0.5]), np.zeros((2, 2)))
    fam, counts = gl.neighborhood_family(zero)
    assert fam.sets == (0,) and counts == [2]
    with pytest.raises(gl.HypothesisError):
        gl.neighborhood_family(gl.StepGraphon(np.array([1.0]), np.array([[0.5]])))


def test_neighborhood_family_multiplicity():
    w = gl.split_step(gl.zoo.half_graphon(3), 0, 3)
    fam, counts = gl.neighborhood_family(w)
    assert len(fam) == 3 and counts == [3, 1, 1]


def test_thinness_witness_half_graphon():
    for n in range(2, 9):
        w = gl.zoo.half_graphon(n)
        witness = gl.thinness_witness(w, 2)
        assert witness is not None
        assert witness.n1 == 2 and witness.n2 == 4
        assert gl.bigraph_density(witness, gl.as_bigraphon(w), induced=True) == 0.0


def test_thinness_witness_zero_graphon():
    w = gl.StepGraphon(np.array([0.5, 0.5]), np.zeros((2, 2)))
    witness = gl.thinness_witness(w, 1)
    assert witness.n1 == 1 and witness.n2 == 2
    assert gl.bigraph_density(witness, gl.as_bigraphon(w), induced=True) == 0.0


def test_thinness_witness_none_when_dimension_high():
    w = gl.zoo.random_stepfunction(16, seed=42, zero_one=True)
    fam, _ = gl.neighborhood_family(w)
    d = gl.de_dimension(fam)
    if d >= 1:
        assert gl.thinness_witness(w, min(d, 6)) is None
    # never returns None when kmax exceeds the DE-dimension
    assert gl.thinness_witness(w, min(d + 1, 6)) is not None


def test_thinness_witness_kmax_is_an_integer():
    w = gl.StepGraphon(np.array([0.5, 0.5]), np.zeros((2, 2)))
    for kmax in (2.5, True, "2"):
        with pytest.raises(gl.InvalidInputError, match="kmax must be an integer"):
            gl.thinness_witness(w, kmax)
    assert gl.thinness_witness(w, np.int64(2)).n1 == 1


def test_witness_shape():
    f = witness_bigraph(2)
    assert f.n1 == 3 and f.n2 == 8
    neighborhoods = {frozenset(u for u in range(3) if (u, v) in f.edges)
                     for v in range(8)}
    assert len(neighborhoods) == 8


def test_non_zero_one_graphon_not_thin():
    # every value strictly inside (0,1) forces positive induced densities
    for seed in range(3):
        w = gl.zoo.random_stepfunction(3, seed=800 + seed)
        assert not w.is_zero_one()
        for n1 in (1, 2, 3):
            for n2 in (1, 2, 3):
                for bits in range(1 << (n1 * n2)):
                    f = gl.Bigraph(n1, n2, [(u, v) for u in range(n1) for v in range(n2)
                                            if bits >> (u * n2 + v) & 1])
                    assert gl.bigraph_density(f, gl.as_bigraphon(w), induced=True) > 1e-12


def test_counterexample_U_not_thin_but_graph_induced_vanishes():
    u = gl.zoo.counterexample_U()
    assert u.w[0][1] == 0.5 and np.array_equal(u.w, u.w.T)
    host = gl.as_bigraphon(u)
    for n1 in (1, 2, 3):
        for n2 in (1, 2, 3):
            for bits in range(1 << (n1 * n2)):
                f = gl.Bigraph(n1, n2, [(a, b) for a in range(n1) for b in range(n2)
                                        if bits >> (a * n2 + b) & 1])
                assert gl.bigraph_density(f, host, induced=True) > 0.0
    # graph-induced densities vanish once 3 pairwise non-adjacent nodes are needed
    assert gl.induced_density(gl.Graph.empty(3), u) == 0.0
    assert gl.induced_density(gl.Graph(4, [(0, 1)]), u) == 0.0


def test_packing_vs_vc_bound():
    # families with pairwise symmetric-difference weight >= eps satisfy
    # |H| <= (80 k)^k eps^(-20 k); loose, asserted as stated
    r = rng(55)
    eps = 0.3
    for trial in range(30):
        m = int(r.integers(5, 11))
        weights = np.full(m, 1.0 / m)
        kept = []
        for _ in range(40):
            cand = sum(1 << e for e in range(m) if r.random() < 0.5)
            if all(bin(cand ^ s).count("1") / m >= eps for s in kept):
                kept.append(cand)
        fam = gl.SetFamily(m, kept, weights)
        k = gl.vc_dimension(fam)
        assert len(fam) <= (80 * max(k, 0)) ** max(k, 0) * eps ** (-20 * max(k, 0))


def test_set_family_rejects_non_integer_sizes_and_elements():
    # 2.5 elements is not read as 2, and element 1.5 is not element 1
    for m, sets in ((2.5, [[0], [1]]), (3, [[0, 1.5]]), ("3", [])):
        with pytest.raises(gl.InvalidInputError, match="must be an integer"):
            gl.SetFamily(m, sets)
    fam = gl.SetFamily(np.int64(3), [np.array([0, 2]), [np.uint8(1)]])
    assert fam.m == 3 and type(fam.m) is int and fam.members() == [[0, 2], [1]]


def test_vc_ground_set_guard():
    with pytest.raises(gl.SizeLimitError):
        gl.vc_dimension(gl.SetFamily(26, [[0]]))


def test_de_dimension_set_guard():
    sets = [[i] for i in range(21)]
    fam = gl.SetFamily(21, sets, np.full(21, 1 / 21))
    with pytest.raises(gl.SizeLimitError):
        gl.de_dimension(fam)


def test_tau_star_bound_on_weighted_corpus():
    r = rng(99)
    eps = 0.2
    for trial in range(40):
        m = int(r.integers(4, 12))
        weights = np.full(m, 1.0 / m)
        sets = []
        while len(sets) < 2:
            sets = []
            for _ in range(int(r.integers(2, 9))):
                s = [e for e in range(m) if r.random() < 0.6]
                if len(s) / m >= eps:
                    sets.append(s)
        fam = gl.SetFamily(m, sets, weights)
        if len(fam) < 2:
            continue
        k = gl.vc_dimension(fam)
        assert k >= 1
        tau = gl.transversal_number(fam)
        assert tau <= 8 * k * (1 / eps) * np.log(1 / eps)


def test_shatter_answers_at_any_size():
    # |h| traces against 2^|s|, a Python int: no work grows with |s|
    assert not gl.is_shattered(gl.SetFamily(30, [range(30), []]), range(30))
    assert not gl.is_shattered(gl.SetFamily(26, []), list(range(26)))


@pytest.mark.parametrize("member", [True, False, np.True_, 2.0, None, np.array(2.5)])
def test_a_set_member_is_elements_or_an_integer_bitmask(member):
    # a bool or a float is no bitmask: True was stored as the mask 1
    with pytest.raises(gl.InvalidInputError, match="set must be an integer"):
        gl.SetFamily(2, [member])


def test_thinness_witness_argument_errors():
    h = gl.zoo.half_graphon(4)
    with pytest.raises(gl.InvalidInputError):
        gl.thinness_witness(h, 0)
    with pytest.raises(gl.InvalidInputError):
        gl.thinness_witness(h, 7)
    grey = gl.StepGraphon(np.array([1.0]), np.array([[0.5]]))
    with pytest.raises(gl.HypothesisError):
        gl.thinness_witness(grey, 2)


def test_a_0d_integer_array_member_is_a_bitmask():
    assert gl.SetFamily(2, [np.array(3)]).sets == (3,)
