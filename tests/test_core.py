import numpy as np
import pytest

import graphonlab as gl
from graphonlab.core import operator_product_values

from conftest import (brute_cut_norm, random_partition, reference_aggregate,
                      reference_cut_norm_upper, reference_rectangle_max, rng,
                      unpruned_rectangle_max)


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
    # counts and node ids are integers: 2.5 nodes is not read as 2
    for n, edges in [(2.5, [(0, 2)]), (2.5, []), ("3", []), (3, [(0, 1.5)])]:
        with pytest.raises(gl.InvalidInputError, match="must be an integer"):
            gl.Graph(n, edges)
    numpy_ints = gl.Graph(np.int64(3), [(np.int32(0), np.uint8(2))])
    assert numpy_ints == gl.Graph(3, [(0, 2)]) and type(numpy_ints.n) is int


@pytest.mark.parametrize("build", [
    lambda: gl.Graph(3, [(0, 1, 2)]),
    lambda: gl.Bigraph(2, 2, [(0, 1, 1)]),
    lambda: gl.Graph(3, [(0,)]),
    lambda: gl.Graph(3, [5]),
], ids=["graph-triple", "bigraph-triple", "graph-single", "graph-integer"])
def test_an_edge_is_exactly_two_nodes(build):
    with pytest.raises(gl.InvalidInputError, match="must be a pair of nodes"):
        build()


def test_bigraphon_from_bigraph():
    single = gl.bigraphon_from_bigraph(gl.Bigraph(1, 1, [(0, 0)]))
    assert single.w.tolist() == [[1.0]]
    match = gl.bigraphon_from_bigraph(gl.Bigraph(2, 2, [(0, 0), (1, 1)]))
    assert match.w.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    full = gl.bigraphon_from_bigraph(gl.Bigraph(2, 2, [(u, v) for u in range(2) for v in range(2)]))
    assert np.all(full.w == 1.0)
    with pytest.raises(gl.InvalidInputError):
        gl.bigraphon_from_bigraph(gl.Bigraph(0, 2))
    for n1, n2, edges in [(1.5, 2, [(1, 0)]), (2, 2.0, []), (2, 2, [(0.5, 1)])]:
        with pytest.raises(gl.InvalidInputError, match="must be an integer"):
            gl.Bigraph(n1, n2, edges)
    assert gl.Bigraph(np.int64(2), 2, [(np.int64(1), 0)]) == gl.Bigraph(2, 2, [(1, 0)])


def test_kernel_validation():
    with pytest.raises(gl.InvalidInputError):
        gl.StepGraphon(np.array([0.5, 0.5]), np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(gl.InvalidInputError):
        gl.StepGraphon(np.array([0.5, 0.4]), np.zeros((2, 2)))
    with pytest.raises(gl.InvalidInputError):
        gl.StepGraphon(np.array([1.0, 0.0]), np.zeros((2, 2)))
    with pytest.raises(gl.InvalidInputError):
        gl.StepGraphon(np.array([1.0]), np.array([[1.5]]))
    # class ids and counts are integers: 1.7 is not read as class 1
    for assign, c in [([0, 1.7], None), ([0, 1], 2.0), (np.array([0.0, 1.0]), 2)]:
        with pytest.raises(gl.InvalidInputError, match="must be an integer"):
            gl.Partition([0.5, 0.5], assign, c)
    p = gl.Partition([0.5, 0.5], np.array([1, 0]), np.int64(2))
    assert p.assign == (1, 0) and p.c == 2 and type(p.c) is int


def test_partition_base_is_a_measure_vector():
    for base, message in [([[0.5], [0.5]], "nonempty 1-d vector"),
                          ([0.7, -0.3, 0.6], "zero or negative measure"),
                          ([0.5, 0.4], "must sum to 1")]:
        with pytest.raises(gl.InvalidInputError, match=message):
            gl.Partition(base, list(range(len(base))))


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


#: a 2 x 2 value matrix of each kind that is not real, none of which may be
#: read as floats: no imaginary part dropped, no numeric string parsed, and
#: an object that float() cannot convert is an input error, not a TypeError
NOT_REAL = {"complex": np.array([[0.0, 0.5 + 1j], [0.5 + 1j, 0.0]]),
            "str": np.array([["0", "0.5"], ["0.5", "0"]]),
            "bytes": np.array([[b"0", b"0.5"], [b"0.5", b"0"]]),
            "object": [[0.0, {}], [{}, 0.0]]}


@pytest.mark.parametrize("kind", sorted(NOT_REAL))
def test_values_that_are_not_real_are_input_errors(kind):
    bad, half = NOT_REAL[kind], [0.5, 0.5]
    for build in (lambda: gl.StepGraphon(half, bad), lambda: gl.StepKernel(half, bad),
                  lambda: gl.StepBigraphon(half, half, bad), lambda: gl.MetricView(half, bad),
                  lambda: gl.StepGraphon(np.asarray(bad)[0], np.eye(2)),
                  lambda: gl.rectangle_max(bad)):
        with pytest.raises(gl.InvalidInputError, match="real numbers"):
            build()


def test_bool_and_integer_values_pass():
    for w in (np.array([[False, True], [True, False]]), np.array([[0, 1], [1, 0]]),
              np.array([[0, 1], [1, 0]], dtype=np.uint8), [[0, 1], [1, 0]]):
        assert gl.StepGraphon([0.5, 0.5], w).w.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        assert gl.rectangle_max(w) == (2.0, 0.0)
    assert gl.rectangle_max(np.array([[3, -1]], dtype=np.int8)) == (3.0, 1.0)


def test_a_bool_is_not_an_integer():
    # bool is an int subclass, which operator.index takes as 0 or 1
    w = gl.graphon_from_graph(gl.Graph(2, [(0, 1)]))
    for call in (lambda: gl.Partition(w.mu, [True, False]),
                 lambda: gl.Partition(w.mu, [0, 1], True),
                 lambda: gl.split_step(w, True, 2),
                 lambda: gl.split_step(w, 0, True),
                 lambda: gl.voronoi_partition(gl.neighborhood_metric(w), [True]),
                 lambda: gl.Graph(True)):
        with pytest.raises(gl.InvalidInputError, match="must be an integer"):
            call()
    assert gl.Partition(w.mu, [np.int64(1), 0]).assign == (1, 0)


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
    # k up to 18 sweeps several blocks per side; odd k splits unevenly
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


def _residual_array(w, p):
    r = gl.difference(w, gl.aggregate(w, p))
    return r.mu[:, None] * r.mu[None, :] * r.w


def _rectangle_fuzz():
    """Matrices on which the pruned kernel must equal the unpruned sweep;
    those with 2^k m above ``RECTANGLE_BLOCK`` (k >= 13 here) prune,
    each side re-centred on its own seed pair."""
    r = rng(21)
    for k in range(1, 21):
        a = r.standard_normal((k, k))
        yield a + a.T
    for k1, k2 in [(1, 9), (2, 12), (3, 3), (3, 17), (6, 11), (9, 20), (12, 15), (17, 18)]:
        a = r.standard_normal((k1, k2))
        yield a
        yield a.T
    for _ in range(6):
        a = r.standard_normal((20, 19))
        a[r.random(20) < 0.3] = 0.0
        a[:, r.random(19) < 0.3] = 0.0
        yield a
    # rank one: the bound is tight, so after the seeds one low sum per side
    # can pass, and a block still takes two
    for k in (2, 10, 17):
        yield np.outer(r.standard_normal(k), r.standard_normal(k))
    yield np.outer(r.standard_normal(16), r.standard_normal(20))
    # the best pair's high sum ranks low by its bound: a sweep that stops
    # early returns a smaller value here
    for k, m in ((13, 13), (14, 16), (16, 18)):
        yield np.outer(r.standard_normal(k), r.standard_normal(m)) + 0.3 * r.standard_normal((k, m))
        yield r.standard_normal((k, m)) * r.choice([0.01, 1.0], k)[:, None]
    for k in (8, 15, 20):
        yield np.abs(r.standard_normal((k, k)))
        yield -np.abs(r.standard_normal((k, k)))
    # one heavy row of the opposite sign draws the seed pair far from the
    # optimum: the best pair the seed finds holds 0.17-0.75 of the best
    # value, so the centre is far from the optimum's
    for k, m in ((14, 14), (16, 16), (16, 40), (20, 20)):
        a = 0.1 * r.standard_normal((k, m))
        a[:k // 2, m // 4:] += 1.0
        a[-1, :m // 4] = 5.0
        a[-1, m // 4:] = -20.0
        yield a
        yield -a
    # wider than tall: the enumerated side is the shorter one; one row is
    # the k = 1 case, whose one-column low table the full sweep adds pairwise
    for k, m in ((1, 40000), (13, 40), (14, 64), (16, 33)):
        a = r.standard_normal((k, m))
        yield a
        yield a.T
    for k in (9, 14, 18):
        yield r.choice([-1.0, 1.0], (k, k))
    # the kinds the seed-centred bound was measured on, at k = 14..20:
    # nearly nonnegative, rank one plus noise, one heavy negative row, and
    # 20% of the entries nonzero
    for k in (14, 16, 18, 20):
        yield np.abs(r.standard_normal((k, k))) - 0.3
        yield np.outer(r.standard_normal(k), r.standard_normal(k)) + 0.1 * r.standard_normal((k, k))
        a = r.standard_normal((k, k))
        a[k // 3] = -10.0 * np.abs(a[k // 3])
        yield a
        yield r.standard_normal((k, k)) * (r.random((k, k)) < 0.2)
    # at 1e-300 the margin's 2^-51 (sum|a| + 2 sum|c|) is subnormal
    for scale in (1e-300, 1e-200, 1e200):
        for k in (13, 16, 20):
            yield scale * r.standard_normal((k, k))
    for k in (13, 14, 15, 16):
        w = gl.zoo.random_stepfunction(k, seed=100 + k)
        yield _residual_array(w, gl.Partition.trivial(w.mu))
    for n in (9, 16, 20):
        h = gl.zoo.half_graphon(n)
        yield _residual_array(h, gl.Partition.trivial(h.mu))
        p = gl.Partition(h.mu, [int(i >= 2 * n // 3) for i in range(n)])
        a = _residual_array(h, p)
        for si in p.classes():
            for sj in p.classes():
                yield a[np.ix_(si, sj)]
    # twin rows: a 3-6 step host split to 14-20 steps has tied half sums,
    # tied bounds and tied seeds, on the trivial and a 3-class partition
    for _ in range(10):
        w = gl.zoo.random_stepfunction(int(r.integers(3, 7)), seed=int(r.integers(1 << 30)))
        steps = int(r.integers(14, 21))
        while w.k < steps:
            w = gl.split_step(w, int(r.integers(w.k)), min(int(r.integers(2, 4)), steps - w.k + 1))
        yield _residual_array(w, gl.Partition.trivial(w.mu))
        yield _residual_array(w, random_partition(w.mu, 3, int(r.integers(1 << 30))))


def test_rectangle_max_equals_the_unpruned_sweep_bit_for_bit(monkeypatch):
    buffers, selected = [], []

    class Numpy:
        """numpy as ``core`` sees it, noting the layout of each buffer that
        ``maximum`` writes in place: every pair evaluation (seeds, one
        block, pruned blocks) and every bound is one 3-d C-order array;
        and the size of each selection of sums that can still be swept,
        the high sums' then the low sums' per side."""

        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def maximum(x, y, out=None):
            if out is not None:
                buffers.append((out.ndim, out.flags.c_contiguous))
            return np.maximum(x, y, out=out)

        @staticmethod
        def flatnonzero(x):
            picked = np.flatnonzero(x)
            selected.append(picked.size)
            return picked

    monkeypatch.setattr(gl.core, "np", Numpy())
    for a in _rectangle_fuzz():
        got, want = gl.rectangle_max(a), unpruned_rectangle_max(a)
        assert [v.hex() for v in got] == [v.hex() for v in want], a.shape
    assert buffers and set(buffers) == {(3, True)}
    # a side with one low sum left is swept (rank one), and every side keeps
    # a high sum: the pair that holds the side's optimum has a bound at
    # least that value, and the margin covers the rounding
    high, low = selected[0::2], selected[1::2]
    assert 1 in low and min(high) >= 1


def test_rectangle_max_adds_a_one_column_table_pairwise():
    # k = 1, wider than one block (2 m > 2^16): the full sweep's low table
    # is one column, which it adds pairwise. The seed was found by
    # search so that the column-order sum of the positive parts is larger,
    # so a sweep that added this table in column order returns more.
    row = rng(2).standard_normal(40000)
    positive = np.maximum(row, 0.0)
    assert np.add.accumulate(positive)[-1] > positive.sum()
    for a in (row[None, :], row[:, None]):
        got, want = gl.rectangle_max(a), unpruned_rectangle_max(a)
        assert [v.hex() for v in got] == [v.hex() for v in want]
        assert got[0] == positive.sum()


def _larger_side_fuzz():
    """Every ``_rectangle_fuzz`` matrix and its negation, so each sign is
    the larger in turn (the fuzz holds the one-block path, k <= 12 square,
    and entrywise nonnegative matrices), and rectangular ones at k = 1..20."""
    for a in _rectangle_fuzz():
        yield a
        yield -a
    r = rng(25)
    for k in range(1, 21):
        yield r.standard_normal((k, k + 3))
        yield r.standard_normal((2 * k + 1, k))
    # antisymmetric, so the two sides tie: the side swept second starts
    # with its own maximum as the floor, and a floor set too high drops
    # the first side's optimum here
    for k in range(13, 21):
        for _ in range(3):
            u, v = r.standard_normal(k), r.standard_normal(k)
            yield np.outer(u, v) - np.outer(v, u)


def test_rectangle_max_larger_side_equals_the_unpruned_maximum_bit_for_bit(monkeypatch):
    pairs = []

    class Numpy:
        """numpy as ``core`` sees it, counting the pairs ``evaluate``
        sweeps: each is one column of a C-order (m, rows, cols) sum."""

        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def add(*args, **kwargs):
            out = np.add(*args, **kwargs)
            if kwargs.get("order") == "C":
                pairs[-1] += out.shape[1] * out.shape[2]
            return out

    monkeypatch.setattr(gl.core, "np", Numpy())
    swept = {False: 0, True: 0}
    for a in _larger_side_fuzz():
        want = max(unpruned_rectangle_max(a))
        for larger_side in (False, True):
            pairs.append(0)
            got = gl.rectangle_max(a, larger_side=larger_side)
            swept[larger_side] += pairs[-1]
        assert isinstance(got, float) and got.hex() == want.hex(), a.shape
    # the smaller side's pairs below the larger value are never swept
    assert swept[True] < swept[False] / 2


def test_rectangle_max_larger_side_skips_the_negative_side_of_a_nonnegative_matrix(monkeypatch):
    # the default call sweeps the negative side, rounding noise below the
    # margin, as far as its bound reaches; the larger side needs none of it
    selected = []

    class Numpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def flatnonzero(x):
            picked = np.flatnonzero(x)
            selected.append(picked.size)
            return picked

    a = np.abs(rng(26).standard_normal((18, 18)))
    monkeypatch.setattr(gl.core, "np", Numpy())
    assert gl.rectangle_max(a, larger_side=True) == a.sum()
    # per side the high sums' then the low sums' selection, positive first
    assert selected[2:] == [0, 0]


def test_rectangle_max_rejects_input_that_is_not_a_finite_matrix():
    a = rng(27).standard_normal((6, 6))
    for bad in (np.nan, np.inf, -np.inf):
        b = a.copy()
        b[2, 3] = bad
        with pytest.raises(gl.InvalidInputError):
            gl.rectangle_max(b)
    for shape in ((6,), (2, 3, 3), ()):
        with pytest.raises(gl.InvalidInputError):
            gl.rectangle_max(np.ones(shape))


def test_rectangle_max_size_guard_checks_the_input_as_given():
    # the shorter side is enumerated; an all-zero matrix, which drops to
    # nothing, is guarded too
    for shape in ((30, 30), (25, 40), (40, 25)):
        for a in (np.ones(shape), np.zeros(shape)):
            with pytest.raises(gl.SizeLimitError):
                gl.rectangle_max(a)
    assert gl.rectangle_max(np.ones((3, 40))) == (120.0, 0.0)


#: cut norms of W - W_P on the trivial partition of
#: ``random_stepfunction(k, seed=k)``, as the unpruned sweep computed them;
#: a kernel change that moves a bit fails here by name
PINNED_CUT_NORMS = {14: "0x1.6445a07d84a47p-5", 16: "0x1.2f69a9bde6be0p-5",
                    18: "0x1.7a55a606be218p-5", 20: "0x1.62c78cdb2717bp-5",
                    22: "0x1.048169aa6e568p-5", 24: "0x1.ee4428c4fabfap-6"}


@pytest.mark.parametrize("k", sorted(PINNED_CUT_NORMS))
def test_cut_norm_pinned_bits(k):
    w = gl.zoo.random_stepfunction(k, seed=k)
    r = gl.difference(w, gl.aggregate(w, gl.Partition.trivial(w.mu)))
    assert gl.cut_norm(r).hex() == PINNED_CUT_NORMS[k]


#: pairs ``cut_norm`` evaluated on these residuals, seeds included, when
#: each sign's seed came from two cross sweeps of the half-sum tables
#: (4 * 2^(k/2) pairs of each); the pruned sweep may not evaluate more
SWEPT_PAIRS_BEFORE = {14: 514, 16: 2753, 18: 2330, 20: 4237}


@pytest.mark.parametrize("k", sorted(SWEPT_PAIRS_BEFORE))
def test_cut_norm_sweeps_no_whole_row_or_column_of_pairs(monkeypatch, k):
    shapes = []

    class Numpy:
        """numpy as ``core`` sees it, noting the (rows, cols) block of each
        pair evaluation, in either order."""

        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def add(*args, **kwargs):
            out = np.add(*args, **kwargs)
            if kwargs.get("order") == "C":
                shapes.append(out.shape[1:])
            return out

    w = gl.zoo.random_stepfunction(k, seed=k)
    r = gl.difference(w, gl.aggregate(w, gl.Partition.trivial(w.mu)))
    monkeypatch.setattr(gl.core, "np", Numpy())
    assert gl.cut_norm(r).hex() == PINNED_CUT_NORMS[k]
    # 2^k k is above RECTANGLE_BLOCK, so no block is the one-block sweep;
    # a block as long as a half-sum table spans a row or column of pairs
    tables = {1 << (k // 2), 1 << (k - k // 2)}
    assert shapes and not tables & {n for shape in shapes for n in shape}, shapes
    assert sum(x * y for x, y in shapes) <= SWEPT_PAIRS_BEFORE[k]


def _column_loop(terms):
    # terms[0] + terms[1] + ... + terms[m - 1], one term at a time
    total = terms[0].copy()
    for term in terms[1:]:
        total += term
    return total


def _pair_gains(high, rows, lows, cols):
    # sum_j max(0, h_j + l_j) for every pair in rows x cols, laid out as
    # rectangle_max's ``evaluate`` lays it out: one C-order (m, shorter side,
    # longer side) broadcast summed down its first axis, here transposed
    # back to (rows, cols) where the rows are the longer side
    x, y = high[:, rows], lows[:, cols]
    flip = x.shape[1] > y.shape[1]
    if flip:
        x, y = y, x
    gains = np.add(x[:, :, None], y[:, None, :], order="C")
    gain = np.maximum(gains, 0.0, out=gains).sum(axis=0)
    return gain.T if flip else gain


def test_pair_gains_broadcast_equals_the_column_loop_bit_for_bit():
    # rectangle_max relies on numpy adding a C-order (m, R, C) broadcast with
    # R * C >= 2 down axis 0 in order j = 0..m-1, the full sweep's order,
    # with either side the longer; fl(h + l) commutes, so both layouts give
    # every pair the same float. A numpy that changes its reduction order
    # on either layout fails here by name
    r = rng(23)
    for m in range(1, 25):
        for shape in ((1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (5, 7), (64, 2),
                      (1, 1024), (300, 10), (1024, 2), (2, 1024), (300, 4), (4, 300)):
            x = r.standard_normal((m,) + shape)
            assert np.array_equal(x.sum(axis=0), _column_loop(x)), (m, shape)
    for rows in (1, 2, 3, 5, 8, 13, 64, 300, 1024):
        for m in range(1, 25):
            high = r.standard_normal((m, 1024))
            lows = r.standard_normal((m, 1024))
            # a slice of the high sums (a block) and a fancy index (the seeds)
            for picked in (slice(rows), r.permutation(1024)[:rows]):
                for c in (1, 2, 3, 4, 7, 16, 33, 256, 1024):
                    # a block holds at most RECTANGLE_BLOCK pairs
                    if rows * c < 2 or rows * c > 1 << 16:
                        continue
                    terms = np.maximum(high[:, picked, None] + lows[:, None, :c], 0.0)
                    assert np.array_equal(_pair_gains(high, picked, lows, slice(c)),
                                          _column_loop(terms)), (rows, m, c)
                    # the other layout of the same block, (m, cols, rows)
                    flipped = np.add(lows[:, :c, None], high[:, None, picked], order="C")
                    np.maximum(flipped, 0.0, out=flipped)
                    assert np.array_equal(flipped.sum(axis=0).T, _column_loop(terms)), (rows, m, c)


def test_pair_gains_takes_the_column_loop_for_one_low_sum():
    # a lone (m, 1, 1) column is added pairwise from m = 8 on, not in column
    # order; so a block of one high sum takes two or more low sums, and the
    # first low sum's gain is then the column loop's
    r = rng(24)
    pairwise = set()
    for m in range(1, 25):
        for _ in range(8):
            column = r.standard_normal((m, 1, 1))
            if not np.array_equal(column.sum(axis=0), _column_loop(column)):
                pairwise.add(m)
        high = r.standard_normal((m, 4))
        lows = r.standard_normal((m, 8))
        want = _column_loop(np.maximum(high[:, 1:2, None] + lows[:, None, 3:4], 0.0))
        got = _pair_gains(high, slice(1, 2), lows, slice(3, 5))
        assert np.array_equal(got[:, :1], want), m
    assert pairwise == set(range(8, 25))


def test_cut_norm_size_guard():
    big = gl.StepKernel(np.full(25, 1 / 25), np.zeros((25, 25)))
    with pytest.raises(gl.SizeLimitError):
        gl.cut_norm(big)
    assert gl.cut_norm_upper(big) == 0.0


def test_cut_norm_zero_kernel_skips_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("searched an all-zero kernel")

    monkeypatch.setattr(gl.core, "rectangle_max", no_search)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_search)
    for k in (20, 300):
        zero = gl.StepKernel(np.full(k, 1 / k), np.zeros((k, k)))
        assert gl.cut_norm_upper(zero) == 0.0
    assert gl.cut_norm(gl.StepKernel(np.full(20, 1 / 20), np.zeros((20, 20)))) == 0.0


def test_cut_norm_at_most_l1():
    for seed in range(50):
        kern = gl.zoo.random_kernel(2 + seed % 9, seed=200 + seed)
        assert gl.cut_norm(kern) <= gl.l1_norm(kern) + 1e-12


def test_cut_norm_upper_padding_covers_a_tight_spectral_bound(monkeypatch):
    # a constant kernel c is rank one with |M|_2 = |c| = its cut norm, so the
    # eigenvalue alone falls below the computed exact value in the last bits
    # for many measures; the padded bound never does
    monkeypatch.setattr(gl.core, "l1_norm", lambda r: np.inf)
    gen = rng(17)
    unpadded_below = 0
    for _ in range(300):
        k = int(gen.integers(2, 21))
        mu = gen.random(k) + 0.05
        kern = gl.StepKernel(mu / mu.sum(), np.full((k, k), gen.uniform(-1.0, 1.0)))
        exact = gl.cut_norm(kern)
        s = np.sqrt(kern.mu)
        unpadded_below += np.abs(np.linalg.eigvalsh(s[:, None] * kern.w * s)).max() < exact
        assert exact <= gl.cut_norm_upper(kern)
    assert unpadded_below > 0


def _sphere_residuals():
    """(kind, W - W_P) of the ultra and weak reports on sphere hosts: an
    ultra residual is nearly block diagonal, with a column norm of M above
    twice its L1 norm; a weak residual's column norms are far below its L1
    norm."""
    for n, seed in ((200, 1), (300, 2)):
        w = gl.zoo.sphere_graphon(2, n, seed)[0]
        for kind, report in (("ultra", gl.ultra_strong_partition(w, 0.3)),
                             ("weak", gl.weak_partition_via_net(w, 0.05))):
            yield kind, gl.difference(w, gl.aggregate(w, report.partition))


def test_cut_norm_upper_equals_the_always_solve_formula_bit_for_bit(monkeypatch):
    kernels = list(_sphere_residuals())
    kernels += [("random", gl.zoo.random_kernel(k, seed=300 + k)) for k in (1, 2, 5, 30, 120)]
    want = [reference_cut_norm_upper(r) for _, r in kernels]
    solved = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: solved.append(m.shape) or eigvalsh(m))
    for (kind, r), value in zip(kernels, want):
        before = len(solved)
        assert gl.cut_norm_upper(r).hex() == value.hex(), (kind, r.k)
        # the skip fires on every ultra residual and on no other kernel here
        assert (len(solved) == before) == (kind == "ultra"), (kind, r.k)


def test_cut_norm_upper_skips_the_eigen_solve_the_l1_term_beats(monkeypatch):
    def no_solve(m):
        raise AssertionError("solved for a bound the L1 term beats")

    _, ultra = next(_sphere_residuals())
    monkeypatch.setattr(np.linalg, "eigvalsh", no_solve)
    assert gl.cut_norm_upper(ultra) == gl.l1_norm(ultra) > 0.0


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


def _product_aggregate(w, p):
    # the products every partition took before all-singletons ones skipped them
    assign = np.array(p.assign, dtype=int)
    z = np.zeros((w.k, p.c))
    cmass = np.bincount(assign, weights=w.mu, minlength=p.c)
    z[np.arange(w.k), assign] = w.mu / cmass[assign]
    block = z.T @ w.w @ z
    block = (block + block.T) / 2.0
    return np.clip(block[np.ix_(assign, assign)], 0.0, 1.0)


class _GatherSpy:
    """numpy as ``core`` sees it, noting which of the products' class
    measures, gather and clip ran."""

    def __init__(self):
        self.called = set()

    def __getattr__(self, name):
        if name in ("ix_", "clip", "bincount"):
            self.called.add(name)
        return getattr(np, name)


def test_aggregate_on_all_singletons_returns_w_without_products(monkeypatch):
    spy = _GatherSpy()
    monkeypatch.setattr(gl.core, "np", spy)
    for seed, k in enumerate((1, 2, 18, 300)):
        mass = rng(seed).random(k) + 0.1
        w = gl.StepGraphon(mass / mass.sum(), gl.zoo.random_stepfunction(k, seed=600 + seed).w)
        order = rng(seed).permutation(k).tolist()
        for p in (gl.Partition.singletons(w.mu), gl.Partition(w.mu, order, k)):
            out = gl.aggregate(w, p).w
            assert out.tobytes() == w.w.tobytes()
            assert out.tobytes() == _product_aggregate(w, p).tobytes()
            assert np.max(np.abs(out - reference_aggregate(w, p))) <= 1e-15
    assert spy.called == set()


def test_aggregate_on_all_singletons_reads_a_negative_zero_as_the_products_do():
    vals = gl.zoo.random_stepfunction(6, seed=7).w.copy()
    vals[0, 1] = vals[1, 0] = -0.0
    vals[2, :] = vals[:, 2] = -0.0
    w = gl.StepGraphon(np.full(6, 1 / 6), vals)
    p = gl.Partition.singletons(w.mu)
    out = gl.aggregate(w, p).w
    assert out.tobytes() == _product_aggregate(w, p).tobytes()
    assert not np.signbit(out).any()


def test_aggregate_on_singletons_of_another_basis_raises():
    w = gl.zoo.random_stepfunction(5, seed=8)
    other = gl.Partition.singletons(np.array([0.1, 0.2, 0.3, 0.2, 0.2]))
    with pytest.raises(gl.BasisMismatchError):
        gl.aggregate(w, other)
    with pytest.raises(gl.BasisMismatchError):
        gl.aggregate(w, gl.Partition.singletons(np.full(4, 0.25)))


def test_aggregate_with_one_merged_pair_takes_the_products(monkeypatch):
    spy = _GatherSpy()
    monkeypatch.setattr(gl.core, "np", spy)
    w = gl.zoo.random_stepfunction(18, seed=9)
    p = gl.Partition(w.mu, [0] + list(range(17)), 17)
    out = gl.aggregate(w, p).w
    assert spy.called == {"ix_", "clip", "bincount"}
    assert out.tobytes() == _product_aggregate(w, p).tobytes()
    assert out[0, 5] == out[1, 5] and not np.array_equal(out, w.w)


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
    for i, parts in ((1.5, 2), (1, 2.5), ("0", 2), (0, None)):
        with pytest.raises(gl.InvalidInputError):
            gl.split_step(k2, i, parts)


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
    # sizes are integers: 1.5 copies is not read as one
    with pytest.raises(gl.InvalidInputError, match="must be an integer"):
        gl.blow_up(gl.Graph(2, [(0, 1)]), [1.5, 2], [False, False])
    assert gl.blow_up(gl.Graph(2, [(0, 1)]), np.array([2, 2]), [False, False]) == k22


def test_blow_up_density_matches_hom_counting():
    from conftest import brute_hom_count, random_graph

    h = gl.Graph(3, [(0, 1), (1, 2)])
    blown = gl.blow_up(h, [2, 1, 2], [True, False, True])
    w = gl.graphon_from_graph(blown)
    for seed in range(6):
        f = random_graph(int(rng(seed).integers(2, 5)), seed=400 + seed)
        expected = brute_hom_count(f, blown) / blown.n ** f.n
        assert abs(gl.density(f, w) - expected) <= 1e-12
