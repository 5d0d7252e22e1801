"""Property tests for the north-star invariants on random small hosts."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import graphonlab as gl
from graphonlab.metrics import _row_l1_matrix

from conftest import reference_aggregate, reference_szemeredi_blocks, unpruned_rectangle_max

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def hosts(draw, values=st.floats(0.0, 1.0), max_k=8):
    """A graphon with 1..max_k steps: positive measures, symmetric values."""
    k = draw(st.integers(1, max_k))
    mass = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    a = np.array(draw(st.lists(values, min_size=k * k, max_size=k * k))).reshape(k, k)
    return gl.StepGraphon(mass / mass.sum(), np.triu(a) + np.triu(a, 1).T)


#: values on a grid of quarters, so twins are frequent and rows that are not
#: twins lie at least min(mu)/4 apart, far above purify's tolerance
grid_hosts = hosts(values=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))


@PROPERTY_SETTINGS
@given(hosts())
def test_similarity_metric_below_neighborhood_metric(w):
    sim = gl.similarity_metric(w).dist
    nbr = gl.neighborhood_metric(w).dist
    assert np.all(sim <= nbr + 1e-12)


@PROPERTY_SETTINGS
@given(hosts(), hosts())
def test_memoized_metrics_equal_a_fresh_build(w, u):
    """Whatever graphon the metrics slot held before, each metric is the
    row-L1 matrix of its own graphon, bit for bit."""
    fresh = {}
    for host in (w, u):
        sq = gl.square(host)
        fresh[id(host)] = {gl.neighborhood_metric: _row_l1_matrix(host.w, host.mu),
                           gl.similarity_metric: _row_l1_matrix(sq.w, sq.mu)}
    for host, metric in ((w, gl.neighborhood_metric), (u, gl.similarity_metric),
                         (w, gl.similarity_metric), (u, gl.neighborhood_metric),
                         (w, gl.neighborhood_metric), (w, gl.similarity_metric)):
        assert np.array_equal(metric(host).dist, fresh[id(host)][metric])


@PROPERTY_SETTINGS
@given(grid_hosts)
def test_purify_is_idempotent(w):
    pure, mapping = gl.purify(w)
    assert sorted(set(mapping)) == list(range(pure.k))
    again, identity = gl.purify(pure)
    assert again is pure and identity == list(range(pure.k))


@st.composite
def partitioned_hosts(draw, max_k=8):
    """A host and a partition of its steps into nonempty classes."""
    w = draw(hosts(max_k=max_k))
    labels = draw(st.lists(st.integers(0, w.k - 1), min_size=w.k, max_size=w.k))
    _, assign = np.unique(labels, return_inverse=True)
    return w, gl.Partition(w.mu, assign.tolist(), int(assign.max()) + 1)


@PROPERTY_SETTINGS
@given(partitioned_hosts())
def test_cut_norm_below_l1_norm(wp):
    w, p = wp
    r = gl.difference(w, gl.aggregate(w, p))
    assert gl.cut_norm(r) <= gl.l1_norm(r) + 1e-12


@PROPERTY_SETTINGS
@given(partitioned_hosts(max_k=20))
def test_cut_norm_below_its_upper_bound_below_l1_norm(wp):
    w, p = wp
    r = gl.difference(w, gl.aggregate(w, p))
    upper = gl.cut_norm_upper(r)
    assert gl.cut_norm(r) <= upper <= gl.l1_norm(r)


@st.composite
def small_matrices(draw):
    """A k x m matrix (or its transpose) with k <= m <= 18 and entries in
    [-1, 1], ties frequent; from k = 13 on the kernel prunes."""
    k = draw(st.integers(1, 16))
    m = draw(st.integers(k, 18))
    values = st.floats(-1.0, 1.0) | st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])
    a = np.array(draw(st.lists(values, min_size=k * m, max_size=k * m))).reshape(k, m)
    return a.T if draw(st.booleans()) else a


@PROPERTY_SETTINGS
@given(small_matrices())
def test_rectangle_max_larger_side_is_the_unpruned_maximum(a):
    assert gl.rectangle_max(a, larger_side=True).hex() == max(unpruned_rectangle_max(a)).hex()


def test_spectral_bound_never_below_the_exact_value(monkeypatch):
    # without the L1 term the bound is the padded eigenvalue alone, on the
    # 500 kernels of criterion 1
    monkeypatch.setattr(gl.core, "l1_norm", lambda r: np.inf)
    for seed in range(500):
        kern = gl.zoo.random_kernel(2 + seed % 7, seed=seed)
        a = kern.mu[:, None] * kern.mu[None, :] * kern.w
        assert max(gl.rectangle_max(a)) <= gl.cut_norm_upper(kern)


@PROPERTY_SETTINGS
@given(partitioned_hosts(max_k=10))
def test_cut_below_szemeredi_below_l1(wp):
    w, p = wp
    r = gl.difference(w, gl.aggregate(w, p))
    cut = gl.partition_cut_error(w, p)
    szemeredi = gl.szemeredi_error(w, p)
    assert cut <= szemeredi + 1e-12
    assert szemeredi <= gl.l1_norm(r) + 1e-12


@PROPERTY_SETTINGS
@given(hosts(max_k=10))
def test_one_class_szemeredi_error_is_the_cut_error(w):
    # the one block is the whole matrix: the two suprema are one
    # rectangle_max call, so they agree bit for bit, memoized or not
    blocks = reference_szemeredi_blocks(w, gl.Partition.trivial(w.mu))
    fresh = gl.Partition.trivial(w.mu)
    assert gl.szemeredi_error(w, fresh) == blocks
    assert gl.partition_cut_error(w, gl.Partition.trivial(w.mu)) == blocks
    measured = gl.Partition.trivial(w.mu)
    assert gl.partition_cut_error(w, measured) == blocks
    assert gl.szemeredi_error(w, measured) == blocks
    assert gl.partition_cut_error(w, fresh) == blocks


@PROPERTY_SETTINGS
@given(partitioned_hosts())
def test_aggregate_is_idempotent(wp):
    w, p = wp
    once = gl.aggregate(w, p)
    twice = gl.aggregate(once, p)
    assert np.max(np.abs(twice.w - once.w)) <= 1e-12


@PROPERTY_SETTINGS
@given(hosts())
def test_aggregate_on_singletons_is_exact(w):
    singletons = gl.Partition.singletons(w.mu)
    assert np.array_equal(gl.aggregate(w, singletons).w, w.w)
    r = gl.difference(w, gl.aggregate(w, singletons))
    assert gl.szemeredi_error(w, singletons) == 0.0
    assert gl.cut_norm(r) == 0.0
    assert gl.cut_norm_upper(r) == 0.0


@st.composite
def mixed_partitions(draw):
    """A host and a partition that keeps some steps as singleton classes
    and deals the others round-robin into up to three merged classes."""
    w = draw(hosts())
    merged = draw(st.lists(st.booleans(), min_size=w.k, max_size=w.k))
    groups = draw(st.integers(1, 3))
    labels = [i % groups if m else groups + i for i, m in enumerate(merged)]
    _, assign = np.unique(labels, return_inverse=True)
    return w, gl.Partition(w.mu, assign.tolist(), int(assign.max()) + 1)


@PROPERTY_SETTINGS
@given(mixed_partitions())
def test_aggregate_singleton_blocks_exact(wp):
    w, p = wp
    out = gl.aggregate(w, p).w
    sizes = np.bincount(p.assign, minlength=p.c)
    alone = np.flatnonzero(sizes[list(p.assign)] == 1)
    assert np.array_equal(out[np.ix_(alone, alone)], w.w[np.ix_(alone, alone)])
    assert np.max(np.abs(out - reference_aggregate(w, p))) <= 1e-15


@st.composite
def bigraphs(draw, max_side=3):
    """A bigraph with 1..max_side nodes per class and any edge set."""
    n1, n2 = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    cells = [(u, v) for u in range(n1) for v in range(n2)]
    keep = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    return gl.Bigraph(n1, n2, [c for c, b in zip(cells, keep) if b])


@PROPERTY_SETTINGS
@given(hosts(), bigraphs())
def test_bigraph_density_of_a_graphon_is_its_graph_density(w, f):
    """t^b(F, W) = t(G_F, W) for G_F, F as a graph on n1 + n2 nodes: the
    bigraph route (one class enumerated by broadcasting) and the graph
    route (one einsum) agree."""
    g = gl.Graph(f.n1 + f.n2, [(u, f.n1 + v) for u, v in f.edges])
    assert abs(gl.bigraph_density(f, gl.as_bigraphon(w)) - gl.density(g, w)) <= 1e-12


@PROPERTY_SETTINGS
@given(hosts(), st.data())
def test_split_and_permutation_preserve_densities(w, data):
    i = data.draw(st.integers(0, w.k - 1))
    parts = data.draw(st.integers(2, 3))
    split = gl.split_step(w, i, parts)
    perm = data.draw(st.permutations(range(split.k)))
    moved = gl.StepGraphon(split.mu[perm], split.w[np.ix_(perm, perm)])
    where = np.argsort(perm)

    def image(step):  # a step of w in ``moved`` (step i: its first copy)
        return int(where[step if step <= i else step + parts - 1])

    def close(a, b):
        return abs(a - b) <= 1e-12

    for g in (gl.Graph.complete(3), gl.Graph(3, [(0, 1), (1, 2)])):
        assert close(gl.density(g, moved), gl.density(g, w))
        assert close(gl.induced_density(g, moved), gl.induced_density(g, w))
    b, bm = gl.as_bigraphon(w), gl.as_bigraphon(moved)
    wide = gl.Bigraph(2, 3, [(0, 0), (0, 1), (1, 1), (1, 2)])  # class 1 enumerated
    tall = gl.Bigraph(3, 2, [(v, u) for u, v in wide.edges])   # class 2 enumerated
    for f in (wide, tall):
        assert close(gl.bigraph_density(f, bm, induced=True),
                     gl.bigraph_density(f, b, induced=True))
    x, y = data.draw(st.integers(0, w.k - 1)), data.draw(st.integers(0, w.k - 1))
    for f, s1, s2 in ((wide, [0], [2]), (tall, [0], [1])):
        roots = ({s1[0]: x}, {s2[0]: y})
        moved_roots = ({s1[0]: image(x)}, {s2[0]: image(y)})
        assert close(gl.partial_bigraph_density(f, s1, s2, *moved_roots, bm, induced=True),
                     gl.partial_bigraph_density(f, s1, s2, *roots, b, induced=True))


@PROPERTY_SETTINGS
@given(partitioned_hosts(), st.data())
def test_split_step_preserves_the_partition_cut_error(wp, data):
    """A step split into twin copies, with the partition pulled back to the
    copies, has the same W_P up to the split, so the same cut error."""
    w, p = wp
    i = data.draw(st.integers(0, w.k - 1))
    parts = data.draw(st.integers(2, 3))
    split = gl.split_step(w, i, parts)
    assign = p.assign[:i] + (p.assign[i],) * parts + p.assign[i + 1:]
    pulled = gl.Partition(split.mu, assign, p.c)
    assert abs(gl.partition_cut_error(split, pulled) - gl.partition_cut_error(w, p)) <= 1e-12
