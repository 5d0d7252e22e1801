import math

import numpy as np
import pytest

import graphonlab as gl
import graphonlab.metrics as metrics
from graphonlab.zoo import (binary_graphon, counterexample_U, half_graphon,
                            metric_graphon, random_stepfunction, sphere_graphon)


def test_sphere_basic_properties():
    w, pts = sphere_graphon(dim=2, n=50, seed=7)
    assert w.k == 50
    assert np.all(np.diag(w.w) == 1.0)  # x . x >= 0
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    again, pts2 = sphere_graphon(dim=2, n=50, seed=7)
    assert np.array_equal(w.w, again.w) and np.array_equal(pts, pts2)
    with pytest.raises(gl.InvalidInputError):
        sphere_graphon(2, 1, seed=0)


def test_sphere_matches_spherical_distance():
    n = 400
    w, pts = sphere_graphon(dim=2, n=n, seed=11)
    angles = np.arccos(np.clip(pts @ pts.T, -1.0, 1.0)) / np.pi
    nm = gl.neighborhood_metric(w)
    assert float(np.max(np.abs(nm.dist - angles))) <= 3 / np.sqrt(n)
    # the most antipodal sample pair sits near distance 1
    i, j = np.unravel_index(np.argmax(angles), angles.shape)
    assert abs(nm.dist[i, j] - angles[i, j]) <= 3 / np.sqrt(n)


def test_metric_graphon_examples(monkeypatch):
    two = metric_graphon(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.array_equal(two.w, gl.graphon_from_graph(gl.Graph(2, [(0, 1)])).w)
    single = metric_graphon(np.zeros((1, 1)))
    assert single.k == 1 and single.w[0, 0] == 0.0
    # the caller's matrix is swept once; the neighborhood metric, a metric
    # by construction, is not swept
    sweeps = []
    real_sweep = metrics.triangle_violation
    monkeypatch.setattr(metrics, "triangle_violation",
                        lambda d: sweeps.append(len(d)) or real_sweep(d))
    k = 12
    i = np.arange(k)
    grid = metric_graphon(np.abs(i[:, None] - i[None, :]) / k)
    nm = gl.neighborhood_metric(grid)
    assert np.all(nm.dist <= grid.w + 1e-12)  # identity map is contractive
    assert sweeps == [k]


def test_metric_graphon_validation():
    with pytest.raises(gl.InvalidInputError):
        metric_graphon(np.array([[0.0, 1.5], [1.5, 0.0]]))  # diameter > 1
    bad = np.array([[0.0, 1.0, 0.1], [1.0, 0.0, 0.1], [0.1, 0.1, 0.0]])
    with pytest.raises(gl.InvalidInputError):
        metric_graphon(bad)  # triangle violation


@pytest.mark.parametrize("dist, mu", [
    (np.zeros((2, 3)), None),
    (np.array([[0.0, 0.5], [0.4, 0.0]]), None),
    (np.array([[0.0, -0.5], [-0.5, 0.0]]), None),
    (np.array([[0.1, 0.5], [0.5, 0.0]]), None),
    (np.zeros((0, 0)), None),
    (np.array([[0.0, 0.5], [0.5, 0.0]]), np.full(3, 1 / 3)),
], ids=["non-square", "asymmetric", "negative", "diagonal", "empty", "mu-length"])
def test_metric_graphon_rejects_malformed_input(dist, mu):
    with pytest.raises(gl.InvalidInputError):
        metric_graphon(dist, mu)


def test_half_graphon_examples():
    h2 = half_graphon(2)
    assert h2.w.tolist() == [[1.0, 1.0], [1.0, 0.0]]
    for n in range(1, 9):
        h = half_graphon(n)
        m2 = gl.Bigraph(2, 2, [(0, 0), (1, 1)])
        assert gl.bigraph_density(m2, gl.as_bigraphon(h), induced=True) == 0.0
    fam, _ = gl.neighborhood_family(half_graphon(6))
    assert gl.de_dimension(fam) == 1


def test_half_graphon_witness_up_to_ten():
    for n in range(1, 11):
        assert gl.thinness_witness(half_graphon(n), 2) is not None


def test_binary_sym_depth1_matrix():
    w = binary_graphon(1, "sym")
    assert w.k == 4
    expected = [[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]]
    assert w.w.tolist() == expected


@pytest.mark.parametrize("depth", range(1, 7))
def test_binary_graphon_matches_its_pointwise_definition(depth):
    def digit(x, level):  # the level-th binary digit of x after the point
        return int(x * 2 ** level) % 2

    sym, asym = binary_graphon(depth, "sym"), binary_graphon(depth, "asym")
    mids = (np.arange(sym.k) + 0.5) / sym.k
    for i, x in enumerate(mids):
        for j, y in enumerate(mids):
            high, low = max(x, y), min(x, y)
            mixed = high > 0.5 >= low
            expected = digit(high, math.floor(math.log2(1 / low))) if mixed else 0
            assert sym.w[i, j] == expected
    mids = (np.arange(asym.k1) + 0.5) / asym.k1
    for i, x in enumerate(mids):
        for j, y in enumerate(mids):
            assert asym.w[i, j] == digit(x, math.ceil(math.log2(1 / y)))


def test_binary_sym_separated_levels():
    depth = 6
    w = binary_graphon(depth, "sym")
    k = w.k
    nm = gl.neighborhood_metric(w)
    # one representative step inside each dyadic interval [2^-(l+1), 2^-l]
    reps = []
    for level in range(1, depth):
        mid = 3.0 / (1 << (level + 2))
        reps.append(int(mid * k))
    dists = [nm.dist[a, b] for i, a in enumerate(reps) for b in reps[i + 1:]]
    assert min(dists) >= 0.2


def test_binary_asym_row_metric_formula():
    depth = 3
    w = binary_graphon(depth, "asym")
    assert isinstance(w, gl.StepBigraphon) and w.k1 == 8
    r1, _ = gl.bigraphon_metrics(w)
    mids = (2 * np.arange(8) + 1) / 16.0
    digits = lambda x: [int(np.floor(x * (1 << k))) & 1 for k in range(1, depth + 1)]
    for a in range(8):
        for b in range(8):
            expected = sum(0.5 ** k * abs(da - db)
                           for k, (da, db) in enumerate(zip(digits(mids[a]), digits(mids[b])), 1))
            assert abs(r1.dist[a, b] - expected) <= 1e-15


def test_binary_asym_column_levels_half_apart():
    depth = 5
    w = binary_graphon(depth, "asym")
    _, r2 = gl.bigraphon_metrics(w)
    # one column step per dyadic level: the first step of each level block
    reps = []
    for level in range(1, depth + 1):
        y = 2.0 ** -level  # left endpoint of level block (2^-l, 2^-(l-1)]
        reps.append(int(y * w.k2))
    assert len(reps) == depth
    for i, a in enumerate(reps):
        for b in reps[i + 1:]:
            assert abs(r2.dist[a, b] - 0.5) <= 1e-12
            assert r2.dist[a, b] >= 0.2


def test_binary_guards():
    with pytest.raises(gl.SizeLimitError):
        binary_graphon(13, "sym")
    with pytest.raises(gl.InvalidInputError):
        binary_graphon(3, "spiral")


def test_counterexample_U_shape():
    u = counterexample_U()
    assert u.mu.tolist() == [0.5, 0.5]
    assert u.w.tolist() == [[1.0, 0.5], [0.5, 1.0]]


def test_random_stepfunction_determinism():
    a = random_stepfunction(6, seed=123)
    b = random_stepfunction(6, seed=123)
    assert np.array_equal(a.w, b.w)
    c = random_stepfunction(6, seed=124)
    assert not np.array_equal(a.w, c.w)
    zo = random_stepfunction(8, seed=5, zero_one=True)
    assert zo.is_zero_one()
    single = random_stepfunction(1, seed=0)
    assert single.k == 1


def test_generators_produce_valid_graphons():
    outputs = [half_graphon(5), counterexample_U(), random_stepfunction(7, 3),
               binary_graphon(2, "sym"), sphere_graphon(1, 20, 0)[0]]
    for w in outputs:
        assert isinstance(w, gl.StepGraphon)  # constructor enforces invariants
    assert isinstance(binary_graphon(2, "asym"), gl.StepBigraphon)


def test_generator_argument_errors():
    with pytest.raises(gl.InvalidInputError):
        random_stepfunction(0, seed=0)
    with pytest.raises(gl.InvalidInputError):
        half_graphon(0)
    with pytest.raises(gl.InvalidInputError):
        sphere_graphon(0, 10, seed=0)
    # counts are integers: 4.5 steps is an input error, not a TypeError
    for build in (lambda: random_stepfunction(4.5, 1), lambda: half_graphon(4.5),
                  lambda: sphere_graphon(2, 10.0, seed=0), lambda: binary_graphon(2.5),
                  lambda: gl.zoo.random_kernel(3.5, 1)):
        with pytest.raises(gl.InvalidInputError, match="must be an integer"):
            build()
    assert half_graphon(np.int64(3)).k == 3


def test_seeds_are_nonnegative_integers():
    # 2.5 was truncated to seed 2, "3" was read as 3 and -1 reached numpy's
    # ValueError; each is now an input error
    for build in (random_stepfunction, gl.zoo.random_kernel,
                  lambda k, seed: sphere_graphon(2, k, seed)):
        for seed, message in ((2.5, "must be an integer"), ("3", "must be an integer"),
                              (-1, "must be nonnegative")):
            with pytest.raises(gl.InvalidInputError, match=message):
                build(4, seed)
    assert np.array_equal(random_stepfunction(4, np.int64(2)).w, random_stepfunction(4, 2).w)
    assert np.array_equal(random_stepfunction(4, np.uint64(2**63)).w,
                          random_stepfunction(4, 2**63).w)
