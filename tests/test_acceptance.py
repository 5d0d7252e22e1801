"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. Every tolerance is
fixed here; the expected values come from independent oracles (full
subset-pair enumeration, explicit spherical distances, exhaustive pattern
sweeps), never from the code paths under test.
"""

import json
import subprocess
import sys

import numpy as np

import graphonlab as gl
from graphonlab import fileio
from graphonlab.setsystems import sauer_shelah_bound

from conftest import brute_cut_norm, random_partition, rng


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "graphonlab.cli", *map(str, args)],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_c01_cut_norm_oracle_equivalence():
    worst = 0.0
    for seed in range(500):
        k = 2 + seed % 7
        kern = gl.zoo.random_kernel(k, seed=seed)
        delta = abs(gl.cut_norm(kern) - brute_cut_norm(kern))
        worst = max(worst, delta)
        assert delta <= 1e-12
    print(f"\nPASS criterion 1: exact cut norm == brute force on 500 kernels "
          f"(max |delta| = {worst:.2e})")


def _weak_corpus():
    for i in range(200):
        yield gl.zoo.random_stepfunction(3 + i % 10, seed=10_000 + i)


def test_c02_voronoi_weak_partition_bound():
    worst = -np.inf
    for w in _weak_corpus():
        for eps in (0.02, 0.05, 0.1):
            rep = gl.weak_partition_via_net(w, eps)
            assert rep.exact
            slack = 8.0 * np.sqrt(rep.net_cost) + 1e-9 - rep.cut_error
            worst = max(worst, rep.cut_error - 8.0 * np.sqrt(rep.net_cost))
            assert slack >= 0.0
    print(f"PASS criterion 2: cut error <= 8 sqrt(net cost) on 600 runs "
          f"(max excess = {worst:.2e})")


def test_c03_net_from_partition_bound():
    worst = -np.inf
    for i, w in enumerate(_weak_corpus()):
        for trial in range(5):
            p = random_partition(w.mu, 2 + trial % 4, seed=20_000 + 5 * i + trial)
            _, cost = gl.net_from_partition(w, p)
            cut = gl.partition_cut_error(w, p)
            worst = max(worst, cost - 4.0 * cut)
            assert cost <= 4.0 * cut + 1e-9
    print(f"PASS criterion 3: net cost <= 4 x cut error on 1000 runs "
          f"(max excess = {worst:.2e})")


def test_c04_similarity_contraction():
    worst = -np.inf
    for seed in range(1000):
        w = gl.zoo.random_stepfunction(2 + seed % 14, seed=30_000 + seed)
        gap = gl.similarity_metric(w).dist - gl.neighborhood_metric(w).dist
        worst = max(worst, float(gap.max()))
        assert np.all(gap <= 1e-12)
    print(f"PASS criterion 4: similarity <= neighborhood on 1000 graphons "
          f"(max excess = {worst:.2e})")


def _independent_set(f, seed):
    chosen = []
    for v in rng(seed).permutation(f.n):
        if all(not f.has_edge(int(v), u) for u in chosen):
            chosen.append(int(v))
    return chosen


def test_c05_lipschitz_partial_densities():
    r = rng(42)
    done = 0
    while done < 1000:
        k = int(r.integers(2, 8))
        w = gl.zoo.random_stepfunction(k, seed=40_000 + done)
        edges = [(u, v) for u in range(4) for v in range(u + 1, 4) if r.random() < 0.5]
        f = gl.Graph(4, edges)
        s = _independent_set(f, seed=41_000 + done)
        if not s:
            continue
        x = {v: int(r.integers(0, k)) for v in s}
        xp = {v: int(r.integers(0, k)) for v in s}
        nm = gl.neighborhood_metric(w)
        lhs = abs(gl.partial_density(f, s, x, w) - gl.partial_density(f, s, xp, w))
        assert lhs <= len(f.edges) * max(nm.dist[x[v], xp[v]] for v in s) + 1e-9
        done += 1

    done = 0
    while done < 1000:
        k1, k2 = int(r.integers(2, 6)), int(r.integers(2, 6))
        mu1, mu2 = r.random(k1) + 0.2, r.random(k2) + 0.2
        w = gl.StepBigraphon(mu1 / mu1.sum(), mu2 / mu2.sum(), r.random((k1, k2)))
        f = gl.Bigraph(3, 3, [(u, v) for u in range(3) for v in range(3)
                              if r.random() < 0.5])
        s1 = [v for v in range(3) if r.random() < 0.5]
        blocked = {v for (u, v) in f.edges if u in s1}
        s2 = [v for v in range(3) if v not in blocked and r.random() < 0.5]
        if not s1 and not s2:
            continue
        x = {v: int(r.integers(0, k1)) for v in s1}
        xp = {v: int(r.integers(0, k1)) for v in s1}
        y = {v: int(r.integers(0, k2)) for v in s2}
        yp = {v: int(r.integers(0, k2)) for v in s2}
        r1, r2 = gl.bigraphon_metrics(w)
        lhs = abs(gl.partial_bigraph_density(f, s1, s2, x, y, w)
                  - gl.partial_bigraph_density(f, s1, s2, xp, yp, w))
        moves = [r1.dist[x[v], xp[v]] for v in s1] + [r2.dist[y[v], yp[v]] for v in s2]
        assert lhs <= len(f.edges) * max(moves) + 1e-9
        done += 1
    print("PASS criterion 5: Lipschitz bound on 1000 graph + 1000 bigraph triples")


def test_c06_ultra_strong_partitions():
    for i in range(100):
        w = gl.zoo.random_stepfunction(2 + i % 9, seed=50_000 + i)
        for eps in (0.2, 0.3):
            rep = gl.ultra_strong_partition(w, eps)
            m = len(rep.centers)
            assert rep.l1_error <= eps
            assert rep.class_count <= m * int(np.ceil(1.0 / eps)) ** m
    print("PASS criterion 6: ultra-strong L1 error and class-count bounds on 200 runs")


def _random_family(m, seed):
    r = rng(seed)
    count = int(r.integers(1, (1 << m) + 1))
    return gl.SetFamily(m, [int(r.integers(0, 1 << m)) for _ in range(count)])


def test_c07_sauer_shelah():
    checked = 0
    for m in range(1, 4):
        for bits in range(1 << (1 << m)):
            fam = gl.SetFamily(m, [s for s in range(1 << m) if bits >> s & 1])
            assert len(fam) <= sauer_shelah_bound(m, gl.vc_dimension(fam))
            checked += 1
    for seed in range(10_000):
        fam = _random_family(2 + seed % 4, seed=60_000 + seed)
        assert len(fam) <= sauer_shelah_bound(fam.m, gl.vc_dimension(fam))
        checked += 1
    print(f"PASS criterion 7: Sauer-Shelah on {checked} families")


def test_c08_sym_diff_vc_bound():
    for m in range(1, 4):
        for bits in range(1 << (1 << m)):
            fam = gl.SetFamily(m, [s for s in range(1 << m) if bits >> s & 1])
            if not fam.sets:
                continue
            assert gl.vc_dimension(gl.sym_diff_family(fam)) <= 10 * gl.vc_dimension(fam)
    observed_max_ratio = 0.0
    for seed in range(10_000):
        fam = _random_family(2 + seed % 4, seed=60_000 + seed)
        k = gl.vc_dimension(fam)
        kd = gl.vc_dimension(gl.sym_diff_family(fam))
        assert kd <= 10 * k
        if k > 0:
            observed_max_ratio = max(observed_max_ratio, kd / k)
    prefixes = gl.SetFamily(3, [[], [0], [0, 1], [0, 1, 2]])
    assert gl.vc_dimension(prefixes) == 1
    assert gl.vc_dimension(gl.sym_diff_family(prefixes)) == 2
    print(f"PASS criterion 8: vc(H^H) <= 10 vc(H); prefix family gives (1, 2); "
          f"sharpest observed ratio {observed_max_ratio:.2f}")


def test_c09_thinness_pipeline():
    for n in range(2, 9):
        w = gl.zoo.half_graphon(n)
        fam, _ = gl.neighborhood_family(w)
        assert gl.de_dimension(fam) == 1
        witness = gl.thinness_witness(w, 2)
        assert witness is not None and witness.n1 == 2 and witness.n2 == 4
        assert gl.bigraph_density(witness, gl.as_bigraphon(w), induced=True) == 0.0

    patterns = []
    for n1 in (1, 2, 3):
        for n2 in (1, 2, 3):
            for bits in range(1 << (n1 * n2)):
                patterns.append(gl.Bigraph(n1, n2, [(u, v) for u in range(n1)
                                                    for v in range(n2)
                                                    if bits >> (u * n2 + v) & 1]))
    smallest = np.inf
    for i in range(100):
        w = gl.zoo.random_stepfunction(3 + i % 3, seed=70_000 + i)
        host = gl.as_bigraphon(w)
        vals = [gl.bigraph_density(f, host, induced=True) for f in patterns]
        smallest = min(smallest, min(vals))
        assert min(vals) > 1e-12
    print(f"PASS criterion 9: half-graphon thinness pipeline (n = 2..8) and "
          f"{len(patterns)} patterns x 100 non-0-1 graphons all positive "
          f"(min density {smallest:.2e})")


def test_c10_sphere_distances():
    n = 2000
    w, pts = gl.zoo.sphere_graphon(dim=2, n=n, seed=1)
    tol = 3.0 / np.sqrt(n)
    angles = np.arccos(np.clip(pts @ pts.T, -1.0, 1.0)) / np.pi

    nm = gl.neighborhood_metric(w)
    dev_all = float(np.max(np.abs(nm.dist - angles)))
    assert dev_all <= tol

    wow = gl.square(w)
    sim_vals = 1.0 - 2.0 * wow.w
    r = rng(2)
    pairs = [(int(r.integers(0, n)), int(r.integers(0, n))) for _ in range(500)]
    dev_rw = max(abs(nm.dist[a, b] - angles[a, b]) for a, b in pairs)
    dev_ww = max(abs(sim_vals[a, b] - angles[a, b]) for a, b in pairs)
    assert dev_rw <= tol and dev_ww <= tol
    print(f"PASS criterion 10: sphere n=2000: max |r_W - angle/pi| = {dev_all:.4f}, "
          f"|1-2WoW - angle/pi| = {dev_ww:.4f} <= {tol:.4f}")


def test_c11_edit_blowup_bound(tmp_path):
    half = tmp_path / "half8.graphon"
    code, _, _ = run_cli("zoo", "half", "--n", 8, "-o", half)
    assert code == 0
    fileio.write_bigraph(tmp_path / "m2.bigraph", gl.Bigraph(2, 2, [(0, 0), (1, 1)]))
    out = tmp_path / "edit.json"
    code, _, err = run_cli("partition", "thin", half, "--eps", "0.5",
                           "--pattern", tmp_path / "m2.bigraph", "--edit", "-o", out)
    assert code == 0, err
    doc = json.loads(out.read_text())
    assert doc["edit"]["changed_cells"] <= 0.5 * 64
    print(f"PASS criterion 11: half-graph(8) blow-up differs in "
          f"{doc['edit']['changed_cells']} of 64 cells <= 32; exit code 0")


def test_c12_cli_determinism(tmp_path):
    commands = [
        ("sphere.graphon", ["zoo", "sphere", "--dim", 2, "--n", 50, "--seed", 3]),
        ("half.graphon", ["zoo", "half", "--n", 8]),
    ]
    outputs = {}
    for name, cmd in commands:
        for attempt in ("a", "b"):
            target = tmp_path / f"{attempt}_{name}"
            code, _, _ = run_cli(*cmd, "-o", target)
            assert code == 0
            outputs[(name, attempt)] = target.read_bytes()
        assert outputs[(name, "a")] == outputs[(name, "b")]

    half = tmp_path / "a_half.graphon"
    for attempt in ("a", "b"):
        target = tmp_path / f"{attempt}_rep.json"
        code, _, _ = run_cli("partition", "weak", half, "--eps-net", "0.05",
                             "-o", target)
        assert code == 0
    assert (tmp_path / "a_rep.json").read_bytes() == (tmp_path / "b_rep.json").read_bytes()
    code, out_a, _ = run_cli("thinness", half, "--kmax", "2")
    code, out_b, _ = run_cli("thinness", half, "--kmax", "2")
    assert out_a == out_b
    print("PASS criterion 12: repeated CLI runs are byte-identical")
