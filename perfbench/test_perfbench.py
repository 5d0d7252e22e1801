"""Tests of the benchmark itself: every output check rejects a perturbed
output, the tracer sees nested calls and counts them once, and counters
and digests repeat.

    python3 -m pytest perfbench -q
"""

import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import checks  # noqa: E402
import graphonlab as gl  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from graphonlab import zoo  # noqa: E402

rejects = pytest.raises(checks.CheckError)


@pytest.fixture(scope="module")
def certify_out():
    w = zoo.random_stepfunction(8, 3)
    return workloads.Certify().run(w)


def test_certify_checks(certify_out):
    checks.certify(certify_out)
    weak = certify_out["weak"]
    with rejects:
        checks.certify({**certify_out, "weak": dataclasses.replace(
            weak, certified_bound=weak.cut_error / 2)})
    with rejects:
        checks.certify({**certify_out, "szemeredi": weak.cut_error / 2})
    with rejects:
        checks.certify({**certify_out, "szemeredi": 2 * weak.l1_error + 1})
    centers, _ = certify_out["net"]
    with rejects:
        checks.certify({**certify_out, "net": (centers, 4 * weak.cut_error + 1e-6)})


def test_partition_report_rejects_cut_above_l1():
    w = zoo.random_stepfunction(6, 1)
    rep = gl.ultra_strong_partition(w, 0.3)
    checks.partition_report(rep, "l1")
    bad = object.__new__(type(rep))
    for field in dataclasses.fields(rep):
        object.__setattr__(bad, field.name, getattr(rep, field.name))
    object.__setattr__(bad, "cut_error", rep.l1_error + 1e-6)
    object.__setattr__(bad, "certified_bound", 1.0)
    with rejects:
        checks.partition_report(bad, "l1")


@pytest.fixture(scope="module")
def patterns():
    wl = workloads.Patterns()
    pool = wl.inputs(7, None)
    return wl, {kind: item for kind, item in ((i[0], i) for i in pool)}


def test_pattern_density_checks(patterns):
    wl, items = patterns
    item = items["real"]
    w = item[1]
    out = wl.run(item)
    wl.check(item, out)
    bad = {**out["induced"], "2x3": list(out["induced"]["2x3"])}
    bad["2x3"][5] += 1e-6
    with rejects:
        checks.shape_sums(bad)
    t_hom, t_ind = out["graphs"]["C4"]
    others = [gl.induced_density(h, w) for h in workloads._supergraphs(workloads.C4)[1:]]
    checks.hom_from_induced(t_hom, [t_ind] + others)
    with rejects:
        checks.hom_from_induced(t_hom + 1e-6, [t_ind] + others)
    with rejects:
        checks.hom_from_induced(t_hom, [t_ind])
    with rejects:
        checks.rooted_average(np.array(out["rooted"]) * 1.001, w.mu, out["graphs"]["K3"][0])


def test_large_host_check(patterns):
    wl, items = patterns
    item = items["large"]
    out = wl.run(item)
    wl.check(item, out)
    with rejects:
        checks.cycle_densities(item[1], out["K3"] * (1 + 1e-6), out["C4"])
    with rejects:
        checks.cycle_densities(item[1], out["K3"], out["C4"] * (1 + 1e-6))


def test_thinness_checks(patterns):
    wl, items = patterns
    for kind in ("half", "zero_one"):
        item = items[kind]
        out = wl.run(item)
        wl.check(item, out)
    w = items["half"][1]
    witness = gl.thinness_witness(w, 6)
    checks.thinness(w, 1, witness, half=True)
    # the 1x2 witness of DE-dimension 0 is present in a half graphon
    with rejects:
        checks.thinness(w, 0, gl.witness_bigraph(0), half=False)
    with rejects:
        checks.thinness(w, 1, None, half=True)
    # the induced 2-matching is absent, so its density is exactly 0
    assert checks.induced_bigraph_density(workloads.M2, w) == 0.0
    assert checks.induced_bigraph_density(workloads.M2, zoo.random_stepfunction(5, 2)) > 0


def test_metric_checks():
    w, pts = zoo.sphere_graphon(2, 60, 4)
    r_w, r_ww = gl.neighborhood_metric(w), gl.similarity_metric(w)
    checks.metric_contraction(r_w, r_ww)
    checks.sphere_distance(r_w, pts)
    with rejects:
        checks.metric_contraction(r_ww, r_w)
    with rejects:
        checks.sphere_distance(r_w, pts[::-1])
    centers, cost = gl.average_net(r_ww, 0.05)
    checks.average_net(r_ww, centers, cost, 0.05)
    with rejects:
        checks.average_net(r_ww, centers, cost * 0.5 + 1e-9, 0.05)
    with rejects:
        checks.average_net(r_ww, centers[:1], cost, 0.05)
    cells = gl.voronoi_partition(r_ww, centers)
    checks.voronoi(r_ww, centers, cells)
    assign = list(cells.assign)
    moved = next(i for i in range(w.k) if i not in centers)
    assign[moved] = (assign[moved] + 1) % len(centers)
    with rejects:
        checks.voronoi(r_ww, centers, gl.Partition(cells.base, assign, cells.c))
    twin = gl.split_step(w, 0, 2)
    pure, mapping = gl.purify(twin)
    checks.purify(twin, pure, mapping)
    with rejects:
        checks.purify(twin, pure, [0] + mapping[1:-1] + [0])
    checks.packing_table([(0.4, 2), (0.2, 5)])
    with rejects:
        checks.packing_table([(0.4, 5), (0.2, 2)])


def test_cli_checks():
    steps = [(["zoo"], 0, "", ""), (["report"], 0, "certified: PASS (x)\n", "")]
    checks.cli_exit_codes(steps)
    with rejects:
        checks.cli_exit_codes(steps + [(["thinness"], 4, "", "size guard")])
    checks.cli_report("kind: weak\ncertified: PASS (measured 0 vs bound 1)\n")
    with rejects:
        checks.cli_report("kind: weak\ncertified: FAIL (measured 2 vs bound 1)\n")
    with rejects:
        checks.cli_report("certified: PASS\nedit: FAIL (9 cells vs 4)\n")
    good = '{"de": 1, "kmax": 6, "witness_found": true, "n1": 2, "n2": 4, "t_b_ind": 0}'
    checks.cli_thinness(good)
    with rejects:
        checks.cli_thinness(good.replace('"de": 1', '"de": 2'))
    with rejects:
        checks.cli_thinness(good.replace('"t_b_ind": 0', '"t_b_ind": 1e-300'))
    checks.cli_density('{"t": 0.25}', {"t": 0.25})
    with rejects:
        checks.cli_density('{"t": 0.2500001}', {"t": 0.25})
    with rejects:
        checks.cli_density('{"t_ind": 0.25}', {"t": 0.25})


def test_tracer_rebinds_cross_module_imports_and_restores_them():
    import graphonlab.regularity as regularity

    original = regularity.cut_norm
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert regularity.cut_norm is gl.core.cut_norm is gl.cut_norm
        assert regularity.cut_norm is not original
    finally:
        tracer.uninstall()
    assert regularity.cut_norm is original and gl.core.cut_norm is original


def _traced(job):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.job = 0
        span = tracer.open("job")
        job()
        tracer.close(span)
        tracer.job = None
        job()  # outside a job: not recorded
    finally:
        tracer.uninstall()
    return tracer


def test_nested_calls_are_counted_once():
    w = zoo.random_stepfunction(4, 5)
    tracer = _traced(lambda: [gl.density(workloads.C4, w) for _ in range(20)])
    names = [s[0] for s in tracer.spans]
    assert names.count("densities.density") == 20
    assert names.count("densities.partial_density") == 20
    m = tracing.per_layer_metrics(tracer.spans, {0})
    outer = sum(s[2] - s[1] for s in tracer.spans if s[0] == "densities.density")
    assert m["densities.calls"] == 20
    assert m["densities.s"] == pytest.approx(outer)
    assert m["densities.assignments"] == 20 * 4 ** 4
    assert m["layer.densities.share"] + m["layer.other.share"] == pytest.approx(1.0)


def test_counters_repeat_and_outputs_do_not_change_under_tracing():
    wl = workloads.Certify()
    w = zoo.random_stepfunction(10, 9)
    plain = workloads.feed_digest(wl.run(w)).hexdigest()
    results = []
    for _ in range(2):
        out = {}
        tracer = _traced(lambda: out.update(wl.run(w)))
        results.append(tracing.per_layer_metrics(tracer.spans, {0}))
        assert workloads.feed_digest(out).hexdigest() == plain
    for key in ("core.cut_norm.exact.calls", "core.cut_norm.exact.subsets",
                "metrics.row_l1.cells", "metrics.average_net.iterations"):
        assert results[0][key] == results[1][key]
    assert results[0]["core.cut_norm.exact.subsets"] == 3 * 2 ** 10


def test_run_refuses_a_directory_without_the_library(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
                           "certify", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
