import json
import subprocess
import sys

import numpy as np
import pytest

import graphonlab as gl
from graphonlab import cli, fileio
from graphonlab.cli import main


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "graphonlab.cli", *map(str, args)],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def workdir(tmp_path, k2_graphon):
    fileio.write_graphon(tmp_path / "k2.graphon", k2_graphon)
    fileio.write_graph(tmp_path / "k3.graph", gl.Graph.complete(3))
    fileio.write_graph(tmp_path / "k2.graph", gl.Graph(2, [(0, 1)]))
    fileio.write_bigraph(tmp_path / "2matching.bigraph",
                         gl.Bigraph(2, 2, [(0, 0), (1, 1)]))
    fileio.write_graphon(tmp_path / "half8.graphon", gl.zoo.half_graphon(8))
    return tmp_path


def test_density_subcommand(workdir):
    code, out, _ = run_cli("density", "--graphon", workdir / "k2.graphon",
                           "--pattern", workdir / "k3.graph")
    assert code == 0
    doc = json.loads(out)
    assert doc["t"] == 0.0
    code, out, _ = run_cli("density", "--constant", "0.5",
                           "--pattern", workdir / "k3.graph")
    assert code == 0
    assert json.loads(out)["t"] == 0.125


def test_density_missing_file_exit_2(workdir):
    code, _, err = run_cli("density", "--graphon", workdir / "nope.graphon",
                           "--pattern", workdir / "k3.graph")
    assert code == 2
    assert "nope.graphon" in err


def test_density_nan_bigraphon_exit_2(workdir):
    (workdir / "nan.bigraphon").write_text(
        '{"k1": 2, "k2": 1, "mu1": [0.5, 0.5], "mu2": [1.0], "w": [[NaN], [0.5]]}\n')
    code, out, err = run_cli("density", "--bigraphon", workdir / "nan.bigraphon",
                             "--pattern", workdir / "2matching.bigraph")
    assert code == 2 and out == ""
    assert "finite" in err


@pytest.mark.parametrize("doc", [
    '{"k": 2, "mu": [0.5, 0.5], "w": [[0.0, 1.0], [1.0]]}',
    '{"k": 2, "mu": [0.5, 0.5], "w": [[0.0, "x"], ["x", 0.0]]}',
    '{"k": 2, "mu": [0.5, "half"], "w": [[0.0, 1.0], [1.0, 0.0]]}',
])
def test_metrics_malformed_graphon_exit_2(workdir, doc):
    (workdir / "bad.graphon").write_text(doc + "\n")
    code, out, err = run_cli("metrics", workdir / "bad.graphon")
    assert code == 2 and out == ""
    assert "array of numbers" in err and "Traceback" not in err


@pytest.mark.parametrize("doc", [
    '{"k1": 2, "k2": 2, "mu1": [0.5, 0.5], "mu2": [0.5, 0.5], "w": [[1.0, 0.0], [0.0]]}',
    '{"k1": 2, "k2": 2, "mu1": [0.5, 0.5], "mu2": [0.5, 0.5], "w": [[1.0, "a"], [0.0, 1.0]]}',
    '{"k1": 2, "k2": 1, "mu1": [0.5, 0.5], "mu2": ["1"], "w": [[1.0], [0.0]]}',
])
def test_density_malformed_bigraphon_exit_2(workdir, doc):
    (workdir / "bad.bigraphon").write_text(doc + "\n")
    code, out, err = run_cli("density", "--bigraphon", workdir / "bad.bigraphon",
                             "--pattern", workdir / "2matching.bigraph")
    assert code == 2 and out == ""
    assert "array of numbers" in err and "Traceback" not in err


def test_density_bigraph_pattern(workdir):
    code, out, _ = run_cli("density", "--graphon", workdir / "half8.graphon",
                           "--pattern", workdir / "2matching.bigraph")
    assert code == 0
    doc = json.loads(out)
    assert doc["t_b_ind"] == 0.0 and doc["t_b"] > 0.0


def test_partition_weak(workdir):
    out_file = workdir / "report.json"
    code, _, _ = run_cli("partition", "weak", workdir / "k2.graphon",
                         "--eps-net", "0.05", "-o", out_file)
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["kind"] == "weak"
    assert doc["cut_error"] <= 8 * np.sqrt(doc["net_cost"]) + 1e-9
    assert doc["exact"] is True


def test_partition_ultra(workdir):
    code, out, _ = run_cli("partition", "ultra", workdir / "half8.graphon",
                           "--eps", "0.3")
    assert code == 0
    doc = json.loads(out)
    assert doc["l1_error"] <= 0.3


def test_partition_thin_and_exit_codes(workdir):
    code, out, _ = run_cli("partition", "thin", workdir / "half8.graphon",
                           "--eps", "0.25", "--pattern", workdir / "2matching.bigraph")
    assert code == 0
    doc = json.loads(out)
    assert doc["l1_error"] <= 0.25 and doc["atom_count"] <= doc["sauer_bound"]
    # exclusion fails on K2 (zero-diagonal): exit 3
    code, _, err = run_cli("partition", "thin", workdir / "k2.graphon",
                           "--eps", "0.25", "--pattern", workdir / "2matching.bigraph")
    assert code == 3


def test_partition_thin_edit(workdir):
    out_file = workdir / "edit.json"
    code, _, _ = run_cli("partition", "thin", workdir / "half8.graphon",
                         "--eps", "0.5", "--pattern", workdir / "2matching.bigraph",
                         "--edit", "-o", out_file)
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["edit"]["changed_cells"] <= doc["edit"]["cell_bound"]


def test_metrics_csv(workdir):
    code, out, _ = run_cli("metrics", "--similarity", workdir / "k2.graphon")
    assert code == 0
    rows = out.strip().split("\n")
    assert rows[0] == "0,1"
    assert float(rows[1].split(",")[1]) == 0.5


def test_vc_subcommand(workdir):
    fam = gl.SetFamily(3, [[], [0], [0, 1], [0, 1, 2]])
    fileio.write_family(workdir / "prefixes.json", fam)
    code, out, _ = run_cli("vc", "--family", workdir / "prefixes.json", "--sym-diff")
    assert code == 0
    doc = json.loads(out)
    assert doc["vc"] == 1 and doc["vc_sym_diff"] == 2


def test_thinness_subcommand(workdir):
    witness_file = workdir / "w.bigraph"
    code, out, _ = run_cli("thinness", workdir / "half8.graphon", "--kmax", "2",
                           "--witness-out", witness_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["de"] == 1 and doc["witness_found"] is True
    assert doc["t_b_ind"] == 0.0
    back = fileio.load_bigraph(witness_file)
    assert back.n1 == 2 and back.n2 == 4


def test_thinness_witness_beyond_pattern_guard(workdir):
    host, witness_file = workdir / "r14.graphon", workdir / "w.bigraph"
    code, _, _ = run_cli("zoo", "random", "--k", 14, "--seed", 3, "--zero-one", "-o", host)
    assert code == 0
    code, out, err = run_cli("thinness", host, "--witness-out", witness_file)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["de"] == 3 and doc["t_b_ind"] == 0.0
    back = fileio.load_bigraph(witness_file)
    assert back.n1 == 4 and back.n2 == 16
    rep = workdir / "rep.json"
    code, _, err = run_cli("partition", "thin", host, "--eps", "0.25",
                           "--pattern", witness_file, "-o", rep)
    assert code == 0, err
    code, out, _ = run_cli("report", rep)
    assert code == 0 and "certified: PASS" in out


def test_thin_chain_with_3x8_witness(workdir):
    host, witness_file, rep = (workdir / "r7.graphon", workdir / "w.bigraph",
                               workdir / "rep.json")
    fileio.write_graphon(host, gl.zoo.random_stepfunction(7, 0, zero_one=True))
    code, out, _ = run_cli("thinness", host, "--witness-out", witness_file)
    assert code == 0 and json.loads(out)["n2"] == 8
    code, _, err = run_cli("partition", "thin", host, "--eps", "0.25",
                           "--pattern", witness_file, "-o", rep)
    assert code == 0, err
    code, out, _ = run_cli("report", rep)
    assert code == 0 and "certified: PASS" in out


def test_unexpected_exception_exit_5(workdir, monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_density", broken)
    code = main(["density", "--graphon", str(workdir / "k2.graphon"),
                 "--pattern", str(workdir / "k2.graph")])
    err = capsys.readouterr().err
    assert code == 5
    assert "internal error: RuntimeError: boom" in err


def test_zoo_subcommand_round_trip(workdir):
    out = workdir / "half5.graphon"
    code, _, _ = run_cli("zoo", "half", "--n", 5, "-o", out)
    assert code == 0
    w = fileio.load_graphon(out)
    assert w.k == 5 and w.is_zero_one()
    code, _, _ = run_cli("zoo", "random", "--k", 6, "--seed", 9, "-o", workdir / "r.graphon")
    assert code == 0
    assert fileio.load_graphon(workdir / "r.graphon").k == 6
    code, _, _ = run_cli("zoo", "binary", "--depth", 2, "--variant", "asym",
                         "-o", workdir / "b.bigraphon")
    assert code == 0
    assert fileio.load_bigraphon(workdir / "b.bigraphon").k1 == 4


def test_zoo_metric_from_csv(workdir):
    dist = workdir / "dist.csv"
    dist.write_text("0,0.5\n0.5,0\n")
    code, _, _ = run_cli("zoo", "metric", "--dist", dist, "-o", workdir / "m.graphon")
    assert code == 0
    w = fileio.load_graphon(workdir / "m.graphon")
    assert w.w[0, 1] == 0.5


def test_report_subcommand(workdir):
    rep_file = workdir / "rep.json"
    run_cli("partition", "ultra", workdir / "half8.graphon", "--eps", "0.3",
            "-o", rep_file)
    code, out, _ = run_cli("report", rep_file)
    assert code == 0
    assert "PASS" in out


def test_report_of_a_json_array_exit_2(workdir, capsys):
    (workdir / "rep.json").write_text("[1, 2]")
    assert main(["report", str(workdir / "rep.json")]) == 2
    assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("certified_bound", "0.5"), ("l1_error", "0.1"),
                                        ("cut_error", True)])
def test_report_with_a_non_numeric_value_exit_2(workdir, capsys, key, value):
    doc = {"kind": "ultra", "classes": [[0]], "cut_error": 0.1, "l1_error": 0.1,
           "certified_bound": 0.5, "exact": True}
    doc[key] = value
    (workdir / "rep.json").write_text(json.dumps(doc))
    assert main(["report", str(workdir / "rep.json")]) == 2
    assert f"{key} must be a number" in capsys.readouterr().err


def test_partition_heuristic_flag_is_gone(workdir):
    with pytest.raises(SystemExit) as exc:
        main(["partition", "weak", str(workdir / "half8.graphon"), "--eps-net", "0.05",
              "--heuristic"])
    assert exc.value.code == 2


def test_size_guard_exit_4(workdir):
    fileio.write_graphon(workdir / "big.graphon", gl.zoo.random_stepfunction(26, seed=1))
    fileio.write_graph(workdir / "k9.graph", gl.Graph.complete(9))
    code, _, err = run_cli("density", "--graphon", workdir / "big.graphon",
                           "--pattern", workdir / "k9.graph")
    assert code == 4


def test_determinism_byte_identical(workdir):
    a = workdir / "a.json"
    b = workdir / "b.json"
    for target in (a, b):
        run_cli("partition", "weak", workdir / "half8.graphon",
                "--eps-net", "0.05", "-o", target)
    assert a.read_bytes() == b.read_bytes()
    for target in (a, b):
        run_cli("zoo", "sphere", "--dim", 2, "--n", 30, "--seed", 4, "-o", target)
    assert a.read_bytes() == b.read_bytes()


def test_main_callable_in_process(workdir, capsys):
    code = main(["density", "--graphon", str(workdir / "k2.graphon"),
                 "--pattern", str(workdir / "k2.graph")])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["t"] == 0.5
