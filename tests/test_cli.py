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


@pytest.mark.parametrize("case", ["directory", "binary", "missing-dir"])
def test_unreadable_or_unwritable_files_exit_2(workdir, case):
    (workdir / "noise.graph").write_bytes(bytes([0x80, 0xff, 0xfe, 0x00, 0x9c]) * 40)
    args = {"directory": ["report", workdir],
            "binary": ["density", "--constant", "0.5", "--pattern", workdir / "noise.graph"],
            "missing-dir": ["zoo", "half", "--n", "4", "-o", workdir / "nope" / "x.json"]}[case]
    code, out, err = run_cli(*args)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert str(args[-1]) in err


def test_density_nan_bigraphon_exit_2(workdir):
    (workdir / "nan.bigraphon").write_text(
        '{"k1": 2, "k2": 1, "mu1": [0.5, 0.5], "mu2": [1.0], "w": [[NaN], [0.5]]}\n')
    code, out, err = run_cli("density", "--bigraphon", workdir / "nan.bigraphon",
                             "--pattern", workdir / "2matching.bigraph")
    assert code == 2 and out == ""
    assert "finite" in err


def test_density_bigraphon_value_error_names_the_file(workdir):
    bad = workdir / "empty.bigraphon"
    bad.write_text('{"k1": 0, "k2": 1, "mu1": [], "mu2": [1.0], "w": [[]]}\n')
    code, out, err = run_cli("density", "--bigraphon", bad,
                             "--pattern", workdir / "2matching.bigraph")
    assert (code, out) == (2, "")
    assert err == f"error: {bad}: mu1 must be a nonempty 1-d vector\n"


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


@pytest.mark.parametrize("k", ["1.5", '"1"', "true", "1.0"])
def test_metrics_graphon_with_a_non_integer_k_exit_2(workdir, k):
    (workdir / "bad.graphon").write_text(f'{{"k": {k}, "mu": [1.0], "w": [[0.5]]}}\n')
    code, out, err = run_cli("metrics", workdir / "bad.graphon")
    assert code == 2 and out == ""
    assert "with k an integer" in err and "Traceback" not in err


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


@pytest.mark.parametrize("counts,message", [
    ('"k2": 1', "expected keys k1, k2, mu1, mu2, w"),
    ('"k1": 2, "k2": "x"', "with k2 an integer"),
    ('"k1": 1.5, "k2": 1', "with k1 an integer"),
    ('"k1": 2, "k2": true', "with k2 an integer"),
    ('"k1": 2, "k2": 3', "mu2 has 1 entries, k2=3"),
])
def test_density_bigraphon_with_a_bad_count_exit_2(workdir, counts, message):
    (workdir / "bad.bigraphon").write_text(
        f'{{{counts}, "mu1": [0.5, 0.5], "mu2": [1.0], "w": [[1.0], [0.0]]}}\n')
    code, out, err = run_cli("density", "--bigraphon", workdir / "bad.bigraphon",
                             "--pattern", workdir / "2matching.bigraph")
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


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


@pytest.mark.parametrize("eps_net", ["-0.1", "nan"])
def test_partition_weak_with_a_negative_or_nan_eps_net_exit_2(workdir, eps_net):
    code, out, err = run_cli("partition", "weak", workdir / "half8.graphon",
                             "--eps-net", eps_net)
    assert (code, out) == (2, "")
    assert "eps_net must be nonnegative" in err


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


def test_a_host_that_is_not_0_1_exits_3_from_thinness_and_partition_thin(workdir):
    host = str(workdir / "r5.graphon")
    fileio.write_graphon(host, gl.zoo.random_stepfunction(5, 1))
    assert main(["thinness", host]) == 3
    assert main(["partition", "thin", host, "--eps", "0.25",
                 "--pattern", str(workdir / "2matching.bigraph")]) == 3


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


@pytest.mark.parametrize("doc, message", [
    ({"m": 2, "sets": [["a"]]}, "sets must be a list of integer lists"),
    ({"m": 2, "sets": 5}, "sets must be a list of integer lists"),
    ({"m": 2, "sets": [[0, True]]}, "sets must be a list of integer lists"),
    ({"m": "two", "sets": [[0]]}, "expected keys m, weights, sets"),
    ({"m": 2.5, "sets": [[0], [1]]}, "with m an integer"),
    ({"m": "3", "sets": [[0], [1]]}, "with m an integer"),
    ({"m": True, "sets": [[0]]}, "with m an integer"),
], ids=["string-element", "number", "bool-element", "non-integer-m", "fractional-m",
        "string-m", "bool-m"])
def test_vc_malformed_family_exit_2(workdir, capsys, doc, message):
    (workdir / "fam.json").write_text(json.dumps(doc))
    assert main(["vc", "--family", str(workdir / "fam.json")]) == 2
    assert message in capsys.readouterr().err


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


def test_density_accepts_the_witness_thinness_writes(workdir):
    # the 4x16 witness on a 20-step host enumerates 4 class-1 nodes (17
    # bits), though its 20 nodes would span 86
    host, witness_file = workdir / "r20.graphon", workdir / "w.bigraph"
    code, _, err = run_cli("zoo", "random", "--k", 20, "--seed", 1, "--zero-one", "-o", host)
    assert code == 0, err
    code, out, err = run_cli("thinness", host, "--witness-out", witness_file)
    assert code == 0, err
    assert json.loads(out)["n2"] == 16
    code, out, err = run_cli("density", "--graphon", host, "--pattern", witness_file)
    assert code == 0, err
    assert json.loads(out)["t_b_ind"] == 0


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


def test_thinness_witness_with_a_nonzero_density_exit_1(workdir, monkeypatch, capsys):
    # the witness's exact density is its certificate: a nonzero one is a
    # failed certificate, not an input error
    monkeypatch.setattr(gl.setsystems, "bigraph_density", lambda *args, **kwargs: 0.5)
    assert main(["thinness", str(workdir / "half8.graphon")]) == 1
    assert capsys.readouterr().err.startswith("certified bound violated:")


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


@pytest.mark.parametrize("args", [["random", "--k", "5", "--seed", "-1"],
                                  ["sphere", "--n", "5", "--seed", "-3"]])
def test_zoo_negative_seed_exit_2(workdir, capsys, args):
    # these exited 5 on numpy's "expected non-negative integer"
    assert main(["zoo", *args, "-o", str(workdir / "x.graphon")]) == 2
    assert "error: seed must be nonnegative" in capsys.readouterr().err
    assert not (workdir / "x.graphon").exists()


def test_zoo_metric_from_csv(workdir):
    dist = workdir / "dist.csv"
    dist.write_text("0,0.5\n0.5,0\n")
    code, _, _ = run_cli("zoo", "metric", "--dist", dist, "-o", workdir / "m.graphon")
    assert code == 0
    w = fileio.load_graphon(workdir / "m.graphon")
    assert w.w[0, 1] == 0.5


def test_zoo_metric_reads_the_metrics_csv(workdir):
    half8 = fileio.load_graphon(workdir / "half8.graphon")
    csv, out = workdir / "d.csv", workdir / "m.graphon"
    assert main(["metrics", str(workdir / "half8.graphon"), "-o", str(csv)]) == 0
    assert main(["zoo", "metric", "--dist", str(csv), "-o", str(out)]) == 0
    assert np.array_equal(fileio.load_graphon(out).w, gl.neighborhood_metric(half8).dist)
    (workdir / "mu.csv").write_text("\n".join(["0.0625"] * 4 + ["0.1875"] * 4) + "\n")
    assert main(["zoo", "metric", "--dist", str(csv), "--mu", str(workdir / "mu.csv"),
                 "-o", str(out)]) == 0
    assert fileio.load_graphon(out).mu[-1] == 0.1875


@pytest.mark.parametrize("dist, mu", [
    ("0,x\nx,0\n", None), ("0,0.5\n0.5\n", None), ("", None), ("0,0.5\n0.5,0\n", "missing"),
    ("0,0.5\n0.5,0\n", "0.5,y\n"), (None, None),
], ids=["non-numeric", "ragged", "empty", "missing-mu", "non-numeric-mu", "no-dist"])
def test_zoo_metric_malformed_csv_exit_2(workdir, capsys, dist, mu):
    args = ["zoo", "metric", "-o", str(workdir / "m.graphon")]
    if dist is not None:
        (workdir / "d.csv").write_text(dist)
        args += ["--dist", str(workdir / "d.csv")]
    if mu is not None:
        if mu != "missing":
            (workdir / "mu.csv").write_text(mu)
        args += ["--mu", str(workdir / "mu.csv")]
    if dist is None:  # argparse rejects the missing required flag
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
    else:
        assert main(args) == 2
    assert "error:" in capsys.readouterr().err


def test_report_subcommand(workdir):
    rep_file = workdir / "rep.json"
    run_cli("partition", "ultra", workdir / "half8.graphon", "--eps", "0.3",
            "-o", rep_file)
    code, out, _ = run_cli("report", rep_file)
    assert code == 0
    assert "PASS" in out


@pytest.fixture
def thin_report(workdir):
    fileio.write_graphon(workdir / "half12.graphon", gl.zoo.half_graphon(12))
    rep = workdir / "rep.json"
    assert main(["partition", "thin", str(workdir / "half12.graphon"), "--eps", "0.25",
                 "--pattern", str(workdir / "2matching.bigraph"), "-o", str(rep)]) == 0
    doc = json.loads(rep.read_text())
    assert (doc["atom_count"], doc["sauer_bound"]) == (12, 299)
    return rep, doc


def test_report_checks_the_atom_certificate(thin_report, capsys):
    rep, doc = thin_report
    assert main(["report", str(rep)]) == 0
    assert "atoms: 12 <= 299\ncertified: PASS" in capsys.readouterr().out
    # a tampered atom count printed "atoms: 400 <= 299" and exited 0
    rep.write_text(json.dumps({**doc, "atom_count": 400}))
    assert main(["report", str(rep)]) == 1
    assert "atoms: 400 > 299\ncertified: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("key, value", [("sauer_bound", None), ("atom_count", None),
                                        ("sauer_bound", "299"), ("atom_count", 12.0),
                                        ("atom_count", True)])
def test_report_with_an_incomplete_atom_certificate_exit_2(thin_report, capsys, key, value):
    # value None drops the field: a missing bound printed "atoms: 12 <= None"
    rep, doc = thin_report
    doc = {k: v for k, v in doc.items() if k != key}
    if value is not None:
        doc[key] = value
    rep.write_text(json.dumps(doc))
    assert main(["report", str(rep)]) == 2
    assert "atom_count and sauer_bound must be " in capsys.readouterr().err


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


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("key", ["cut_error", "l1_error", "certified_bound",
                                 "edit.changed_cells", "edit.cell_bound"])
def test_report_with_a_non_finite_number_exit_2(workdir, capsys, key, token):
    # json reads these tokens as floats: NaN failed the certificate (exit 1)
    # and an infinite bound passed any report (exit 0)
    doc = {"kind": "thin", "classes": [[0]], "cut_error": 0.1, "l1_error": 0.1,
           "certified_bound": 0.5, "exact": True,
           "edit": {"changed_cells": 2, "cell_bound": 4.0}}
    (workdir / "rep.json").write_text(json.dumps(doc))
    assert main(["report", str(workdir / "rep.json")]) == 0
    outer, _, inner = key.rpartition(".")
    (doc[outer] if outer else doc)[inner] = "TOKEN"
    (workdir / "rep.json").write_text(json.dumps(doc).replace('"TOKEN"', token))
    assert main(["report", str(workdir / "rep.json")]) == 2
    assert f"{outer or inner} must be " in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    {"kind": [1]},
    # a kind outside weak, ultra and thin certifies no known error: "Weak"
    # was checked as an L1 report
    {"kind": "Weak", "cut_error": 0.1, "l1_error": 0.5, "certified_bound": 0.2},
    {"kind": "strong"},
    {"kind": ""},
    {"classes": 3},
    {"edit": 1},
    {"edit": {"changed_cells": "x", "cell_bound": 1}},
    {"kind": "weak", "certified_bound": 1, "cut_error": 0.1, "edit": {}},
    # every field that ``partition`` writes and ``report`` reads is required:
    # no kind read as "weak", and no missing or null number read as no bound
    {},
    {"cut_error": 0.3, "l1_error": 0.1, "certified_bound": 0.25},
    {"kind": "ultra", "classes": [[0]], "exact": True, "certified_bound": 0.3},
    {"kind": "ultra", "classes": [[0]], "exact": True, "cut_error": 0.1,
     "certified_bound": 0.3},
    {"kind": "weak", "classes": [[0]], "exact": True, "cut_error": None, "l1_error": 0.1,
     "certified_bound": 0.3},
    {"kind": "weak", "classes": [[0]], "exact": 1, "cut_error": 0.1, "l1_error": 0.1,
     "certified_bound": 0.3},
])
def test_report_with_a_wrongly_typed_field_exit_2(workdir, capsys, doc):
    (workdir / "rep.json").write_text(json.dumps(doc))
    assert main(["report", str(workdir / "rep.json")]) == 2
    assert " must be " in capsys.readouterr().err


def test_partition_heuristic_flag_is_gone(workdir):
    with pytest.raises(SystemExit) as exc:
        main(["partition", "weak", str(workdir / "half8.graphon"), "--eps-net", "0.05",
              "--heuristic"])
    assert exc.value.code == 2


@pytest.mark.parametrize("args", [
    ["zoo", "random", "--n", "20"],
    ["zoo", "half", "--k", "20"],
    ["zoo", "counterexample", "--seed", "3"],
    ["partition", "weak", "half8.graphon", "--eps-net", "0.05", "--edit"],
    ["partition", "ultra", "half8.graphon", "--eps", "0.3", "--eps-net", "0.1"],
    ["partition", "weak", "half8.graphon", "--eps-net", "0.05", "--pattern", "2matching.bigraph"],
    ["density", "--graphon", "half8.graphon", "--bigraphon", "b.bigraphon", "--pattern", "k3.graph"],
    ["metrics", "half8.graphon", "--packing", "0.5,0.25", "--format", "json"],
    ["metrics", "half8.graphon", "--greedy"],
], ids=["zoo-random-n", "zoo-half-k", "zoo-counterexample-seed", "weak-edit", "ultra-eps-net",
        "weak-pattern", "density-two-hosts", "metrics-packing-format", "metrics-greedy"])
def test_a_flag_the_command_does_not_read_exit_2(workdir, capsys, monkeypatch, args):
    # each names a flag, or a pair of flags, that the command would not read
    monkeypatch.chdir(workdir)
    try:
        code = main([*args, "-o", "out"])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert capsys.readouterr().out == ""
    assert not (workdir / "out").exists()


def test_size_guard_exit_4(workdir):
    fileio.write_graphon(workdir / "big.graphon", gl.zoo.random_stepfunction(26, seed=1))
    fileio.write_graph(workdir / "k9.graph", gl.Graph.complete(9))
    code, _, err = run_cli("density", "--graphon", workdir / "big.graphon",
                           "--pattern", workdir / "k9.graph")
    assert code == 4


def test_contraction_guard_exit_4(workdir):
    # 53 nodes at k = 1 pass the assignments guard, but a graph density is
    # one einsum with a letter per free node, and there are 52 letters
    fileio.write_graph(workdir / "p53.graph", gl.Graph(53, [(0, 1)]))
    code, out, err = run_cli("density", "--constant", "0.5",
                             "--pattern", workdir / "p53.graph")
    assert (code, out) == (4, "")
    assert err == "size guard: pattern too large for tensor contraction\n"


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
