import json

import numpy as np
import pytest

import graphonlab as gl
from graphonlab import fileio


def test_float_formatting_round_trip():
    vals = [0.1, 1 / 3, 1e-17, 123456.789, 0.5]
    for v in vals:
        assert float(fileio.format_float(v)) == v


def test_dumps_canonical_shapes():
    text = fileio.dumps_canonical({"a": [1, 2.5], "b": None, "c": True, "d": "x"})
    assert json.loads(text) == {"a": [1, 2.5], "b": None, "c": True, "d": "x"}
    assert fileio.dumps_canonical(np.float64(0.5)) == "0.5"


def test_graphon_round_trip(tmp_path, k2_graphon):
    path = tmp_path / "k2.graphon"
    fileio.write_graphon(path, k2_graphon)
    doc = json.loads(path.read_text())
    assert list(doc) == ["k", "mu", "w"]
    back = fileio.load_graphon(path)
    assert np.array_equal(back.w, k2_graphon.w)
    assert np.array_equal(back.mu, k2_graphon.mu)


def test_graphon_round_trip_random(tmp_path):
    w = gl.zoo.random_stepfunction(7, seed=3)
    path = tmp_path / "r.graphon"
    fileio.write_graphon(path, w)
    back = fileio.load_graphon(path)
    assert np.array_equal(back.w, w.w)  # 17 digits round-trip exactly


def test_bigraphon_round_trip(tmp_path):
    b = gl.zoo.binary_graphon(2, "asym")
    path = tmp_path / "b.bigraphon"
    fileio.write_bigraphon(path, b)
    back = fileio.load_bigraphon(path)
    assert np.array_equal(back.w, b.w)
    assert np.array_equal(back.mu2, b.mu2)


@pytest.mark.parametrize("loader,doc", [
    (fileio.load_graphon, {"k": 2, "mu": [0.5, 0.5], "w": [[0.0, 1.0], [1.0]]}),
    (fileio.load_graphon, {"k": 1, "mu": [1.0], "w": [["0.5"]]}),
    (fileio.load_graphon, {"k": 1, "mu": [None], "w": [[0.5]]}),
    (fileio.load_graphon, {"k": "one", "mu": [1.0], "w": [[0.5]]}),
    (fileio.load_bigraphon, {"mu1": [1.0], "mu2": [[0.5], [0.5, 0.0]], "w": [[0.5, 0.5]]}),
    (fileio.load_bigraphon, {"mu1": [1.0], "mu2": [1.0], "w": [[True]]}),
    (fileio.load_family, {"m": 2, "weights": [0.5, "x"], "sets": [[0], [1]]}),
])
def test_malformed_arrays_are_input_errors(tmp_path, loader, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(gl.InvalidInputError):
        loader(path)


def test_graph_round_trip(tmp_path):
    g = gl.Graph(5, [(0, 1), (2, 4), (1, 3)])
    path = tmp_path / "g.graph"
    fileio.write_graph(path, g)
    assert path.read_text().splitlines()[0] == "5 3"
    back = fileio.load_graph(path)
    assert back.n == g.n and back.edges == g.edges


def test_bigraph_round_trip(tmp_path):
    b = gl.Bigraph(2, 3, [(0, 0), (1, 2)])
    path = tmp_path / "b.bigraph"
    fileio.write_bigraph(path, b)
    back = fileio.load_bigraph(path)
    assert (back.n1, back.n2, back.edges) == (b.n1, b.n2, b.edges)


def test_graph_parse_errors(tmp_path):
    path = tmp_path / "bad.graph"
    path.write_text("3 2\n0 1\n")
    with pytest.raises(gl.InvalidInputError, match="2 edges"):
        fileio.load_graph(path)
    path.write_text("3 1\n0 x\n")
    with pytest.raises(gl.InvalidInputError, match="line 2"):
        fileio.load_graph(path)
    with pytest.raises(gl.InvalidInputError, match="no such file"):
        fileio.load_graph(tmp_path / "missing.graph")


def test_partition_round_trip(tmp_path):
    base = np.array([0.25, 0.25, 0.5])
    p = gl.Partition(base, [0, 1, 0], 2)
    path = tmp_path / "p.json"
    fileio.write_partition(path, p)
    back = fileio.load_partition(path, base)
    assert back.assign == p.assign and back.c == p.c
    path.write_text('{"classes": [[0], [1]]}')
    with pytest.raises(gl.InvalidInputError):
        fileio.load_partition(path, base)


def test_family_round_trip(tmp_path):
    fam = gl.SetFamily(4, [[0, 1], [2], []], np.full(4, 0.25))
    path = tmp_path / "fam.json"
    fileio.write_family(path, fam)
    back = fileio.load_family(path)
    assert back.sets == fam.sets
    assert np.array_equal(back.weights, fam.weights)
    unweighted = gl.SetFamily(3, [[0]])
    fileio.write_family(path, unweighted)
    assert fileio.load_family(path).weights is None


def test_invalid_json_reports_line(tmp_path):
    path = tmp_path / "bad.graphon"
    path.write_text('{"k": 1,\n "mu": [1.0],\n "w": [[0.5]')
    with pytest.raises(gl.InvalidInputError, match="line"):
        fileio.load_graphon(path)


def test_a_json_array_is_an_input_error(tmp_path):
    path = tmp_path / "p.json"
    path.write_text("[[0], [1]]")
    with pytest.raises(gl.InvalidInputError, match="JSON object"):
        fileio.load_partition(path, np.array([0.5, 0.5]))
