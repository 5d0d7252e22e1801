"""The package surface, and the modules each CLI command loads.

``import graphonlab`` loads no submodule; each public name resolves from
its module on access, and each command imports only the layers it calls,
so ``graphonlab report`` runs without numpy.
"""

import json
import subprocess
import sys
import types

import pytest

import graphonlab as gl
from graphonlab import fileio

#: every public name the package served when ``__init__`` imported each
#: module eagerly, by defining module
PUBLIC_NAMES = {
    "core": ["Bigraph", "Graph", "Partition", "StepBigraphon", "StepGraphon", "StepKernel",
             "aggregate", "as_bigraphon", "bigraphon_from_bigraph", "blow_up", "cut_norm",
             "cut_norm_upper", "difference", "graphon_from_graph", "l1_norm",
             "operator_product", "rectangle_max", "split_step", "square"],
    "densities": ["bigraph_density", "density", "induced_density", "partial_bigraph_density",
                  "partial_density"],
    "errors": ["BasisMismatchError", "CertificationError", "GraphonError", "HypothesisError",
               "InvalidInputError", "SizeLimitError"],
    "metrics": ["MetricView", "average_net", "bigraphon_metrics", "greedy_packing",
                "neighborhood_metric", "packing_number", "packing_dimension_estimate", "purify",
                "similarity_metric", "triangle_violation", "voronoi_partition"],
    "regularity": ["BlowupApprox", "PartitionReport", "edit_blowup_approx", "equalize",
                   "net_from_partition", "partition_cut_error", "szemeredi_error",
                   "thin_ultra_partition", "ultra_strong_partition", "weak_partition_via_net"],
    "setsystems": ["SetFamily", "de_dimension", "is_shattered", "neighborhood_family",
                   "sauer_shelah_bound", "sym_diff_family", "thinness_witness",
                   "transversal_number", "vc_dimension", "witness_bigraph"],
}

MODULES = ["core", "densities", "errors", "fileio", "metrics", "regularity", "setsystems", "zoo"]

NAMES = [(module, name) for module, names in PUBLIC_NAMES.items() for name in names]


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_every_public_name_resolves_to_its_module_object(module, name):
    obj = getattr(gl, name)
    assert obj is getattr(sys.modules[f"graphonlab.{module}"], name)
    assert obj.__module__ == f"graphonlab.{module}"
    assert name in gl.__all__ and name in dir(gl)


def test_submodules_resolve_to_the_modules():
    for module in MODULES:
        assert isinstance(getattr(gl, module), types.ModuleType)
        assert getattr(gl, module) is sys.modules[f"graphonlab.{module}"]
        assert module in gl.__all__ and module in dir(gl)
    assert gl.fileio is fileio
    assert gl.__version__ == "0.1.0"


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from graphonlab import *", namespace)
    for module, name in NAMES:
        assert namespace[name] is getattr(sys.modules[f"graphonlab.{module}"], name)
    for module in MODULES:
        assert namespace[module] is sys.modules[f"graphonlab.{module}"]


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gl.no_such_name
    assert not hasattr(gl, "_row_l1_matrix")
    assert not hasattr(gl, "within_bound")


def test_a_patched_module_attribute_is_what_the_package_serves(monkeypatch):
    # the benchmark's tracer rebinds module attributes; the package keeps
    # no copy that could go stale
    def traced(r, mode="exact"):
        return 0.0

    monkeypatch.setattr(gl.core, "cut_norm", traced)
    assert gl.cut_norm is traced
    monkeypatch.undo()
    assert gl.cut_norm is gl.core.cut_norm is not traced


# -- modules loaded per command ----------------------------------------------

_PROBE = """
import contextlib, io, json, sys
from graphonlab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules,
                  "modules": sorted(m.split(".", 1)[1] for m in sys.modules
                                    if m.startswith("graphonlab."))}))
"""


def loaded(cwd, *argv):
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], cwd=cwd,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    fileio.write_graphon(d / "host.graphon", gl.zoo.half_graphon(8))
    fileio.write_graph(d / "k3.graph", gl.Graph.complete(3))
    fileio.write_text(d / "rep.json", fileio.dumps_canonical(
        {"kind": "weak", **gl.weak_partition_via_net(gl.zoo.half_graphon(8), 0.05).to_dict()}))
    return d


@pytest.mark.parametrize("argv, modules, numpy", [
    (["report", "rep.json"], {"cli", "errors", "fileio"}, False),
    (["zoo", "half", "--n", "5", "-o", "x.graphon"],
     {"cli", "core", "errors", "fileio", "metrics", "zoo"}, True),
    (["density", "--graphon", "host.graphon", "--pattern", "k3.graph"],
     {"cli", "core", "densities", "errors", "fileio"}, True),
    (["thinness", "host.graphon"],
     {"cli", "core", "densities", "errors", "fileio", "setsystems"}, True),
    (["partition", "ultra", "host.graphon", "--eps", "0.3"],
     {"cli", "core", "densities", "errors", "fileio", "metrics", "regularity", "setsystems"},
     True),
], ids=["report", "zoo", "density", "thinness", "partition"])
def test_each_command_loads_only_the_modules_it_runs(cli_dir, argv, modules, numpy):
    result = loaded(cli_dir, *argv)
    assert result == {"code": 0, "numpy": numpy, "modules": sorted(modules)}


def test_importing_the_package_loads_no_submodule():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, graphonlab; print(sorted(m for m in sys.modules "
                               "if m.startswith('graphonlab') or m == 'numpy'))"],
        capture_output=True, text=True)
    assert proc.stdout == "['graphonlab']\n", proc.stderr
