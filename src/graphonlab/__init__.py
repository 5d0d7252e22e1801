"""graphonlab: computing with stepfunction graphons.

Densities, cut and L1 norms, the neighborhood and similarity metrics,
regularity partitions with certified error bounds, and VC/DE-dimension
analysis of 0-1 graphons, plus generators for the standard examples.

``import graphonlab`` loads no submodule. A public name (``gl.cut_norm``,
``gl.StepGraphon``) or submodule (``gl.zoo``) is looked up in its module on
each access (PEP 562), which imports that module the first time, so
``gl.X is gl.<module>.X`` always holds and a program loads only the layers
it uses.
"""

import importlib

__version__ = "0.1.0"

#: the public names each submodule serves through the package
_EXPORTS = {
    "core": ("Bigraph", "Graph", "Partition", "StepBigraphon", "StepGraphon",
             "StepKernel", "aggregate", "as_bigraphon", "bigraphon_from_bigraph",
             "blow_up", "cut_norm", "cut_norm_upper", "difference", "graphon_from_graph",
             "l1_norm", "operator_product", "rectangle_max", "split_step", "square"),
    "densities": ("bigraph_density", "density", "induced_density",
                  "partial_bigraph_density", "partial_density"),
    "errors": ("BasisMismatchError", "CertificationError", "GraphonError",
               "HypothesisError", "InvalidInputError", "SizeLimitError"),
    "metrics": ("MetricView", "average_net", "bigraphon_metrics", "greedy_packing",
                "neighborhood_metric", "packing_number", "packing_dimension_estimate",
                "purify", "similarity_metric", "triangle_violation", "voronoi_partition"),
    "regularity": ("BlowupApprox", "PartitionReport", "edit_blowup_approx", "equalize",
                   "net_from_partition", "partition_cut_error", "szemeredi_error",
                   "thin_ultra_partition", "ultra_strong_partition",
                   "weak_partition_via_net"),
    "setsystems": ("SetFamily", "de_dimension", "is_shattered", "neighborhood_family",
                   "sauer_shelah_bound", "sym_diff_family", "thinness_witness",
                   "transversal_number", "vc_dimension", "witness_bigraph"),
    "fileio": (),
    "zoo": (),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
