"""graphonlab: computing with stepfunction graphons.

Densities, cut and L1 norms, the neighborhood and similarity metrics,
regularity partitions with certified error bounds, and VC/DE-dimension
analysis of 0-1 graphons, plus generators for the standard examples.
"""

from .core import (Bigraph, Graph, Partition, StepBigraphon, StepGraphon,
                   StepKernel, aggregate, as_bigraphon, bigraphon_from_bigraph,
                   blow_up, cut_norm, difference, graphon_from_graph, l1_norm,
                   operator_product, rectangle_max, split_step, square)
from .densities import (bigraph_density, density, induced_density,
                        partial_bigraph_density, partial_density)
from .errors import (BasisMismatchError, CertificationError, GraphonError,
                     HypothesisError, InvalidInputError, SizeLimitError)
from .metrics import (MetricView, average_net, bigraphon_metrics, greedy_packing,
                      neighborhood_metric, packing_number,
                      packing_dimension_estimate, purify, similarity_metric,
                      triangle_violation, voronoi_partition)
from .regularity import (BlowupApprox, PartitionReport, edit_blowup_approx,
                         equalize, net_from_partition, partition_cut_error,
                         szemeredi_error, thin_ultra_partition,
                         ultra_strong_partition, weak_partition_via_net)
from .setsystems import (SetFamily, de_dimension, is_shattered,
                         neighborhood_family, sauer_shelah_bound, sym_diff_family,
                         thinness_witness, transversal_number, vc_dimension,
                         witness_bigraph)
from . import fileio, zoo

__version__ = "0.1.0"
