"""Graph partitioners and partition metrics.

The *standard* partitioning algorithms the paper compares against:

* :func:`~repro.partition.spectral.recursive_spectral_bisection` — RSB
  [Pothen/Simon/Liou 1990], Chaco's reference method.
* :func:`~repro.partition.multilevel.multilevel_partition` — Multilevel-KL
  [Hendrickson & Leland 1993], contraction + coarse partition + KL
  projection refinement; :func:`~repro.partition.multilevel.
  multilevel_repartition` is the same V-cycle configured as PNR's
  migration-aware repartitioner (Section 9).

Plus the high-throughput geometric baseline:

* :class:`~repro.partition.sfc.SFCPartitioner` — Morton/Hilbert
  space-filling-curve splitting of element centroids, O(n log n) and
  incrementally re-splittable.

And the pieces they share: the p-way Kernighan–Lin refinement engine
(:mod:`repro.partition.kl`, also the host of PNR's modified gain function),
the propose/resolve/rebalance tournament refinement
(:mod:`repro.partition.distributed` — the ``dkl`` strategy), greedy
graph growing for
coarsest-level partitions, the Biswas–Oliker subset permutation that
minimizes data movement [5], partition metrics with the Equation-1
objective (:func:`~repro.partition.metrics.repartition_cost`), and the
named repartitioner registry (:mod:`repro.partition.registry`:
``pnr``/``mlkl``/``sfc``/``dkl``) — the one door through which
the PARED round engine, crash recovery, ``PNR.repartition`` and the CLI
repartition ``G``.
"""

from repro.partition.metrics import (
    graph_cut,
    graph_subset_weights,
    graph_imbalance,
    graph_migration,
    repartition_cost,
    validate_assignment,
)
from repro.partition.kl import KLConfig, kl_refine
from repro.partition.distributed import (
    DKLConfig,
    PartView,
    dkl_refine_serial,
)
from repro.partition.registry import (
    PARTITIONERS,
    available_partitioners,
    make_repartitioner,
)
from repro.partition.sfc import (
    SFCPartitioner,
    hilbert_keys_from_quantized,
    morton_keys_from_quantized,
    quantize_coords,
    sfc_keys,
    weighted_curve_splits,
)
from repro.partition.spectral import recursive_spectral_bisection, spectral_bisect
from repro.partition.greedy import greedy_graph_growing
from repro.partition.multilevel import multilevel_partition, multilevel_repartition
from repro.partition.permute import minimize_migration_permutation, apply_permutation

__all__ = [
    "graph_cut",
    "graph_subset_weights",
    "graph_imbalance",
    "graph_migration",
    "repartition_cost",
    "validate_assignment",
    "KLConfig",
    "kl_refine",
    "DKLConfig",
    "PartView",
    "dkl_refine_serial",
    "PARTITIONERS",
    "available_partitioners",
    "make_repartitioner",
    "SFCPartitioner",
    "hilbert_keys_from_quantized",
    "morton_keys_from_quantized",
    "quantize_coords",
    "sfc_keys",
    "weighted_curve_splits",
    "recursive_spectral_bisection",
    "spectral_bisect",
    "greedy_graph_growing",
    "multilevel_partition",
    "multilevel_repartition",
    "minimize_migration_permutation",
    "apply_permutation",
]
