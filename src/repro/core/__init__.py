"""The paper's contribution: Parallel Nested Repartitioning (PNR) and the
repartitioning tool-chain around it.

* :mod:`repro.core.pnr` — the PNR driver and the one Equation-1 parameter
  object: partitions/repartitions the weighted coarse dual graph ``G`` and
  induces fine partitions by moving whole refinement trees.  Its
  repartitioner is the ``pnr`` strategy of :mod:`repro.partition.registry`
  — Section 9's migration-aware multilevel KL
  (:func:`repro.partition.multilevel.multilevel_repartition`: contraction
  constrained to the current partition, coarsest assignment *inherited*
  rather than recomputed, KL with the ``C_cut + α·C_migrate + β·C_balance``
  gain); the objective itself is
  :func:`repro.partition.metrics.repartition_cost`.  Imports run one way:
  ``core`` → ``partition``.
* :mod:`repro.core.diffusion` — Hu–Blake diffusion baseline [8] (the
  technique behind Walshaw et al. [6] and Schloegel et al. [7]); the
  partition-from-scratch + Biswas–Oliker remap baseline [5] is the
  ``mlkl`` entry of :mod:`repro.partition.registry`.
* :mod:`repro.core.bounds` — the Section 8 migration lower-bound model on
  the processor graph ``H^t``.
* :mod:`repro.core.projection` — the constructive argument of Theorem 6.1:
  projecting a fine partition onto coarse-element boundaries.
"""

from repro.core.pnr import PNR
from repro.core.diffusion import hu_blake_flow, diffusion_repartition
from repro.core.bounds import migration_lower_bound, mesh_migration_bound
from repro.core.projection import project_to_coarse, projection_report

__all__ = [
    "PNR",
    "hu_blake_flow",
    "diffusion_repartition",
    "migration_lower_bound",
    "mesh_migration_bound",
    "project_to_coarse",
    "projection_report",
]
