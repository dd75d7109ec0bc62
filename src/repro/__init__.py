"""repro — reproduction of *Repartitioning Unstructured Adaptive Meshes*
(Castanos & Savage, IPPS 2000).

The package implements the paper's contribution — **Parallel Nested
Repartitioning (PNR)** — together with every substrate it rests on:

=====================  =====================================================
:mod:`repro.geometry`  simplicial geometry kernel + structured/unstructured
                       mesh generators
:mod:`repro.mesh`      nested adaptive meshes: refinement forests, Rivara
                       longest-edge bisection (2-D/3-D), coarsening, dual
                       graphs, partition metrics
:mod:`repro.fem`       P1 finite elements: assembly, Dirichlet BCs, solves,
                       error estimation, the paper's model problems
:mod:`repro.graph`     CSR weighted graphs, Fiedler vectors, matchings,
                       contraction
:mod:`repro.partition` RSB, Multilevel-KL, space-filling-curve and greedy
                       partitioners, the p-way KL engine, Biswas-Oliker
                       permutation
:mod:`repro.core`      PNR itself: the Equation-1 cost model, the
                       migration-aware multilevel KL, the diffusion
                       baseline, the Section-8 bound model and the
                       Theorem-6.1 projection
:mod:`repro.runtime`   simulated message-passing runtime (mpi4py-flavoured)
                       with traffic accounting
:mod:`repro.pared`     the PARED system: distributed ownership, parallel
                       refinement, symmetric round protocol, migration
:mod:`repro.experiments` drivers and formatters for every table/figure
=====================  =====================================================

Quickstart::

    from repro import AdaptiveMesh, PNR

    amesh = AdaptiveMesh.unit_square(16)
    amesh.refine_where(lambda c: (c[:, 0] > 0) & (c[:, 1] > 0))
    pnr = PNR(alpha=0.1, beta=0.8)
    part = pnr.initial_partition(amesh, p=8)
    amesh.refine_where(lambda c: c[:, 0] < 0)
    part = pnr.repartition(amesh, p=8, current=part)   # moves only a few %
"""

from repro.core.pnr import PNR
from repro.mesh.adapt import AdaptiveMesh
from repro.mesh.dualgraph import coarse_dual_graph, fine_dual_graph

__version__ = "1.0.0"

__all__ = ["PNR", "AdaptiveMesh", "coarse_dual_graph", "fine_dual_graph", "__version__"]
