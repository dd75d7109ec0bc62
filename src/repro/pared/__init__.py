"""PARED: the parallel adaptive PDE system of Section 2, simulated over
:mod:`repro.runtime`.

Each rank holds a replica of the nested mesh plus a shared ownership map
(coarse root -> rank); ranks act only on owned refinement trees and
communicate in the phases of Figure 2:

* **P0** — parallel adaptation: marked owned leaves are refined; the
  elements the refinement's first wave walks from them (longest-edge paths
  in 2-D, edge stars in 3-D) that other ranks own become refine
  *requests* to those ranks; the union of targets is applied
  deterministically on every replica, which provably matches the serial
  refinement (tested).
* **P1** — each rank recomputes vertex/edge weights of the coarse dual
  graph ``G`` for its owned roots.
* **P2** — changed weights travel to every peer.
* **P3** — every rank updates its copy of ``G``, repartitions it (PNR by
  default) and executes the tree migrations.  The strategy is seeded and
  deterministic, so every rank takes the same decision: there is no
  coordinator, and no message carries a decision.

There is one round engine (:mod:`repro.pared.system`): :func:`run_pared`
marks from a user marker, :func:`run_workflow` from a distributed solve and
an a-posteriori estimate, and P1–P3 follow one weight protocol
(:mod:`repro.pared.protocols` — the delta exchange above) whatever the
strategy.  All traffic is counted per phase by the runtime's
:class:`~repro.runtime.stats.TrafficStats`.
"""

from repro.pared.distmesh import DistributedMesh
from repro.pared.migrate import (
    migration_directives,
    execute_migration,
    plan_recovery_assignment,
)
from repro.pared.solver import DistributedPoissonSolver
from repro.pared.system import ParedConfig, run_pared
from repro.pared.workflow import WorkflowConfig, run_workflow

__all__ = [
    "DistributedMesh",
    "migration_directives",
    "execute_migration",
    "plan_recovery_assignment",
    "DistributedPoissonSolver",
    "ParedConfig",
    "run_pared",
    "WorkflowConfig",
    "run_workflow",
]
