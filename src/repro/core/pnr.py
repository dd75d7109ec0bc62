"""PNR — Parallel Nested Repartitioning (Section 5).

PNR never partitions the adapted fine mesh ``M^t`` directly.  It partitions
the *weighted dual graph G of the coarse mesh* ``M^0``, whose vertex weights
(leaves per refinement tree) and edge weights (adjacent leaf pairs across
coarse boundaries) summarize the current refinement state.  Migration then
moves whole refinement trees, so a partition of ``G`` induces a partition of
``M^t`` (and ``C_migrate`` on ``G`` equals the number of fine elements
moved).

The :class:`PNR` driver holds the paper's parameters (α = 0.1, β = 0.8 in
the experiments) — it is the one Equation-1 parameter object, handed whole
to :func:`repro.partition.registry.make_repartitioner` — and offers:

* :meth:`initial_partition` — standard multilevel partition of ``G``
  (phase P3 on the first round, when there is no current assignment);
* :meth:`repartition` — the registry's ``pnr`` strategy (Section 9's
  migration-aware multilevel KL) on ``G`` as rebuilt from the mesh;
* :meth:`induced_fine` — the leaf assignment (trees move whole);
* :meth:`report` — cut/balance/migration metrics of a round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mesh.dualgraph import coarse_dual_graph, leaf_assignment_from_roots
from repro.mesh.metrics import cut_size, shared_vertex_count
from repro.partition.metrics import (
    graph_imbalance,
    graph_migration,
    repartition_cost,
)
from repro.partition.multilevel import multilevel_partition
from repro.partition.registry import make_repartitioner


@dataclass
class PNR:
    """Parallel Nested Repartitioning with the Equation 1 gain.

    Attributes
    ----------
    alpha:
        Migration penalty (paper experiments: 0.1).
    beta:
        Balance penalty (paper experiments: 0.8).
    balance_tol:
        Hard balance envelope for KL moves.
    seed:
        Seed for matching / initial-partition randomness.
    repartition_coarsest, constrain_matching:
        Ablation switches of
        :func:`repro.partition.multilevel.multilevel_repartition`; only the
        ``pnr`` strategy honours them, the others raise.
    """

    alpha: float = 0.1
    beta: float = 0.8
    balance_tol: float = 0.02
    seed: int = 0
    repartition_coarsest: bool = False
    constrain_matching: bool = True

    def initial_partition(self, mesh, p: int) -> np.ndarray:
        """Partition the coarse dual graph of ``mesh`` into ``p`` subsets
        with the standard multilevel algorithm (what every PARED rank
        computes before the simulation starts)."""
        mesh = getattr(mesh, "mesh", mesh)
        graph = coarse_dual_graph(mesh)
        return multilevel_partition(
            graph, p, seed=self.seed, balance_tol=self.balance_tol
        )

    def repartition(self, mesh, p: int, current: np.ndarray) -> np.ndarray:
        """Repartition after adaptation: rebuild ``G``'s weights from the
        forest and run the migration-aware multilevel KL starting from
        ``current`` (the assignment of coarse trees to processors)."""
        mesh = getattr(mesh, "mesh", mesh)
        graph = coarse_dual_graph(mesh)
        return make_repartitioner("pnr", pnr=self).repartition(graph, p, current)

    @staticmethod
    def induced_fine(mesh, coarse_assignment: np.ndarray) -> np.ndarray:
        """Leaf assignment induced by a coarse partition (trees move whole)."""
        mesh = getattr(mesh, "mesh", mesh)
        return leaf_assignment_from_roots(mesh, coarse_assignment)

    def report(self, mesh, p: int, old: np.ndarray, new: np.ndarray) -> dict:
        """Metrics of one repartitioning round, in the units the paper
        reports: fine cut, shared vertices, migrated elements, imbalance."""
        mesh = getattr(mesh, "mesh", mesh)
        graph = coarse_dual_graph(mesh)
        fine_new = leaf_assignment_from_roots(mesh, new)
        cost = repartition_cost(graph, old, new, p, self.alpha, self.beta)
        return {
            "cut_fine": cut_size(mesh, fine_new),
            "shared_vertices": shared_vertex_count(mesh, fine_new),
            "migrated_elements": graph_migration(graph, old, new),
            "imbalance": graph_imbalance(graph, new, p),
            "objective": cost.total,
            "cost": cost,
        }
