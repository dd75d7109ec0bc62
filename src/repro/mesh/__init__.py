"""Adaptive nested-mesh substrate (the PARED mesh database).

This package implements the hierarchical data structure of nested meshes
described in Section 2 of the paper:

* :class:`~repro.mesh.forest.RefinementForest` — one refinement-history tree
  per initial (level-0) element; leaves of the forest form the current most
  refined mesh ``M^t``.
* :class:`~repro.mesh.mesh2d.TriMesh` / :class:`~repro.mesh.mesh3d.TetMesh` —
  simplicial meshes with incremental facet adjacency, supporting Rivara
  longest-edge bisection (2D [Rivara 1989] and 3D [Rivara 1992]) with
  conformality propagation, and nested coarsening (children replaced by their
  parent).
* :class:`~repro.mesh.adapt.AdaptiveMesh` — the user-facing facade combining
  a mesh, marking, refinement and coarsening.
* :mod:`~repro.mesh.dualgraph` — the weighted dual graph ``G`` of the coarse
  mesh (PNR's partitioning substrate) and the fine dual graph of ``M^t``.
* :mod:`~repro.mesh.metrics` — cut size, shared vertices, balance and the
  processor-connectivity graph ``H^t``.
"""

from repro.mesh.forest import RefinementForest, LEAF, INTERIOR, INACTIVE
from repro.mesh.mesh2d import TriMesh
from repro.mesh.mesh3d import TetMesh
from repro.mesh.adapt import AdaptiveMesh
from repro.mesh.dualgraph import (
    coarse_dual_graph,
    coarse_root_centroids,
    fine_dual_graph,
    leaf_assignment_from_roots,
)
from repro.mesh.metrics import (
    shared_vertex_count,
    cut_size,
    subset_weights,
    imbalance,
    processor_graph,
)

__all__ = [
    "RefinementForest",
    "LEAF",
    "INTERIOR",
    "INACTIVE",
    "TriMesh",
    "TetMesh",
    "AdaptiveMesh",
    "coarse_dual_graph",
    "coarse_root_centroids",
    "fine_dual_graph",
    "leaf_assignment_from_roots",
    "shared_vertex_count",
    "cut_size",
    "subset_weights",
    "imbalance",
    "processor_graph",
]
