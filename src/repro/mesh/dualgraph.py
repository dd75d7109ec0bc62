"""Dual graphs of nested meshes (Section 5 of the paper).

The **fine dual graph** has one vertex per leaf element of ``M^t`` and an
edge between leaves sharing an edge (2-D) or face (3-D).

The **coarse dual graph** ``G`` — PNR's partitioning substrate — has one
vertex ``w_a`` per coarse element ``Ω_a`` of ``M^0``; the weight of ``w_a``
is the number of active leaves of its refinement tree ``τ_a``, and the
weight of edge ``(w_a, w_b)`` is the number of *adjacent leaf pairs* whose
trees are ``τ_a`` and ``τ_b``.

``G``'s *structure* is ``M^0``'s and never changes: two trees hold adjacent
leaves exactly when their roots share a facet, because conformal refinement
and coarsening tile a shared coarse facet from both sides and never join
trees whose roots do not touch.  So the CSR skeleton is derived once per
mesh (:meth:`~repro.mesh.base.SimplexMesh.coarse_skeleton`, read off the
roots' ``_nbr`` rows at construction) and
:func:`coarse_dual_graph` — phase P1 of Fig. 2 — is a *recount*: every
cross-tree leaf adjacency is classified to its skeleton slot and counted,
O(leaves), and successive graphs share the skeleton arrays.  A leaf
adjacency the skeleton has no slot for, or a slot no leaf pair fills, means
the mesh is no longer a conformal refinement of ``M^0``; both raise.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import WeightedGraph
from repro.mesh import _meshnative
from repro.perf import PERF


def _compute_leaf_adjacency_pairs(mesh) -> np.ndarray:
    """The sort-based leaf adjacency: the brute-force oracle of
    :meth:`~repro.mesh.base.SimplexMesh.check_adjacency` (the mesh reads
    its pairs off ``_nbr``)."""
    return _facet_adjacency_pairs(mesh.leaf_cells(), mesh.n_verts)


def _facet_adjacency_pairs(cells: np.ndarray, n_verts: int) -> np.ndarray:
    """``(k, 2)`` row-index pairs of the ``cells`` sharing a facet.

    Facets are folded into scalar sort keys (base ``n_verts`` positional
    encoding of the sorted vertex tuple) when they fit an int64 — a single
    scalar argsort instead of a multi-key lexsort; the stable sort keeps
    the pair orientation identical to the historical lexsort path, which
    remains as the (overflow-safe) fallback."""
    nl = cells.shape[0]
    if nl == 0:
        return np.empty((0, 2), dtype=np.int64)
    if cells.shape[1] == 3:
        facets = np.concatenate(
            [cells[:, [1, 2]], cells[:, [2, 0]], cells[:, [0, 1]]], axis=0
        )
        owner = np.tile(np.arange(nl, dtype=np.int64), 3)
    else:
        facets = np.concatenate(
            [
                cells[:, [1, 2, 3]],
                cells[:, [0, 2, 3]],
                cells[:, [0, 1, 3]],
                cells[:, [0, 1, 2]],
            ],
            axis=0,
        )
        owner = np.tile(np.arange(nl, dtype=np.int64), 4)
    facets = np.sort(facets, axis=1)
    nv = n_verts
    width = facets.shape[1]
    if nv ** width < 2 ** 62:
        keys = facets[:, 0]
        for col in range(1, width):
            keys = keys * nv + facets[:, col]
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        owner = owner[order]
        same = keys[1:] == keys[:-1]
    else:  # ids too large to pack: multi-key lexsort
        order = np.lexsort(facets.T[::-1])
        facets = facets[order]
        owner = owner[order]
        same = np.all(facets[1:] == facets[:-1], axis=1)
    left = owner[:-1][same]
    right = owner[1:][same]
    return np.column_stack([left, right])


def fine_dual_graph(mesh) -> tuple:
    """Dual graph of the current leaf mesh ``M^t``.

    Returns ``(graph, leaf_ids)``: unit vertex and edge weights; vertex ``i``
    of the graph is the leaf ``leaf_ids[i]``.
    """
    leaf_ids = mesh.leaf_ids()
    pairs = mesh.leaf_adjacency_pairs()
    graph = WeightedGraph.from_edges(
        leaf_ids.shape[0], pairs, np.ones(pairs.shape[0]), np.ones(leaf_ids.shape[0])
    )
    return graph, leaf_ids


def coarse_dual_graph(mesh, roots=None) -> WeightedGraph:
    """The weighted dual graph ``G`` of ``M^0`` (Section 5): vertex ``a``
    weighs ``#leaves(τ_a)``; edge ``(a, b)`` weighs the number of adjacent
    leaf pairs across the coarse boundary.  Recounted on
    :meth:`~repro.mesh.base.SimplexMesh.coarse_skeleton` in one compiled
    pass over the leaves' ``_nbr`` rows; raises ``ValueError`` when the
    leaf adjacency does not fit it.  Given ``roots``, only their vertex
    weights and the slots of their rows are counted, over their own trees'
    leaves alone, and every other weight is 0: a processor's P1 "local
    weights" (Fig. 2), the rows its weight report is read from."""
    with PERF.span("mesh.dual_graph"):
        vwts, ewts = _meshnative.weigh(mesh, roots)
        return mesh.coarse_skeleton().with_weights(ewts, vwts)


def coarse_root_centroids(mesh) -> np.ndarray:
    """``(n_roots, dim)`` centroids of the coarse elements of ``M^0`` —
    the geometric substrate of the SFC partitioner.  Roots are elements
    ``0..n_roots-1`` of the forest and never move, so this is constant for
    the lifetime of a mesh."""
    return mesh.verts[mesh.cells[: mesh.n_roots]].mean(axis=1)


def leaf_assignment_from_roots(mesh, coarse_assignment: np.ndarray) -> np.ndarray:
    """Induce a fine partition of ``M^t`` from a partition of the coarse dual
    graph: each leaf goes where its refinement tree's root goes (PNR migrates
    whole trees)."""
    coarse_assignment = np.asarray(coarse_assignment)
    if coarse_assignment.shape[0] != mesh.n_roots:
        raise ValueError("coarse assignment must cover every root")
    return coarse_assignment[mesh.leaf_roots()]
