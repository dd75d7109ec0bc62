"""Partition-quality metrics on meshes (Sections 3, 6–8).

All metrics take a *leaf assignment*: an integer array, aligned with
``mesh.leaf_ids()``, giving the processor of each leaf element of ``M^t``.

* ``shared_vertex_count`` — the paper's partition-quality measure in
  Figures 3 and 7: mesh vertices adjacent to elements in different subsets.
* ``cut_size`` — cut edges of the fine dual graph (edge/face adjacencies
  crossing subsets), the classic ``C_cut``.
* ``processor_graph`` — the processor-connectivity graph ``H^t`` of
  Section 8 (its hop distances feed :mod:`repro.core.bounds`).

The cut and the shared vertices are each one compiled pass over the
leaves' ``_nbr`` rows or cells (:func:`repro.mesh._meshnative.cut_count`,
:func:`~repro.mesh._meshnative.shared_count`); no leaf-pair list is built.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.mesh import _meshnative
from repro.partition import metrics as partition_metrics


def subset_weights(assignment: np.ndarray, p: int, weights=None) -> np.ndarray:
    """Total leaf count (or ``weights``) per processor."""
    assignment = np.asarray(assignment)
    if weights is None:
        weights = np.ones(assignment.shape[0])
    return np.bincount(assignment, weights=weights, minlength=p)


def imbalance(assignment: np.ndarray, p: int, weights=None) -> float:
    """``max_i W_i / (W/p) - 1`` — the ε of the balance constraint."""
    return partition_metrics.imbalance(subset_weights(assignment, p, weights))


def cut_size(mesh, assignment: np.ndarray) -> int:
    """Number of fine dual-graph edges crossing subsets (``C_cut``)."""
    return _meshnative.cut_count(mesh, assignment)


def shared_vertex_count(mesh, assignment: np.ndarray) -> int:
    """Vertices of the leaf mesh incident to elements of ≥ 2 subsets — the
    quality metric the paper reports (communication volume on a mesh
    partitioned by elements)."""
    return _meshnative.shared_count(mesh, assignment)


def processor_graph(mesh, assignment: np.ndarray, p: int) -> sp.csr_matrix:
    """The processor-connectivity graph ``H^t`` (Section 8): one vertex per
    processor, an edge between processors owning adjacent leaf elements.
    Returned as a sparse boolean adjacency matrix."""
    pairs = mesh.leaf_adjacency_pairs()
    assignment = np.asarray(assignment)
    a = assignment[pairs[:, 0]]
    b = assignment[pairs[:, 1]]
    cross = a != b
    rows = np.concatenate([a[cross], b[cross]])
    cols = np.concatenate([b[cross], a[cross]])
    data = np.ones(rows.shape[0], dtype=bool)
    mat = sp.csr_matrix((data, (rows, cols)), shape=(p, p))
    mat.sum_duplicates()
    mat.data[:] = True
    return mat
