"""Graph-level partition metrics and validation.

These operate directly on a :class:`~repro.graph.csr.WeightedGraph` and an
assignment array (one subset label per vertex).  Mesh-level metrics (shared
vertices, fine cut of an induced partition) live in
:mod:`repro.mesh.metrics`.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import WeightedGraph


def validate_assignment(graph: WeightedGraph, assignment, p: int) -> np.ndarray:
    """Check shape and label range; returns the assignment as int64."""
    a = np.asarray(assignment, dtype=np.int64)
    if a.shape != (graph.n_vertices,):
        raise ValueError(
            f"assignment must have shape ({graph.n_vertices},), got {a.shape}"
        )
    if a.size and (a.min() < 0 or a.max() >= p):
        raise ValueError("assignment labels out of range")
    return a


def graph_cut(graph: WeightedGraph, assignment) -> float:
    """Total weight of edges crossing subsets (``C_cut`` on the graph)."""
    a = np.asarray(assignment)
    cross = a[graph.edge_src] != a[graph.adjncy]
    # each undirected edge counted twice in CSR
    return float(graph.ewts[cross].sum()) / 2.0


def graph_subset_weights(graph: WeightedGraph, assignment, p: int) -> np.ndarray:
    """Vertex-weight totals per subset."""
    a = np.asarray(assignment)
    return np.bincount(a, weights=graph.vwts, minlength=p)


def graph_imbalance(graph: WeightedGraph, assignment, p: int) -> float:
    """``max_i W_i / (W/p) - 1``."""
    w = graph_subset_weights(graph, assignment, p)
    mean = w.sum() / p
    if mean == 0:
        return 0.0
    return float(w.max() / mean - 1.0)


def graph_migration(graph: WeightedGraph, old_assignment, new_assignment) -> float:
    """``C_migrate``: vertex weight changing subsets between two partitions.
    On the coarse dual graph this equals the number of *leaf mesh elements*
    that PNR migrates (trees move whole)."""
    old = np.asarray(old_assignment)
    new = np.asarray(new_assignment)
    moved = old != new
    return float(graph.vwts[moved].sum())


def balance_cost(graph: WeightedGraph, assignment, p: int) -> float:
    """``C_balance(Π̂) = Σ_i (W_i − W/p)²`` — the quadratic imbalance term of
    Equation 1."""
    w = graph_subset_weights(graph, assignment, p)
    mean = w.sum() / p
    return float(((w - mean) ** 2).sum())


def partition_targets(total_weight: float, p: int, proportions=None) -> np.ndarray:
    """Target subset weights; uniform unless ``proportions`` given (used by
    recursive bisection with odd part counts)."""
    if proportions is None:
        return np.full(p, total_weight / p)
    proportions = np.asarray(proportions, dtype=float)
    return total_weight * proportions / proportions.sum()
