"""Graph-level partition metrics, validation and the Equation-1 objective.

These operate directly on a :class:`~repro.graph.csr.WeightedGraph` and an
assignment array (one subset label per vertex).  Mesh-level metrics (shared
vertices, fine cut of an induced partition) live in
:mod:`repro.mesh.metrics`.

The repartitioning objective of Equation 1 is evaluated whole here:

``C_repartition(Π^t, Π̂^t, α, β) = C_cut(Π̂) + α·C_migrate(Π, Π̂) + β·C_balance(Π̂)``

with ``C_balance(Π̂) = Σ_i (weight(π̂_i) − weight(Π̂)/p)²``.  The KL gain in
:mod:`repro.partition.kl` is the negated first difference of this function
under a single vertex move; :func:`repartition_cost` is the one whole
evaluation — the V-cycle's identity guard, the monotone-or-rollback
invariant of :mod:`repro.testing` and the round reports all read it.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def imbalance(weights: np.ndarray) -> float:
    """``max_i W_i / mean(W) - 1``: relative overload of the heaviest subset
    (0 when there is no weight at all)."""
    mean = weights.sum() / len(weights)
    return float(weights.max() / mean - 1.0) if mean else 0.0


def graph_imbalance(graph: WeightedGraph, assignment, p: int) -> float:
    """:func:`imbalance` of the subset weights of ``assignment``."""
    return imbalance(graph_subset_weights(graph, assignment, p))


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


@dataclass(frozen=True)
class RepartitionCost:
    """Breakdown of the Equation 1 objective."""

    cut: float
    migrate: float
    balance: float
    alpha: float
    beta: float

    @property
    def total(self) -> float:
        return self.cut + self.alpha * self.migrate + self.beta * self.balance


def repartition_cost(
    graph: WeightedGraph,
    old_assignment,
    new_assignment,
    p: int,
    alpha: float = 0.1,
    beta: float = 0.8,
) -> RepartitionCost:
    """Evaluate Equation 1 for a proposed repartition.

    ``old_assignment`` is the current (possibly unbalanced) partition Π^t;
    ``new_assignment`` the proposed Π̂^t.  On the coarse dual graph,
    ``migrate`` counts leaf elements (vertex weights), matching the paper's
    ``C_migrate``.
    """
    return RepartitionCost(
        cut=graph_cut(graph, new_assignment),
        migrate=graph_migration(graph, old_assignment, new_assignment),
        balance=balance_cost(graph, new_assignment, p),
        alpha=alpha,
        beta=beta,
    )
