"""Multilevel-KL graph partitioning [Hendrickson & Leland 1993;
Karypis & Kumar 1995] — the "standard" partitioner of the paper.

Three phases (Section 3.1):

1. **Contraction** — a series ``G_0, G_1, …, G_k`` built by collapsing
   heavy-edge matchings until the graph is small (or stops shrinking).
2. **Coarsest partition** — greedy graph growing (default) or recursive
   spectral bisection on ``G_k``, followed by KL.
3. **Projection & improvement** — walk back up, projecting the assignment
   through each contraction map and polishing with p-way KL.

PNR's repartitioning variant reuses these phases with two modifications
(Section 9) implemented in :mod:`repro.core.repartition_kl`: contraction is
constrained to the current partition, the coarsest graph *keeps* its
inherited assignment, and KL runs with the migration-aware gain.
"""

from __future__ import annotations

import numpy as np

from repro.graph.contract import contract
from repro.graph.csr import WeightedGraph
from repro.graph.matching import heavy_edge_matching, random_matching
from repro.partition.greedy import greedy_graph_growing
from repro.partition.kl import KLConfig, kl_refine
from repro.partition.spectral import recursive_spectral_bisection
from repro.perf import PERF


def build_hierarchy(
    graph: WeightedGraph,
    coarsen_to: int,
    seed: int = 0,
    constraint=None,
    matching: str = "heavy",
    min_shrink: float = 0.95,
    max_levels: int = 40,
):
    """Contraction phase: returns ``(graphs, cmaps)`` with ``graphs[0]`` the
    input and ``cmaps[j]`` mapping ``graphs[j]`` vertices to ``graphs[j+1]``.

    ``constraint`` (an assignment on ``graphs[0]``) restricts matching to
    same-subset pairs at every level; the constraint is projected down the
    hierarchy automatically.
    """
    match_fn = heavy_edge_matching if matching == "heavy" else random_matching
    graphs = [graph]
    cmaps = []
    cur_constraint = None if constraint is None else np.asarray(constraint)
    level = 0
    with PERF.span("multilevel.coarsen"):
        while graphs[-1].n_vertices > coarsen_to and level < max_levels:
            g = graphs[-1]
            m = match_fn(g, seed=seed + level, constraint=cur_constraint)
            # every matched pair removes one vertex: decide before contracting
            n = g.n_vertices
            n_coarse = n - np.count_nonzero(m != np.arange(n)) // 2
            if n_coarse >= n * min_shrink:
                break  # contraction stalled (e.g. star graphs, tiny subsets)
            coarse, cmap = contract(g, m)
            graphs.append(coarse)
            cmaps.append(cmap)
            if cur_constraint is not None:
                nxt = np.empty(coarse.n_vertices, dtype=cur_constraint.dtype)
                nxt[cmap] = cur_constraint
                cur_constraint = nxt
            level += 1
    return graphs, cmaps


def project_up(coarse_assignment: np.ndarray, cmap: np.ndarray) -> np.ndarray:
    """Expand a coarse assignment to the finer level through ``cmap``."""
    return np.asarray(coarse_assignment)[cmap]


def multilevel_partition(
    graph: WeightedGraph,
    p: int,
    seed: int = 0,
    coarsen_to: int = None,
    initial: str = "greedy",
    balance_tol: float = 0.03,
    kl_passes: int = 6,
) -> np.ndarray:
    """Partition ``graph`` into ``p`` subsets with the multilevel-KL scheme.

    Parameters
    ----------
    initial:
        Coarsest-graph partitioner: ``"greedy"`` (graph growing) or
        ``"spectral"`` (RSB on the coarsest graph).
    coarsen_to:
        Stop contracting below this many vertices (default ``max(100, 4p)``).
    """
    if coarsen_to is None:
        coarsen_to = max(100, 4 * p)
    graphs, cmaps = build_hierarchy(graph, coarsen_to, seed=seed)
    coarsest = graphs[-1]
    if initial == "spectral":
        assignment = recursive_spectral_bisection(coarsest, p, seed=seed)
    else:
        assignment = greedy_graph_growing(coarsest, p, seed=seed)
    # Two alternating refinement modes per level, Metis-style: a balancing
    # sweep with a dominant quadratic term (the paper's β = 0.8 makes
    # balance gains dwarf cut gains, which is how ε < 0.01 is reached even
    # with heavy vertices), then a pure cut sweep under the hard envelope.
    rebalance_cfg = KLConfig(balance_tol=balance_tol, max_passes=3, beta=0.8, window=16)
    cut_cfg = KLConfig(balance_tol=balance_tol, max_passes=kl_passes, beta=0.0)
    with PERF.span("multilevel.refine"):
        assignment = _refine_level(
            coarsest, assignment, p, rebalance_cfg, cut_cfg, balance_tol
        )
        for level in range(len(cmaps) - 1, -1, -1):
            assignment = project_up(assignment, cmaps[level])
            assignment = _refine_level(
                graphs[level], assignment, p, rebalance_cfg, cut_cfg, balance_tol
            )
    return assignment


def _refine_level(graph, assignment, p, rebalance_cfg, cut_cfg, balance_tol):
    """Rebalance if outside the envelope, then improve the cut."""
    from repro.partition.metrics import graph_imbalance

    if graph_imbalance(graph, assignment, p) > balance_tol:
        assignment = kl_refine(graph, assignment, p, config=rebalance_cfg)
    return kl_refine(graph, assignment, p, config=cut_cfg)
