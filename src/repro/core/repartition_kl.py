"""Migration-aware multilevel repartitioning (Section 9).

The standard multilevel scheme is modified in two ways:

(a) the coarsest graph ``G_k`` is **not** partitioned from scratch — it
    inherits the current assignment through the contraction maps (matching
    is constrained to same-subset pairs so the inherited assignment is
    well defined);
(b) the KL refinement on the way back up uses the gain of Equation 1
    (``C_cut + α·C_migrate + β·C_balance``), with the *home* assignment —
    the pre-repartition Π^t — projected through the hierarchy.

Both modifications are individually switchable for the design ablations
(A2 in DESIGN.md): ``repartition_coarsest=True`` turns the scheme into a
scratch-remap-like method; ``constrain_matching=False`` lets contraction
mix subsets (the inherited coarse assignment is then taken from the
heavier constituent).
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import WeightedGraph
from repro.partition.greedy import greedy_graph_growing
from repro.partition.kl import KLConfig, kl_refine
from repro.partition.metrics import (
    balance_cost,
    graph_cut,
    graph_migration,
    validate_assignment,
)
from repro.partition.multilevel import build_hierarchy, project_up
from repro.perf import PERF


def _equation1(graph, home, assignment, p, alpha, beta) -> float:
    """The literal Equation-1 objective (quadratic balance), evaluated on
    the fine graph — the yardstick of the identity guard below."""
    return (
        graph_cut(graph, assignment)
        + alpha * graph_migration(graph, home, assignment)
        + beta * balance_cost(graph, assignment, p)
    )


def _project_down(assignment: np.ndarray, cmap: np.ndarray, vwts: np.ndarray, nc: int):
    """Coarse assignment induced by a fine one: the coarse vertex takes the
    subset of its heaviest constituent (exact when matching was constrained
    to same-subset pairs, a tie-broken majority vote otherwise).

    A coarse vertex has at most two constituents (contraction collapses a
    matching), so a stable sort by coarse id exposes each pair as a segment
    ``[f1, f2]`` with ``f1`` the lower-indexed fine vertex — ties go to
    ``f1``, matching the old sequential scan exactly."""
    order = np.argsort(cmap, kind="stable")
    cs = cmap[order]
    ids = np.arange(nc)
    f1 = order[np.searchsorted(cs, ids, side="left")]
    f2 = order[np.searchsorted(cs, ids, side="right") - 1]
    s1 = assignment[f1]
    s2 = assignment[f2]
    out = np.where((s2 != s1) & (vwts[f2] > vwts[f1]), s2, s1)
    return out.astype(np.int64)


def multilevel_repartition(
    graph: WeightedGraph,
    p: int,
    current,
    alpha: float = 0.1,
    beta: float = 0.8,
    seed: int = 0,
    coarsen_to: int = None,
    balance_tol: float = 0.02,
    kl_passes: int = 8,
    repartition_coarsest: bool = False,
    constrain_matching: bool = True,
) -> np.ndarray:
    """Repartition ``graph`` starting from ``current`` with PNR's multilevel
    KL.  Returns the new assignment Π̂^t.

    Parameters mirror Equation 1: ``alpha`` penalizes migration from
    ``current`` (the home partition), ``beta`` the quadratic imbalance.
    """
    current = validate_assignment(graph, current, p)
    if coarsen_to is None:
        coarsen_to = max(100, 4 * p)
    constraint = current if constrain_matching else None
    graphs, cmaps = build_hierarchy(
        graph, coarsen_to, seed=seed, constraint=constraint
    )

    # Project the current (home) assignment down the hierarchy.
    homes = [current]
    for level, cmap in enumerate(cmaps):
        fine_home = homes[-1]
        g_fine = graphs[level]
        nc = graphs[level + 1].n_vertices
        if constrain_matching:
            coarse_home = np.empty(nc, dtype=np.int64)
            coarse_home[cmap] = fine_home  # all constituents agree
        else:
            coarse_home = _project_down(fine_home, cmap, g_fine.vwts, nc)
        homes.append(coarse_home)

    coarsest = graphs[-1]
    if repartition_coarsest:
        assignment = greedy_graph_growing(coarsest, p, seed=seed)
    else:
        assignment = homes[-1].copy()

    cfg = KLConfig(
        alpha=alpha,
        beta=beta,
        balance_tol=balance_tol,
        max_passes=kl_passes,
        window=16,
        balance_mode="deadband",
    )
    with PERF.span("multilevel.refine"):
        assignment = kl_refine(coarsest, assignment, p, home=homes[-1], config=cfg)
        for level in range(len(cmaps) - 1, -1, -1):
            assignment = project_up(assignment, cmaps[level])
            assignment = kl_refine(
                graphs[level], assignment, p, home=homes[level], config=cfg
            )
    # Monotone-or-rollback: the repartitioner hill-climbs from ``current``,
    # so identity is always a candidate.  KL optimizes the deadband form of
    # the balance term; under the literal quadratic Equation 1 an in-band
    # rebalance can still score worse than doing nothing, in which case
    # doing nothing is what we return.
    if _equation1(graph, current, assignment, p, alpha, beta) > _equation1(
        graph, current, current, p, alpha, beta
    ) + 1e-9:
        return current.copy()
    return assignment
