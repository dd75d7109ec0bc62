"""Multilevel-KL graph partitioning [Hendrickson & Leland 1993;
Karypis & Kumar 1995] — the "standard" partitioner of the paper — and the
repartitioning variant PNR runs on the coarse dual graph ``G``.

Three phases (Section 3.1), written once:

1. **Contraction** — :func:`build_hierarchy`: a series ``G_0, G_1, …, G_k``
   built by collapsing heavy-edge matchings until the graph is small (or
   stops shrinking), returned as a :class:`Hierarchy` value.
2. **Coarsest assignment** — a rule the caller supplies.
3. **Projection & improvement** — :func:`v_cycle`: walk back up,
   projecting the assignment through each contraction map and applying the
   caller's per-level refine step.

With the compiled core loaded, phases 1 and 3 are one call each
(``_klnative.coarsen`` / ``_klnative.refine``) and only phase 2 runs in
Python between them; :func:`build_hierarchy` + :func:`v_cycle` are their
reference and the path without the core, bit for bit the same partition.

Two configurations of that one driver:

* :func:`multilevel_partition` — partition from scratch: free contraction,
  greedy graph growing on ``G_k``, and per level a rebalancing sweep
  followed by a pure cut sweep.
* :func:`multilevel_repartition` — Section 9's migration-aware variant,
  *the standard scheme with two modifications*: (a) ``G_k`` is **not**
  partitioned from scratch — it inherits the current assignment through
  the contraction maps (matching is constrained to same-subset pairs so the
  inherited assignment is well defined); (b) the KL refinement on the way
  back up uses the gain of Equation 1 (``C_cut + α·C_migrate +
  β·C_balance``), with the *home* assignment — the pre-repartition Π^t —
  projected through the hierarchy.  Both modifications are individually
  switchable for the design ablations (A2 in DESIGN.md):
  ``repartition_coarsest=True`` turns the scheme into a scratch-remap-like
  method; ``constrain_matching=False`` lets contraction mix subsets (the
  inherited coarse assignment is then taken from the heavier constituent).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.graph.contract import contract
from repro.graph.csr import WeightedGraph
from repro.graph.matching import heavy_edge_matching
from repro.partition import _klnative, kl
from repro.partition.greedy import greedy_graph_growing
from repro.partition.kl import KLConfig, kl_refine
from repro.partition.metrics import (
    graph_imbalance,
    repartition_cost,
    validate_assignment,
)
from repro.perf import PERF

#: a level that keeps more than this share of its vertices is not built:
#: contraction stalled (e.g. star graphs, tiny subsets)
MIN_SHRINK = 0.95
#: hard cap on the number of contraction levels
MAX_LEVELS = 40


class Hierarchy(NamedTuple):
    """A contraction hierarchy as a value: ``graphs[0]`` is the input,
    ``cmaps[j]`` maps ``graphs[j]`` vertices to ``graphs[j+1]``, and
    ``homes[j]`` is the home assignment projected to ``graphs[j]``
    (``None`` at every level when the hierarchy was built without one)."""

    graphs: list
    cmaps: list
    homes: list


def coarsen_target(p: int) -> int:
    """Stop contracting below this many vertices."""
    return max(100, 4 * p)


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


def build_hierarchy(
    graph: WeightedGraph,
    coarsen_to: int,
    seed: int = 0,
    home=None,
    constrain: bool = True,
) -> Hierarchy:
    """Contraction phase by heavy-edge matching.

    ``home`` (an assignment on ``graph``) is projected down the hierarchy;
    with ``constrain`` it also restricts matching to same-subset pairs at
    every level, so all constituents of a coarse vertex agree on it.
    """
    graphs = [graph]
    cmaps = []
    homes = [None if home is None else np.asarray(home)]
    with PERF.span("multilevel.coarsen"):
        while graphs[-1].n_vertices > coarsen_to and len(cmaps) < MAX_LEVELS:
            g, cur = graphs[-1], homes[-1]
            m = heavy_edge_matching(
                g, seed=seed + len(cmaps), constraint=cur if constrain else None
            )
            # every matched pair removes one vertex: decide before contracting
            n = g.n_vertices
            n_coarse = n - np.count_nonzero(m != np.arange(n)) // 2
            if n_coarse >= n * MIN_SHRINK:
                break
            coarse, cmap = contract(g, m)
            graphs.append(coarse)
            cmaps.append(cmap)
            if cur is None:
                nxt = None
            elif constrain:
                nxt = np.empty(coarse.n_vertices, dtype=cur.dtype)
                nxt[cmap] = cur  # all constituents agree
            else:
                nxt = _project_down(cur, cmap, g.vwts, coarse.n_vertices)
            homes.append(nxt)
    return Hierarchy(graphs, cmaps, homes)


def project_up(coarse_assignment: np.ndarray, cmap: np.ndarray) -> np.ndarray:
    """Expand a coarse assignment to the finer level through ``cmap``."""
    return np.asarray(coarse_assignment)[cmap]


def v_cycle(hierarchy: Hierarchy, coarsest, refine) -> np.ndarray:
    """The one project-and-refine loop.  ``coarsest(graph, home)`` assigns
    the coarsest graph; ``refine(graph, assignment, home)`` improves the
    assignment at every level, coarsest first."""
    graphs, cmaps, homes = hierarchy
    assignment = coarsest(graphs[-1], homes[-1])
    with PERF.span("multilevel.refine"):
        assignment = refine(graphs[-1], assignment, homes[-1])
        for level in range(len(cmaps) - 1, -1, -1):
            assignment = refine(
                graphs[level], project_up(assignment, cmaps[level]), homes[level]
            )
    return assignment


def _fused_v_cycle(graph, p, seed, home, constrain, coarsest, cfgs, rebalance_above=0.0):
    """The V-cycle in two compiled calls — every level built, then every
    level projected and refined — with only ``coarsest`` run in Python
    between them; ``None`` means the caller runs the reference."""
    levels = _klnative.coarsen(
        graph, coarsen_target(p), seed, home, constrain, MAX_LEVELS, MIN_SHRINK
    )
    if levels is None:
        return None
    top = levels.nlev - 1
    start = coarsest(levels.level_graph(top), levels.level_home(top))
    return _klnative.refine(levels, start, p, cfgs, rebalance_above, kl.IN_BAND_TAIL)


def multilevel_partition(
    graph: WeightedGraph, p: int, seed: int = 0, balance_tol: float = 0.03
) -> np.ndarray:
    """Partition ``graph`` into ``p`` subsets with the multilevel-KL scheme."""
    if p == 1:
        # what the V-cycle returns too: growing gives all zeros, and KL
        # finds no boundary to move
        return np.zeros(graph.n_vertices, dtype=np.int64)
    # Two alternating refinement modes per level, Metis-style: a balancing
    # sweep with a dominant quadratic term (the paper's β = 0.8 makes
    # balance gains dwarf cut gains, which is how ε < 0.01 is reached even
    # with heavy vertices), then a pure cut sweep under the hard envelope.
    rebalance_cfg = KLConfig(balance_tol=balance_tol, max_passes=3, beta=0.8, window=16)
    cut_cfg = KLConfig(balance_tol=balance_tol, max_passes=6, beta=0.0)

    def coarsest(g, _home):
        return greedy_graph_growing(g, p, seed=seed)

    new = _fused_v_cycle(
        graph, p, seed, None, True, coarsest, [rebalance_cfg, cut_cfg], balance_tol
    )
    if new is not None:
        return new

    def refine(g, assignment, _home):
        if graph_imbalance(g, assignment, p) > balance_tol:
            assignment = kl_refine(g, assignment, p, config=rebalance_cfg)
        return kl_refine(g, assignment, p, config=cut_cfg)

    return v_cycle(build_hierarchy(graph, coarsen_target(p), seed=seed), coarsest, refine)


def multilevel_repartition(graph: WeightedGraph, p: int, current, pnr) -> np.ndarray:
    """Repartition ``graph`` starting from ``current`` with PNR's multilevel
    KL.  Returns the new assignment Π̂^t.

    ``pnr`` is the Equation-1 parameter object
    (:class:`repro.core.pnr.PNR`): ``alpha`` penalizes migration from
    ``current`` (the home partition), ``beta`` the quadratic imbalance,
    ``repartition_coarsest`` / ``constrain_matching`` are the ablation
    switches.
    """
    current = validate_assignment(graph, current, p)
    cfg = KLConfig(
        alpha=pnr.alpha,
        beta=pnr.beta,
        balance_tol=pnr.balance_tol,
        max_passes=8,
        window=16,
        balance_mode="deadband",
    )

    def coarsest(g, home):
        if pnr.repartition_coarsest:
            return greedy_graph_growing(g, p, seed=pnr.seed)
        return home.copy()

    # Monotone-or-rollback: the repartitioner hill-climbs from ``current``,
    # so identity is always a candidate.  KL optimizes the deadband form of
    # the balance term; under the literal quadratic Equation 1 an in-band
    # rebalance can still score worse than doing nothing, in which case
    # doing nothing is what we return (the compiled ``refine`` applies the
    # same guard, with ``cfg``'s alpha and beta).
    new = _fused_v_cycle(
        graph, p, pnr.seed, current, pnr.constrain_matching, coarsest, [cfg]
    )
    if new is not None:
        return new
    new = v_cycle(
        build_hierarchy(
            graph, coarsen_target(p), seed=pnr.seed, home=current,
            constrain=pnr.constrain_matching,
        ),
        coarsest,
        lambda g, assignment, home: kl_refine(g, assignment, p, home=home, config=cfg),
    )
    if (
        repartition_cost(graph, current, new, p, pnr.alpha, pnr.beta).total
        > repartition_cost(graph, current, current, p, pnr.alpha, pnr.beta).total + 1e-9
    ):
        return current.copy()
    return new
