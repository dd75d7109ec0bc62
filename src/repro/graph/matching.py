"""Vertex matchings for multilevel graph contraction.

Heavy-edge matching (HEM) matches vertices across heavy edges
[Karypis & Kumar 1995]: contracting a heavy-edge matching removes as much
edge weight as possible from the coarser graph, which keeps coarse cuts
representative of fine cuts.

Every undirected edge gets a unique priority — edge weight with a seeded
random tie-break — and the matching is the *greedy* one for that priority
order: scan the edges from best to worst and match every edge whose
endpoints are both still free.  The compiled core does exactly that scan (``_klcore.c: hem_match``); the numpy reference reaches
the same matching by mutual-proposal rounds (:func:`_match_rounds`): each
round, every unmatched vertex proposes along its highest-priority
surviving edge and mutual proposals become matches.  The two agree because
priorities are unique — the globally best surviving edge is both of its
endpoints' best, so the rounds match it exactly when the scan would, and
by induction every later edge too.  Either way the result is a *maximal*
matching, and randomness is drawn only at setup, so results are a pure
function of ``(graph, seed, constraint)``.

``constraint`` support: the repartitioning variant of the multilevel scheme
(PNR, Section 9) must contract only *within* subsets of the current
partition, so that every coarse vertex inherits a well-defined current
assignment.  Pass the current assignment as ``constraint`` and only
same-label pairs are matched — enforced here as a static edge filter
before any round runs.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import WeightedGraph
from repro.perf import PERF


def _candidate_edges(graph: WeightedGraph, constraint):
    """One row per undirected constraint-respecting edge: (src, dst, ewts)."""
    src = graph.edge_src
    dst = graph.adjncy
    keep = src < dst  # CSR stores each undirected edge twice
    if constraint is not None:
        constraint = np.asarray(constraint)
        keep &= constraint[src] == constraint[dst]
    return src[keep], dst[keep], graph.ewts[keep]


def _match_rounds(n: int, es, ed, rank) -> np.ndarray:
    """Mutual-proposal rounds over edges with unique priorities ``rank``.

    Invariant per round: an edge survives iff both endpoints are still
    unmatched, and each vertex proposes along its max-rank surviving edge.
    The max-rank surviving edge overall is mutual, so rounds always make
    progress; on exit no surviving edge remains, hence maximality.
    """
    match = np.full(n, -1, dtype=np.int64)
    if es.size:
        # Incidence view, pre-sorted once by (vertex, rank): after any
        # stable boolean compaction the *last* entry of a vertex's segment
        # is that vertex's best surviving edge.
        ends = np.concatenate([es, ed])
        other = np.concatenate([ed, es])
        erank = np.concatenate([rank, rank])
        order = np.lexsort((erank, ends))
        ends, other = ends[order], other[order]

        best_other = np.full(n, -1, dtype=np.int64)
        while ends.size:
            is_last = np.empty(ends.size, dtype=bool)
            is_last[:-1] = ends[:-1] != ends[1:]
            is_last[-1] = True
            prop_v = ends[is_last]
            prop_u = other[is_last]
            best_other[prop_v] = prop_u
            mutual = (best_other[prop_u] == prop_v) & (prop_v < prop_u)
            mv = prop_v[mutual]
            mu = prop_u[mutual]
            match[mv] = mu
            match[mu] = mv
            alive = (match[ends] == -1) & (match[other] == -1)
            ends, other = ends[alive], other[alive]

    unmatched = match == -1
    match[unmatched] = np.nonzero(unmatched)[0]
    return match


def _greedy_matching(n: int, es, ed, order) -> np.ndarray:
    """The greedy matching over candidate edges listed in ``order`` by
    ascending priority: the compiled scan, else the mutual-proposal rounds."""
    from repro.partition import _klnative  # deferred: partition imports graph

    match = _klnative.hem_match(n, es, ed, order)
    if match is None:
        rank = np.empty(order.size, dtype=np.int64)
        rank[order] = np.arange(order.size, dtype=np.int64)
        match = _match_rounds(n, es, ed, rank)
    return match


def heavy_edge_matching(
    graph: WeightedGraph,
    seed: int = 0,
    constraint=None,
) -> np.ndarray:
    """Compute a maximal heavy-edge matching.

    Returns ``match`` with ``match[v]`` = matched partner of ``v`` or ``v``
    itself if unmatched.  ``match`` is an involution.
    """
    with PERF.span("matching.hem"):
        es, ed, ew = _candidate_edges(graph, constraint)
        rng = np.random.default_rng(seed)
        # unique priority: heavier edges first, seeded shuffle breaks ties.
        # ``tie`` is a permutation, so laying the edges out in tie order and
        # stable-sorting by weight is np.lexsort((tie, ew)) at half the cost
        tie = rng.permutation(es.size)
        by_tie = np.empty(es.size, dtype=np.int64)
        by_tie[tie] = np.arange(es.size, dtype=np.int64)
        order = by_tie[np.argsort(ew[by_tie], kind="stable")]
        return _greedy_matching(graph.n_vertices, es, ed, order)
