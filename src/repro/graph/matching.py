"""Vertex matchings for multilevel graph contraction.

Heavy-edge matching (HEM) matches vertices across heavy edges
[Karypis & Kumar 1995]: contracting a heavy-edge matching removes as much
edge weight as possible from the coarser graph, which keeps coarse cuts
representative of fine cuts.

Every undirected edge gets a unique priority — edge weight with a seeded
random tie-break — and the matching is the *greedy* one for that priority
order: scan the edges from best to worst and match every edge whose
endpoints are both still free.  The compiled core does exactly that scan
(``_klcore.c: hem_match``); its oracle in ``tests/_kl_oracle.py`` reaches
the same matching by mutual-proposal rounds: each round, every unmatched
vertex proposes along its highest-priority surviving edge and mutual
proposals become matches.  The two agree because priorities are unique —
the globally best surviving edge is both of its endpoints' best, so the
rounds match it exactly when the scan would, and by induction every later
edge too.  Either way the result is a *maximal* matching, and randomness
is drawn only at setup, so results are a pure function of ``(graph, seed,
constraint)``.

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


def _priority_order(graph: WeightedGraph, seed: int, constraint) -> tuple:
    """``(es, ed, order)``: the candidate edges and their order by
    ascending priority — heavier edges last, a seeded shuffle breaking
    ties.  ``tie`` is a permutation, so laying the edges out in tie order
    and stable-sorting by weight is ``np.lexsort((tie, ew))`` at half the
    cost."""
    es, ed, ew = _candidate_edges(graph, constraint)
    tie = np.random.default_rng(seed).permutation(es.size)
    by_tie = np.empty(es.size, dtype=np.int64)
    by_tie[tie] = np.arange(es.size, dtype=np.int64)
    return es, ed, by_tie[np.argsort(ew[by_tie], kind="stable")]


def heavy_edge_matching(
    graph: WeightedGraph,
    seed: int = 0,
    constraint=None,
) -> np.ndarray:
    """Compute a maximal heavy-edge matching.

    Returns ``match`` with ``match[v]`` = matched partner of ``v`` or ``v``
    itself if unmatched.  ``match`` is an involution.
    """
    from repro.partition import _klnative  # deferred: partition imports graph

    with PERF.span("matching.hem"):
        es, ed, order = _priority_order(graph, seed, constraint)
        return _klnative.hem_match(graph.n_vertices, es, ed, order)
