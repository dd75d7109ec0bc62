"""Vertex matchings for multilevel graph contraction.

Heavy-edge matching (HEM) matches vertices across heavy edges
[Karypis & Kumar 1995]: contracting a heavy-edge matching removes as much
edge weight as possible from the coarser graph, which keeps coarse cuts
representative of fine cuts.

Every undirected edge gets a unique priority — edge weight with a seeded
random tie-break — and the matching is the *greedy* one for that priority
order: scan the edges from best to worst and match every edge whose
endpoints are both still free.  The compiled core does exactly that scan
(``_klcore.c: hem``, the same code every level of the V-cycle's
``coarsen`` runs); its oracle in ``tests/_kl_oracle.py`` reaches
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
same-label pairs are matched — enforced as a static edge filter before
any edge is ranked.  The labels are subset ids and cross to the core as
int64.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import WeightedGraph
from repro.perf import PERF


def heavy_edge_matching(
    graph: WeightedGraph,
    seed: int = 0,
    constraint=None,
) -> np.ndarray:
    """Compute a maximal heavy-edge matching.

    Returns ``match`` with ``match[v]`` = matched partner of ``v`` or ``v``
    itself if unmatched.  ``match`` is an involution.  A ``constraint``
    without one label per vertex raises ``ValueError``.
    """
    from repro.partition import _klnative  # deferred: partition imports graph

    with PERF.span("matching.hem"):
        if constraint is not None:
            constraint = np.ascontiguousarray(constraint, dtype=np.int64)
            if constraint.shape != (graph.n_vertices,):
                raise ValueError("constraint must have one label per vertex")
        return _klnative.hem(graph, seed, constraint)
