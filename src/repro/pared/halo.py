"""Halo analysis of a distributed mesh partition.

On a mesh partitioned by elements, vertices on subdomain boundaries are
*shared*: several ranks hold copies and must exchange/accumulate values at
them (Section 3 — communication cost is a function of such interfaces).
This module computes, for any leaf assignment:

* per-vertex toucher sets (which ranks' elements use the vertex);
* the **shared-vertex exchange lists** per ordered rank pair (sorted, so
  the two sides of every exchange agree on the ordering).

:class:`~repro.pared.solver.DistributedPoissonSolver` builds its exchange
plan from :func:`vertex_exchange_lists`.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np


def vertex_touchers(mesh, leaf_owners: np.ndarray) -> dict:
    """``vertex -> set of ranks`` whose owned leaf elements use it."""
    cells = mesh.leaf_cells()
    touch = defaultdict(set)
    for cell, own in zip(cells, np.asarray(leaf_owners)):
        o = int(own)
        for v in cell:
            touch[int(v)].add(o)
    return touch


def vertex_exchange_lists(mesh, leaf_owners: np.ndarray, rank: int) -> dict:
    """For ``rank``: ``neighbor -> sorted vertex-id array`` of the vertices
    both touch.  Symmetric: ``lists_of(a)[b] == lists_of(b)[a]``."""
    touch = vertex_touchers(mesh, leaf_owners)
    out = defaultdict(list)
    for v, ranks in touch.items():
        if rank in ranks and len(ranks) > 1:
            for q in ranks:
                if q != rank:
                    out[q].append(v)
    return {q: np.array(sorted(vs), dtype=np.int64) for q, vs in out.items()}
