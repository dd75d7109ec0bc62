"""Graph contraction: collapse a matching into a coarser graph.

As each coarse graph ``G_{j+1}`` is constructed from ``G_j``, its vertices
and edges inherit the weights of ``G_j`` (Section 3.1): a coarse vertex's
weight is the sum of its constituents' weights; parallel edges between two
coarse vertices merge by summing weights; edges internal to a matched pair
disappear.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import WeightedGraph
from repro.perf import PERF


def contract(graph: WeightedGraph, match: np.ndarray) -> tuple:
    """Contract ``graph`` along a matching.

    Parameters
    ----------
    graph:
        The fine graph ``G_j``.
    match:
        Involution array from :mod:`repro.graph.matching` (``match[v]`` is
        ``v``'s partner, or ``v`` itself).

    Returns
    -------
    (coarse, cmap):
        ``coarse`` is the contracted :class:`WeightedGraph`; ``cmap`` maps
        each fine vertex to its coarse vertex id.
    """
    with PERF.span("contract"):
        n = graph.n_vertices
        match = np.ascontiguousarray(match, dtype=np.int64)
        if match.shape[0] != n:
            raise ValueError("match must have one entry per vertex")
        from repro.partition import _klnative  # deferred: partition imports graph

        out = _klnative.contract(graph, match)
        if out is None:
            return _contract_py(graph, match)
        *coarse, cmap = out
        return WeightedGraph(*coarse), cmap


def _contract_py(graph: WeightedGraph, match: np.ndarray) -> tuple:
    """The numpy reference of :func:`contract` (and of ``_klcore.c:
    contract``, which must emit the same arrays bit for bit)."""
    n = graph.n_vertices
    # Assign coarse ids: the smaller endpoint of each matched pair owns
    # it, and ids are dealt in owner order — a cumsum over the owner
    # mask gives the same numbering the old sequential scan produced,
    # bit for bit.
    verts = np.arange(n, dtype=np.int64)
    is_owner = verts <= match
    cmap = np.cumsum(is_owner, dtype=np.int64) - 1
    cmap[~is_owner] = cmap[match[~is_owner]]
    nc = int(is_owner.sum())

    cvwts = np.bincount(cmap, weights=graph.vwts, minlength=nc)

    # Coarse edges: map endpoints, drop collapsed pairs, merge parallels.
    cu = cmap[graph.edge_src]
    cv = cmap[graph.adjncy]
    # each undirected fine edge appears twice in CSR; keep one direction
    # (which also drops the edges a matched pair collapsed)
    keep = cu < cv
    edges = np.column_stack([cu[keep], cv[keep]])
    wts = graph.ewts[keep]
    coarse = WeightedGraph.from_edges(nc, edges, wts, cvwts)
    return coarse, cmap
