"""Graph contraction: collapse a matching into a coarser graph.

As each coarse graph ``G_{j+1}`` is constructed from ``G_j``, its vertices
and edges inherit the weights of ``G_j`` (Section 3.1): a coarse vertex's
weight is the sum of its constituents' weights; parallel edges between two
coarse vertices merge by summing weights; edges internal to a matched pair
disappear.

The contraction is compiled (``_klcore.c: contract``); its numpy oracle is
in ``tests/_kl_oracle.py``.
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
        ``v``'s partner, or ``v`` itself); anything else raises
        ``ValueError``.

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

        *coarse, cmap = _klnative.contract(graph, match)
        return WeightedGraph(*coarse), cmap
