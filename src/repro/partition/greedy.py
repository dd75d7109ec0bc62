"""Greedy graph growing — the coarsest-level partitioner of the multilevel
scheme.

Grows each subset by best-first search (prefer the frontier vertex with the
strongest connection to the growing region, the classic GGGP criterion) from
a pseudo-peripheral seed until the subset reaches its weight target, then
moves on.  Leftover stragglers (disconnected remainders, and whatever the
first p − 1 subsets did not take) go to subset p − 1.  Cheap, decent
quality — exactly what a coarsest graph of a few hundred vertices needs
before KL polishing.

It runs in the compiled core (``_klnative.grow``, also the coarsest rule
inside the V-cycle's ``refine``); its Python oracle is
``tests/_kl_oracle.py: greedy_graph_growing``.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import WeightedGraph
from repro.partition import _klnative


def greedy_graph_growing(
    graph: WeightedGraph,
    p: int,
    seed: int = 0,
    targets=None,
) -> np.ndarray:
    """Partition ``graph`` into ``p`` subsets by greedy region growing.

    ``targets`` optionally sets per-subset weight goals (defaults to W/p);
    it must hold exactly ``p`` of them.  ``seed`` must be an integer: the
    compiled core starts from ``default_rng(seed)``'s state, so ``None``
    (fresh entropy) or a ``SeedSequence`` raise ``ValueError``.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, not {type(seed).__name__}")
    if targets is not None:
        targets = np.asarray(targets, dtype=np.float64)
        if targets.shape != (p,):
            raise ValueError(
                f"targets has {targets.size} entries, p = {p} subsets need {p}"
            )
    return _klnative.grow(graph, p, int(seed), targets)
