"""Independent brute-force recounts of derived mesh quantities.

The production code computes dual-graph weights with vectorized numpy
(:mod:`repro.mesh.dualgraph`); the checkers here recount the same
quantities with deliberately different, element-at-a-time implementations,
so a bug in the fast path cannot hide in its own mirror.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.mesh.forest import LEAF


def brute_force_leaf_counts(forest) -> np.ndarray:
    """Leaves per root, counted one element at a time (vs. the vectorized
    ``leaf_counts_by_root``)."""
    counts = np.zeros(forest.n_roots, dtype=np.int64)
    status, root = forest.status_array.tolist(), forest.root_array.tolist()
    for eid in range(len(forest)):
        if status[eid] == LEAF:
            counts[root[eid]] += 1
    return counts


def brute_force_cross_root_edges(mesh) -> dict:
    """``{(root_a, root_b): count}`` (``root_a < root_b``) of adjacent leaf
    pairs whose refinement trees differ — the coarse dual graph's edge
    weights — via a plain facet dictionary."""
    facets: dict = defaultdict(list)
    leaf_ids = mesh.leaf_ids()
    cells = mesh.leaf_cells()
    root = mesh.forest.root_array.tolist()
    for pos in range(cells.shape[0]):
        cell = [int(v) for v in cells[pos]]
        if len(cell) == 3:
            sides = [(cell[1], cell[2]), (cell[2], cell[0]), (cell[0], cell[1])]
        else:
            sides = [
                (cell[1], cell[2], cell[3]),
                (cell[0], cell[2], cell[3]),
                (cell[0], cell[1], cell[3]),
                (cell[0], cell[1], cell[2]),
            ]
        for side in sides:
            facets[tuple(sorted(side))].append(int(leaf_ids[pos]))
    out: dict = defaultdict(int)
    for owners in facets.values():
        if len(owners) != 2:
            continue
        ra, rb = root[owners[0]], root[owners[1]]
        if ra != rb:
            key = (ra, rb) if ra < rb else (rb, ra)
            out[key] += 1
    return dict(out)
