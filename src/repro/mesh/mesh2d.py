"""Nested 2-D triangular mesh over a flat-array edge adjacency.

Three arrays grow in lockstep with the element connectivity:

* ``_nbr[e, i]`` — the active leaf across the edge of ``e`` opposite its
  local vertex ``i`` (``-1`` on the domain boundary).  Rows are current
  for leaves only; a row is rewritten whenever its element (re)enters the
  leaf set.  :meth:`TriMesh.leaf_adjacency_pairs` — hence the dual graphs
  and the cut — is read off these rows.
* ``_le[e]`` — local index of the longest edge of ``e``, fixed at creation
  (ties go to the smallest vertex pair, so the two triangles sharing an
  edge agree on "longest").
* ``_ekey[e, i]`` — packed :func:`~repro.mesh.base.pair_key` of that same
  edge, fixed at creation: what the stitch sorts and the midpoint memo is
  keyed by, so neither recomputes it.

The adaptation kernels change the leaf set a whole batch at a time: a
refinement (:mod:`repro.mesh.rivara2d`) is one compiled call
(:mod:`repro.mesh._meshnative`) that writes these arrays in place, and a
coarsening (:mod:`repro.mesh.coarsen`) goes through
:meth:`TriMesh._merge_many`.  Each batch ends in one stitch, which pairs
the edges of the elements that entered the leaf set with each other and
with the surviving neighbours of those that left by their packed edge
keys — compiled too.  The numpy split and stitch they replaced are their
oracle in ``tests/_mesh_oracle.py``.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.primitives import tri_areas
from repro.mesh import _meshnative
from repro.mesh.base import SimplexMesh, pair_key
from repro.mesh.forest import LEAF
from repro.mesh.growable import GrowableMatrix, GrowableVector


_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


def _edge_keys(cells: np.ndarray) -> np.ndarray:
    """``(k, 3)`` packed :func:`~repro.mesh.base.pair_key` of the edge
    opposite each local vertex."""
    a = cells[:, _NEXT]
    b = cells[:, _PREV]
    return (np.minimum(a, b) << 32) | np.maximum(a, b)


class TriMesh(SimplexMesh):
    """Nested triangle mesh over a refinement forest (see
    :class:`~repro.mesh.base.SimplexMesh`)."""

    dim = 2
    nodes_per_cell = 3

    def __init__(self, verts, cells):
        super().__init__(verts, cells)
        # Reject tangled input early: zero-area triangles break bisection.
        areas = tri_areas(self.verts, self.cells)
        if np.any(areas <= 0):
            raise ValueError("input mesh contains degenerate (zero-area) triangles")

    # -- facet adjacency -------------------------------------------------- #

    def _rebuild_adjacency(self) -> None:
        super()._rebuild_adjacency()
        cells = self._cells.data
        capacity = max(16, 2 * cells.shape[0])
        self._nbr = GrowableMatrix(3, np.int64, capacity=capacity)
        self._le = GrowableVector(np.int64, capacity=capacity)
        self._ekey = GrowableMatrix(3, np.int64, capacity=capacity)
        self._grow_adjacency(cells)
        self._stitch(self.forest.leaves(), np.empty(0, dtype=np.int64))

    def _grow_adjacency(self, cells: np.ndarray) -> None:
        """Extend ``_nbr`` / ``_le`` / ``_ekey`` for freshly stored
        ``cells``."""
        keys = _edge_keys(cells)
        self._nbr.extend(np.full(cells.shape, -1, dtype=np.int64))
        self._ekey.extend(keys)
        self._le.extend(self._longest_local(cells, keys))

    def _longest_local(self, cells: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Local index of each cell's longest edge: edges are scanned in
        local order; a later edge wins when longer by more than ``1e-12``
        relative, or within that band of the running best length with a
        smaller vertex pair (``keys`` are the cells' packed edge keys)."""
        p = self.verts[cells]
        d = p[:, _NEXT] - p[:, _PREV]
        lens = d[:, :, 0] * d[:, :, 0] + d[:, :, 1] * d[:, :, 1]
        best = np.zeros(cells.shape[0], dtype=np.int64)
        best_len = lens[:, 0]
        best_key = keys[:, 0]
        for j in (1, 2):
            lj, kj = lens[:, j], keys[:, j]
            longer = lj > best_len * (1.0 + 1e-12)
            take = longer | ((lj >= best_len * (1.0 - 1e-12)) & (kj < best_key))
            best = np.where(take, j, best)
            best_key = np.where(take, kj, best_key)
            best_len = np.where(longer, lj, best_len)
        return best

    def _stitch(self, born: np.ndarray, died: np.ndarray) -> None:
        """Make ``_nbr`` current after ``born`` entered and ``died`` left
        the leaf set: every edge of a born element and every edge through
        which a surviving leaf saw a died element is reset to boundary,
        then equal packed keys are paired (compiled; an edge of three
        triangles raises ``ValueError``)."""
        _meshnative.stitch(self, born, died)

    def _merge_many(self, parents: np.ndarray) -> None:
        c0, c1 = self.forest.merge_many(parents)
        try:
            self._stitch(parents, np.concatenate([c0, c1]))
        except MemoryError:
            self.forest.split_many(parents)  # the whole batch or none of it
            raise

    def lepp_next(self, elems: np.ndarray) -> tuple:
        """One step of every longest-edge propagation path: ``(nb,
        terminal)`` where ``nb`` is the leaf across the longest edge of
        each leaf in ``elems`` (``-1`` on the boundary) and ``terminal``
        flags the elements that can be bisected now — boundary edge, or
        ``nb`` has the same longest edge."""
        nbr = self._nbr.data
        le = self._le.data
        nb = nbr[elems, le[elems]]
        return nb, (nb < 0) | (nbr[nb, le[nb]] == elems)

    def _leaf_adjacency_pairs_uncached(self) -> np.ndarray:
        """Read off ``_nbr``, no sort: row-major over ``_nbr[leaf_ids()]``
        — ascending leaf, then local edge — keeping each edge from its
        lower-numbered side, so a pair is ``(position, higher position)``."""
        leaves = self.leaf_ids()
        nbr = self._nbr.data[leaves]
        slot = np.flatnonzero(nbr > leaves[:, None])
        position = np.full(self.n_elements, -1, dtype=np.int64)
        position[leaves] = np.arange(leaves.shape[0])
        return np.column_stack([slot // 3, position[nbr.reshape(-1)[slot]]])

    def edge_elements(self, a: int, b: int) -> frozenset:
        """Active leaf triangles containing edge ``(a, b)`` (possibly empty)."""
        leaves = self.leaf_ids()
        hit = (self._ekey.data[leaves] == pair_key(a, b)).any(axis=1)
        return frozenset(leaves[hit].tolist())

    def neighbor_across(self, eid: int, a: int, b: int):
        """The other active leaf across edge ``(a, b)``, or ``None`` if the
        edge is on the boundary."""
        for i, v in enumerate(self.cell(eid)):
            if v != a and v != b:
                nb = int(self._nbr.data[eid, i])
                return None if nb < 0 else nb
        raise ValueError(f"({a}, {b}) is not an edge of element {eid}")

    def check_adjacency(self) -> None:
        """Assert ``_nbr`` over the leaves is symmetric, ``-1`` exactly on
        the boundary, and equal to the brute-force leaf adjacency."""
        from repro.mesh.dualgraph import _compute_leaf_adjacency_pairs

        leaves = self.leaf_ids()
        nbr = self._nbr.data
        pos, loc = np.nonzero(nbr[leaves] >= 0)
        e = leaves[pos]
        nb = nbr[e, loc]
        assert np.all(self.forest.status_array[nb] == LEAF), "neighbour is not a leaf"
        back = nbr[nb] == e[:, None]
        assert np.all(back.sum(axis=1) == 1), "neighbour does not point back"
        keys = _edge_keys(self.cells)
        assert np.array_equal(keys, self._ekey.data), "stale edge-key cache"
        assert np.array_equal(
            keys[e, loc], keys[nb, np.argmax(back, axis=1)]
        ), "neighbours disagree on the shared edge"
        brute = leaves[_compute_leaf_adjacency_pairs(self)]
        assert np.array_equal(
            np.unique(np.concatenate([brute, brute[:, ::-1]]), axis=0),
            np.unique(np.column_stack([e, nb]), axis=0),
        ), "_nbr differs from the brute-force leaf adjacency"

    # -- geometry --------------------------------------------------------- #

    def _compute_longest_edge(self, eid: int) -> tuple:
        cell = self.cell(eid)
        i = int(self._le.data[eid])
        p, q = cell[(i + 1) % 3], cell[(i + 2) % 3]
        return (p, q) if p < q else (q, p)

    # -- validation -------------------------------------------------------- #

    def _leaf_facets_with_counts(self):
        cells = self.leaf_cells()
        if cells.shape[0] == 0:
            return np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64)
        edges = np.concatenate(
            [cells[:, [1, 2]], cells[:, [2, 0]], cells[:, [0, 1]]], axis=0
        )
        edges.sort(axis=1)
        facets, counts = np.unique(edges, axis=0, return_counts=True)
        return facets, counts

    def leaf_areas(self) -> np.ndarray:
        return tri_areas(self.verts, self.leaf_cells())
