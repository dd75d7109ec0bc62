"""Nested 3-D tetrahedral mesh with incremental edge adjacency.

One dictionary mirrors the active leaf set, ``_edge_elems``: packed
:func:`~repro.mesh.base.pair_key` -> set of active tets containing the edge.
The 3-D Rivara kernel bisects the entire *edge star* at once, so it needs
fast edge-to-elements lookup; face adjacency is read off two edge stars.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.geometry.primitives import tet_volumes
from repro.mesh.base import SimplexMesh, pair_key


class TetMesh(SimplexMesh):
    """Nested tetrahedral mesh over a refinement forest."""

    dim = 3
    nodes_per_cell = 4

    def __init__(self, verts, cells):
        super().__init__(verts, cells)
        vols = tet_volumes(self.verts, self.cells)
        if np.any(vols <= 0):
            raise ValueError("input mesh contains degenerate (zero-volume) tets")

    # -- facet adjacency -------------------------------------------------- #

    @staticmethod
    def _edges_of(cell) -> list:
        return [pair_key(p, q) for p, q in combinations(cell, 2)]

    def _rebuild_adjacency(self) -> None:
        super()._rebuild_adjacency()
        self._edge_elems: dict = {}
        for eid in self.forest.leaves().tolist():
            self._on_activate(eid)

    def _on_activate(self, eid: int) -> None:
        cell = self.cell(eid)
        for key in self._edges_of(cell):
            s = self._edge_elems.get(key)
            if s is None:
                self._edge_elems[key] = {eid}
            else:
                s.add(eid)

    def _on_deactivate(self, eid: int) -> None:
        cell = self.cell(eid)
        for key in self._edges_of(cell):
            s = self._edge_elems[key]
            s.discard(eid)
            if not s:
                del self._edge_elems[key]

    def edge_star(self, a: int, b: int) -> frozenset:
        """Active tets containing edge ``(a, b)`` — the simultaneous-bisection
        unit of 3-D Rivara refinement."""
        return frozenset(self._edge_elems.get(pair_key(a, b), ()))

    def face_elements(self, face) -> frozenset:
        """Active tets containing the face (at most two in a conformal
        mesh): those in the stars of two of its edges."""
        a, b, c = face
        return self.edge_star(a, b) & self.edge_star(a, c)

    def neighbor_across(self, eid: int, face):
        """The other active tet across ``face``, or ``None`` on the boundary."""
        return next(iter(self.face_elements(face) - {eid}), None)

    # -- geometry --------------------------------------------------------- #

    def _compute_longest_edge(self, eid: int) -> tuple:
        cell = self.cell(eid)
        pts = self.verts
        best = None
        best_len = -1.0
        for p, q in combinations(cell, 2):
            d = pts[p] - pts[q]
            ln = float(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
            key = (p, q) if p < q else (q, p)
            if ln > best_len * (1.0 + 1e-12):
                best, best_len = key, ln
            elif ln >= best_len * (1.0 - 1e-12) and key < best:
                best = key
        return best

    # -- validation -------------------------------------------------------- #

    @staticmethod
    def _facet_edge_pairs(facet) -> list:
        a, b, c = facet
        return [(a, b), (b, c), (a, c)]

    def _leaf_facets_with_counts(self):
        cells = self.leaf_cells()
        if cells.shape[0] == 0:
            return np.empty((0, 3), dtype=np.int64), np.empty(0, dtype=np.int64)
        faces = np.concatenate(
            [
                cells[:, [1, 2, 3]],
                cells[:, [0, 2, 3]],
                cells[:, [0, 1, 3]],
                cells[:, [0, 1, 2]],
            ],
            axis=0,
        )
        faces.sort(axis=1)
        facets, counts = np.unique(faces, axis=0, return_counts=True)
        return facets, counts

    def leaf_volumes(self) -> np.ndarray:
        return tet_volumes(self.verts, self.leaf_cells())
