"""Nested 2-D triangular mesh over a flat-array edge adjacency.

Besides the ``_nbr`` / ``_le`` rows every
:class:`~repro.mesh.base.SimplexMesh` keeps, a triangle stores
``_ekey[e, i]`` — the packed :func:`~repro.mesh.base.pair_key` of the edge
opposite its local vertex ``i``, fixed at creation: what the midpoint memo
is keyed by, so the 2-D kernel never recomputes it.

A refinement (:mod:`repro.mesh.rivara2d`) is one compiled call
(:mod:`repro.mesh._meshnative`) that writes these arrays in place; the
numpy split and stitch it replaced are its oracle in
``tests/_mesh_oracle.py``.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.primitives import tri_areas
from repro.mesh.base import SimplexMesh, pair_key
from repro.mesh.growable import GrowableMatrix


_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


class TriMesh(SimplexMesh):
    """Nested triangle mesh over a refinement forest (see
    :class:`~repro.mesh.base.SimplexMesh`)."""

    dim = 2
    nodes_per_cell = 3
    # local edge i is the one opposite local vertex i
    _EDGE_A = _NEXT
    _EDGE_B = _PREV

    def __init__(self, verts, cells):
        super().__init__(verts, cells)
        # Reject tangled input early: zero-area triangles break bisection.
        areas = tri_areas(self.verts, self.cells)
        if np.any(areas <= 0):
            raise ValueError("input mesh contains degenerate (zero-area) triangles")

    # -- facet adjacency -------------------------------------------------- #

    def _rebuild_adjacency(self) -> None:
        self._ekey = GrowableMatrix(3, np.int64, capacity=max(16, 2 * self.n_elements))
        super()._rebuild_adjacency()

    def _grow_adjacency(self, cells: np.ndarray) -> np.ndarray:
        keys = super()._grow_adjacency(cells)
        self._ekey.extend(keys)
        return keys

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
        super().check_adjacency()
        assert np.array_equal(self._edge_keys(self.cells), self._ekey.data), (
            "stale edge-key cache"
        )

    # -- geometry --------------------------------------------------------- #

    def leaf_areas(self) -> np.ndarray:
        return tri_areas(self.verts, self.leaf_cells())
