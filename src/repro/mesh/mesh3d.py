"""Nested 3-D tetrahedral mesh over a flat-array face adjacency.

A tetrahedron keeps the ``_nbr`` / ``_le`` rows every
:class:`~repro.mesh.base.SimplexMesh` keeps: ``_nbr[e, i]`` is the leaf
across the face opposite local vertex ``i`` and ``_le[e]`` indexes the six
local edges in ``itertools.combinations`` order, ``(0, 1), (0, 2), (0, 3),
(1, 2), (1, 3), (2, 3)``.  The 3-D Rivara kernel
(:mod:`repro.mesh.rivara`) bisects the whole *edge star* at once and
finds it by walking ``_nbr`` around the edge, face to face.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.primitives import tet_volumes
from repro.mesh.base import SimplexMesh


class TetMesh(SimplexMesh):
    """Nested tetrahedral mesh over a refinement forest (see
    :class:`~repro.mesh.base.SimplexMesh`)."""

    dim = 3
    nodes_per_cell = 4
    _EDGE_A = np.array([0, 0, 0, 1, 1, 2])
    _EDGE_B = np.array([1, 2, 3, 2, 3, 3])
    MIN_STEPS = 2000

    def __init__(self, verts, cells):
        super().__init__(verts, cells)
        vols = tet_volumes(self.verts, self.cells)
        if np.any(vols <= 0):
            raise ValueError("input mesh contains degenerate (zero-volume) tets")
