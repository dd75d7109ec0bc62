"""Nested 2-D triangular mesh over a flat-array edge adjacency.

A triangle keeps the ``_nbr`` / ``_le`` rows every
:class:`~repro.mesh.base.SimplexMesh` keeps: ``_nbr[e, i]`` is the leaf
across the edge opposite local vertex ``i``, which is also local edge
``i``.  A refinement (:mod:`repro.mesh.rivara`) is one compiled call
(:mod:`repro.mesh._meshnative`) that writes these arrays in place; the
numpy split and stitch it replaced are its oracle in
``tests/_mesh_oracle.py``.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.primitives import tri_areas
from repro.mesh.base import SimplexMesh


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
    MIN_STEPS = 1000

    def __init__(self, verts, cells):
        super().__init__(verts, cells)
        # Reject tangled input early: zero-area triangles break bisection.
        areas = tri_areas(self.verts, self.cells)
        if np.any(areas <= 0):
            raise ValueError("input mesh contains degenerate (zero-area) triangles")
