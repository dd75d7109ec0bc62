"""User-facing adaptive-mesh facade.

``AdaptiveMesh`` bundles a nested mesh with its refinement and coarsening
kernels and offers marking helpers.  It is the object the FEM driver, the
PNR repartitioner and the PARED system all operate on.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.generators import structured_tet_mesh, structured_tri_mesh
from repro.mesh.coarsen import coarsen as _coarsen
from repro.mesh.mesh2d import TriMesh
from repro.mesh.mesh3d import TetMesh
from repro.mesh.rivara import refine as _refine
from repro.perf import PERF


class AdaptiveMesh:
    """A nested mesh plus its adaptation kernels.

    Parameters
    ----------
    mesh:
        A :class:`~repro.mesh.mesh2d.TriMesh` or
        :class:`~repro.mesh.mesh3d.TetMesh`.
    """

    def __init__(self, mesh):
        if not isinstance(mesh, (TriMesh, TetMesh)):
            raise TypeError("mesh must be TriMesh or TetMesh")
        self.mesh = mesh
        #: number of completed adaptation rounds (the ``t`` of ``M^t``)
        self.time_step = 0

    # ------------------------------------------------------------------ #
    # constructors for the paper's domains
    # ------------------------------------------------------------------ #

    @classmethod
    def unit_square(cls, n: int) -> "AdaptiveMesh":
        """``(-1,1)^2`` triangulated with ``2 n^2`` triangles."""
        verts, tris = structured_tri_mesh(n, n)
        return cls(TriMesh(verts, tris))

    @classmethod
    def unit_cube(cls, n: int) -> "AdaptiveMesh":
        """``(-1,1)^3`` tetrahedralized with ``6 n^3`` tets."""
        verts, tets = structured_tet_mesh(n, n, n)
        return cls(TetMesh(verts, tets))

    # ------------------------------------------------------------------ #
    # adaptation
    # ------------------------------------------------------------------ #

    def refine(self, leaf_ids) -> list:
        """Bisect the given leaf elements once (with conformality
        propagation); returns all bisected element ids."""
        with PERF.span("mesh.refine"):
            out = _refine(self.mesh, leaf_ids)
        self.time_step += 1
        return out

    def coarsen(self, leaf_ids) -> list:
        """Coarsen complete bisection groups among the marked leaves;
        returns the merged parents."""
        with PERF.span("mesh.coarsen"):
            out = _coarsen(self.mesh, leaf_ids)
        self.time_step += 1
        return out

    def refine_where(self, predicate) -> list:
        """Refine all leaves whose centroid satisfies ``predicate``.

        ``predicate`` receives an ``(n_leaves, dim)`` array of centroids and
        returns a boolean mask.
        """
        cents = self.leaf_centroids()
        mask = np.asarray(predicate(cents), dtype=bool)
        return self.refine(self.leaf_ids()[mask])

    def uniform_refine(self, rounds: int = 1) -> None:
        """Refine every leaf, ``rounds`` times."""
        for _ in range(rounds):
            self.refine(self.leaf_ids())

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #

    @property
    def n_leaves(self) -> int:
        return self.mesh.n_leaves

    @property
    def n_roots(self) -> int:
        return self.mesh.n_roots

    def leaf_ids(self) -> np.ndarray:
        return self.mesh.leaf_ids()

    def leaf_cells(self) -> np.ndarray:
        return self.mesh.leaf_cells()

    def leaf_roots(self) -> np.ndarray:
        return self.mesh.leaf_roots()

    def leaf_centroids(self) -> np.ndarray:
        return self.mesh.verts[self.leaf_cells()].mean(axis=1)
