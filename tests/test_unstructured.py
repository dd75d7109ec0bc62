"""Tests for the unstructured (Delaunay / L-shape) generators and their
interaction with adaptive refinement."""

import numpy as np
import pytest

from repro.geometry import (
    delaunay_square_mesh,
    lshape_mesh,
    tri_areas,
)
from repro.mesh.adapt import AdaptiveMesh
from repro.mesh.mesh2d import TriMesh


class TestDelaunaySquare:
    def test_tiles_domain(self):
        verts, tris = delaunay_square_mesh(8, seed=0)
        assert tri_areas(verts, tris).sum() == pytest.approx(4.0)

    def test_boundary_points_stay_on_boundary(self):
        verts, _ = delaunay_square_mesh(6, seed=1)
        assert verts.min() == pytest.approx(-1.0)
        assert verts.max() == pytest.approx(1.0)

    def test_deterministic(self):
        v1, t1 = delaunay_square_mesh(5, seed=42)
        v2, t2 = delaunay_square_mesh(5, seed=42)
        assert np.array_equal(v1, v2) and np.array_equal(t1, t2)

    def test_irregular(self):
        # jittering must actually produce non-lattice interior points
        v, _ = delaunay_square_mesh(6, jitter=0.3, seed=3)
        xs = np.unique(np.round(v[:, 0], 9))
        assert len(xs) > 7  # a structured 6-grid would have exactly 7

    def test_too_small_raises(self):
        with pytest.raises(ValueError):
            delaunay_square_mesh(1)

    def test_refinable(self):
        verts, tris = delaunay_square_mesh(6, seed=0)
        am = AdaptiveMesh(TriMesh(verts, tris))
        am.refine_where(lambda c: c[:, 0] > 0)
        am.mesh.check_conformal()
        assert tri_areas(am.mesh.verts, am.mesh.leaf_cells()).sum() == pytest.approx(4.0)


class TestLShape:
    def test_area(self):
        verts, tris = lshape_mesh(4)
        assert tri_areas(verts, tris).sum() == pytest.approx(3.0)

    def test_no_vertex_in_removed_quadrant(self):
        verts, _ = lshape_mesh(3)
        inside = (verts[:, 0] > 1e-12) & (verts[:, 1] > 1e-12)
        # vertices strictly inside the removed quadrant must not exist
        interior_removed = inside & (verts[:, 0] < 1 - 1e-12) & (verts[:, 1] < 1 - 1e-12)
        assert not interior_removed.any()

    def test_conformal_and_refinable(self):
        verts, tris = lshape_mesh(3)
        am = AdaptiveMesh(TriMesh(verts, tris))
        am.mesh.check_conformal()
        # refine at the re-entrant corner (0, 0)
        am.refine_where(lambda c: (np.abs(c[:, 0]) < 0.4) & (np.abs(c[:, 1]) < 0.4))
        am.mesh.check_conformal()
        assert tri_areas(am.mesh.verts, am.mesh.leaf_cells()).sum() == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            lshape_mesh(0)


class TestPartitionUnstructured:
    def test_pnr_on_delaunay_mesh(self):
        """PNR is mesh-agnostic: the full pipeline runs on a genuinely
        unstructured triangulation."""
        from repro.core import PNR
        from repro.mesh import coarse_dual_graph
        from repro.partition import graph_imbalance, graph_migration

        verts, tris = delaunay_square_mesh(10, seed=7)
        am = AdaptiveMesh(TriMesh(verts, tris))
        am.refine_where(lambda c: (c[:, 0] > 0.2) & (c[:, 1] > 0.2))
        pnr = PNR(seed=0)
        cur = pnr.initial_partition(am, 4)
        am.refine_where(lambda c: (c[:, 0] < -0.3))
        new = pnr.repartition(am, 4, cur)
        g = coarse_dual_graph(am.mesh)
        assert graph_imbalance(g, new, 4) < 0.3
        assert graph_migration(g, cur, new) < 0.5 * am.n_leaves
