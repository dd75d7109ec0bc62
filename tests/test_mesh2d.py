"""Tests for the nested triangle mesh and its 2-D Rivara refinement."""

import numpy as np
import pytest

from repro.geometry import tri_areas
from repro.mesh.mesh2d import TriMesh
from repro.mesh.rivara import refine

from tests._mesh_oracle import longest_edge


def single_triangle():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return TriMesh(verts, np.array([[0, 1, 2]]))


def two_triangles():
    """Two right triangles sharing the diagonal (their common longest edge)."""
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return TriMesh(verts, np.array([[0, 1, 2], [0, 2, 3]]))


class TestConstruction:
    def test_basic_shapes(self):
        m = two_triangles()
        assert m.n_verts == 4
        assert m.n_leaves == 2
        assert m.n_roots == 2

    def test_degenerate_rejected(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            TriMesh(verts, np.array([[0, 1, 2]]))

    def test_bad_index_rejected(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            TriMesh(verts, np.array([[0, 1, 5]]))

    def test_edge_adjacency(self):
        m = two_triangles()
        # _nbr[e, i] is across the edge opposite local vertex i: the
        # diagonal (0, 2) is shared, every other edge is on the boundary
        assert m._nbr.data.tolist() == [[-1, 1, -1], [-1, -1, 0]]


class TestLongestEdge:
    def test_right_triangle_hypotenuse(self):
        m = single_triangle()
        assert longest_edge(m, 0) == (1, 2)


class TestBisection:
    def test_boundary_bisection(self):
        m = single_triangle()
        bisected = refine(m, [0])
        assert bisected == [0]
        assert m.n_leaves == 2
        assert m.n_verts == 4  # midpoint added
        assert tri_areas(m.verts, m.leaf_cells()).sum() == pytest.approx(0.5)
        m.check_conformal()
        m.forest.validate()

    def test_pair_bisection(self):
        m = two_triangles()
        bisected = refine(m, [0])
        # neighbor shares the longest edge -> both bisect
        assert sorted(bisected) == [0, 1]
        assert m.n_leaves == 4
        assert tri_areas(m.verts, m.leaf_cells()).sum() == pytest.approx(1.0)
        m.check_conformal()

    def test_midpoint_shared_between_pair(self):
        m = two_triangles()
        refine(m, [0])
        # exactly one midpoint vertex created
        assert m.n_verts == 5

    def test_orientation_preserved(self):
        m = two_triangles()
        refine(m, [0, 1])
        cells = m.leaf_cells()
        a = m.verts[cells[:, 0]]
        b = m.verts[cells[:, 1]]
        c = m.verts[cells[:, 2]]
        cross = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (
            b[:, 1] - a[:, 1]
        ) * (c[:, 0] - a[:, 0])
        assert np.all(cross > 0)

    def test_refining_refined_element_skipped(self):
        m = two_triangles()
        refine(m, [0])
        n = m.n_leaves
        # element 0 is INTERIOR now; asking again is a no-op
        assert refine(m, [0]) == []
        assert m.n_leaves == n

    def test_propagation_keeps_conformality(self):
        # refine one deep corner repeatedly; neighbors must follow
        from repro.geometry import structured_tri_mesh

        verts, tris = structured_tri_mesh(4, 4)
        m = TriMesh(verts, tris)
        rng = np.random.default_rng(7)
        for _ in range(6):
            leaves = m.leaf_ids()
            target = leaves[rng.integers(len(leaves))]
            refine(m, [target])
            m.check_conformal()
        assert tri_areas(m.verts, m.leaf_cells()).sum() == pytest.approx(4.0)

    def test_every_leaf_bisected_once(self):
        # two rounds over every leaf of the 288-triangle square: the
        # propagated bisections are exactly the targets, nothing more
        from repro.geometry import structured_tri_mesh

        m = TriMesh(*structured_tri_mesh(12, 12))
        for _ in range(2):
            refine(m, m.leaf_ids())
        assert m.n_leaves == 4 * 288

    def test_deterministic_result_any_order(self):
        from repro.geometry import structured_tri_mesh

        verts, tris = structured_tri_mesh(3, 3)
        m1 = TriMesh(verts.copy(), tris.copy())
        m2 = TriMesh(verts.copy(), tris.copy())
        marked = [0, 5, 11, 17]
        refine(m1, marked)
        refine(m2, list(reversed(marked)))

        # ids are numbered from the target *set*, so the arrays agree
        assert np.array_equal(m1.cells, m2.cells)
        assert np.array_equal(m1.verts, m2.verts)

    def test_propagation_limit_caps_total_walk_steps(self):
        from repro.geometry import structured_tri_mesh
        from repro.mesh.rivara import PropagationLimitError

        m = TriMesh(*structured_tri_mesh(24, 24))  # 1152 walkers > 1000 steps
        with pytest.raises(PropagationLimitError):
            refine(m, m.leaf_ids(), max_steps_factor=0)
        # the cap fires while walking, before the wave's batch is applied
        assert m.n_leaves == m.n_roots
        m.check_adjacency()


class TestBoundary:
    def test_boundary_vertices_square(self):
        from repro.geometry import structured_tri_mesh

        verts, tris = structured_tri_mesh(4, 4)
        m = TriMesh(verts, tris)
        b = m.boundary_vertices()
        coords = m.verts[b]
        on_edge = (np.abs(coords[:, 0]) == 1) | (np.abs(coords[:, 1]) == 1)
        assert np.all(on_edge)
        # all 16 boundary lattice vertices present
        assert len(b) == 16

    def test_boundary_after_refinement(self):
        from repro.geometry import structured_tri_mesh

        verts, tris = structured_tri_mesh(2, 2)
        m = TriMesh(verts, tris)
        refine(m, list(m.leaf_ids()))
        b = m.boundary_vertices()
        coords = m.verts[b]
        assert np.all((np.abs(coords[:, 0]) == 1) | (np.abs(coords[:, 1]) == 1))
