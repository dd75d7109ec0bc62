"""Tests for the nested tetrahedral mesh and 3-D Rivara refinement."""

import numpy as np
import pytest

from repro.geometry import structured_tet_mesh, tet_volumes
from repro.mesh.base import pair_key
from repro.mesh.mesh3d import TetMesh
from repro.mesh.rivara import refine

from tests import _mesh_oracle as oracle


def single_tet():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    return TetMesh(verts, np.array([[0, 1, 2, 3]]))


def cube_mesh(n=2):
    verts, tets = structured_tet_mesh(n, n, n)
    return TetMesh(verts, tets)


class TestConstruction:
    def test_shapes(self):
        m = cube_mesh(2)
        assert m.n_roots == 48
        assert m.n_leaves == 48

    def test_degenerate_rejected(self):
        verts = np.array(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float
        )
        with pytest.raises(ValueError):
            TetMesh(verts, np.array([[0, 1, 2, 3]]))

    def test_edge_star(self):
        m = cube_mesh(1)  # 6 Kuhn tets around the main diagonal
        # corner 0 and corner 7 of the cube: the main diagonal is in all 6,
        # the longest edge of each, and the walk around it over _nbr meets
        # every one of them
        star, key = oracle._star(m, 0)
        assert key == pair_key(0, 7)
        assert sorted(star) == list(range(6))

    def test_face_adjacency(self):
        m = cube_mesh(1)
        # every face belongs to one (boundary) or two tets, and a tet with
        # its neighbour across the face (the _nbr slot of the local vertex
        # off it) are exactly the leaves containing it
        leaves = m.leaf_ids().tolist()
        for eid in leaves:
            for i in range(4):
                face = set(m.cell(eid)) - {m.cell(eid)[i]}
                nb = int(m._nbr.data[eid, i])
                elems = {eid} if nb < 0 else {eid, nb}
                assert elems == {e for e in leaves if face <= set(m.cell(e))}

    def test_neighbor_across(self):
        m = cube_mesh(1)
        e0 = 0
        cell = m.cell(e0)
        found_any = False
        for i in range(4):
            nb = int(m._nbr.data[e0, i])
            if nb >= 0:
                found_any = True
                assert set(cell) - {cell[i]} <= set(m.cell(nb))
        assert found_any


class TestBisection:
    def test_single_tet_bisection(self):
        m = single_tet()
        refine(m, [0])
        assert m.n_leaves == 2
        assert tet_volumes(m.verts, m.leaf_cells()).sum() == pytest.approx(1 / 6)
        m.check_conformal()
        m.forest.validate()

    def test_star_bisected_together(self):
        m = cube_mesh(1)
        refine(m, [0])
        # the whole 6-tet star around the main diagonal splits -> 12 leaves
        assert m.n_leaves == 12
        assert tet_volumes(m.verts, m.leaf_cells()).sum() == pytest.approx(8.0)
        m.check_conformal()

    def test_volume_preserved_random_refinement(self):
        m = cube_mesh(2)
        rng = np.random.default_rng(3)
        for _ in range(5):
            leaves = m.leaf_ids()
            marked = leaves[rng.choice(len(leaves), size=4, replace=False)]
            refine(m, marked)
            assert tet_volumes(m.verts, m.leaf_cells()).sum() == pytest.approx(8.0)
            m.check_conformal()
        m.forest.validate()

    def test_no_degenerate_children(self):
        m = cube_mesh(2)
        refine(m, list(m.leaf_ids()))
        assert tet_volumes(m.verts, m.leaf_cells()).min() > 0

    def test_refined_element_skipped(self):
        m = cube_mesh(1)
        refine(m, [0])
        n = m.n_leaves
        assert refine(m, [0]) == []
        assert m.n_leaves == n


class TestBoundary:
    def test_boundary_vertices_on_cube_surface(self):
        m = cube_mesh(2)
        refine(m, list(m.leaf_ids()[:10]))
        b = m.boundary_vertices()
        coords = m.verts[b]
        on_surface = (
            (np.abs(coords[:, 0]) == 1)
            | (np.abs(coords[:, 1]) == 1)
            | (np.abs(coords[:, 2]) == 1)
        )
        assert np.all(on_surface)
