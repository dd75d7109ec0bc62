"""Tests for nested coarsening (2-D and 3-D)."""

import numpy as np
import pytest

from repro.geometry import tet_volumes, tri_areas
from repro.mesh.adapt import AdaptiveMesh
from repro.mesh.coarsen import coarsen
from repro.mesh.forest import LEAF
from repro.mesh.rivara import refine


class TestCoarsen2D:
    def test_full_roundtrip(self, square8):
        m = square8.mesh
        refine(m, list(m.leaf_ids()))
        n_after = m.n_leaves
        merged = coarsen(m, m.leaf_ids())
        assert merged, "uniformly refined mesh must coarsen"
        assert m.n_leaves < n_after
        m.check_conformal()
        m.forest.validate()
        assert tri_areas(m.verts, m.leaf_cells()).sum() == pytest.approx(4.0)

    def test_coarsen_to_initial(self, square8):
        m = square8.mesh
        n0 = m.n_leaves
        refine(m, list(m.leaf_ids()))
        for _ in range(5):
            if not coarsen(m, m.leaf_ids()):
                break
        assert m.n_leaves == n0

    def test_roots_not_coarsenable(self, square8):
        m = square8.mesh
        assert coarsen(m, m.leaf_ids()) == []

    def test_partial_marking_blocks_pair(self, square8):
        m = square8.mesh
        refine(m, [0])
        # after a pair bisection, mark only one child of one parent
        kids = m.forest.children(0)
        merged = coarsen(m, [kids[0]])
        assert merged == []
        assert m.forest.status_array[kids[0]] == LEAF

    def test_conformality_blocks_coarsening(self, square8):
        """A parent whose midpoint is still used by a deeper neighbor must
        not merge."""
        m = square8.mesh
        refine(m, list(m.leaf_ids()))  # level 1 everywhere
        # refine one leaf further
        deep = int(m.leaf_ids()[0])
        refine(m, [deep])
        n = m.n_leaves
        # try to coarsen everything except the deep region's children
        deep_kids = set(m.forest.children(deep) or ())
        marked = [e for e in m.leaf_ids() if int(e) not in deep_kids]
        coarsen(m, marked)
        m.check_conformal()
        assert tri_areas(m.verts, m.leaf_cells()).sum() == pytest.approx(4.0)

    def test_coarsen_then_refine_reuses_ids(self, square8):
        m = square8.mesh
        refine(m, [0])
        kids_before = m.forest.children(0)
        n_elems = m.n_elements
        # mark everything so the bisection pair coarsens as a group
        coarsen(m, m.leaf_ids())
        assert m.forest.status_array[0] == LEAF
        refine(m, [0])
        assert m.forest.children(0) == kids_before
        assert m.n_elements == n_elems  # no new storage allocated

    def test_returns_merged_parents(self, square8):
        m = square8.mesh
        refine(m, list(m.leaf_ids()))
        merged = coarsen(m, m.leaf_ids())
        for p in merged:
            assert m.forest.status_array[p] == LEAF


class TestCoarsen3D:
    def test_roundtrip_volume(self, cube3):
        m = cube3.mesh
        refine(m, list(m.leaf_ids()))
        coarsen(m, m.leaf_ids())
        m.check_conformal()
        m.forest.validate()
        assert tet_volumes(m.verts, m.leaf_cells()).sum() == pytest.approx(8.0)

    def test_partial_star_blocks(self, cube3):
        m = cube3.mesh
        refine(m, [0])
        # mark children of only one parent of the bisected star
        kids = m.forest.children(0)
        assert coarsen(m, list(kids)) == []


class TestAdaptFacade:
    def test_transient_style_cycles(self):
        am = AdaptiveMesh.unit_square(6)
        for r in range(4):
            am.refine_where(lambda c: c[:, 0] ** 2 + c[:, 1] ** 2 < 0.5)
            am.coarsen(am.leaf_ids()[: am.n_leaves // 3])
            am.mesh.check_conformal()
            assert tri_areas(am.mesh.verts, am.mesh.leaf_cells()).sum() == pytest.approx(4.0)
        am.mesh.forest.validate()
