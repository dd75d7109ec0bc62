"""Unit and property tests for the geometric kernel, and for the meshes'
longest-edge rule (what steers Rivara bisection)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    TET_EDGES,
    TET_FACES,
    TRI_EDGES,
    tet_quality,
    tet_volumes,
    tri_areas,
    tri_quality,
)
from repro.mesh.mesh2d import TriMesh
from repro.mesh.mesh3d import TetMesh

from tests._mesh_oracle import longest_edge


def tri_area(verts, tri) -> float:
    return float(tri_areas(verts, [tri])[0])


def tet_volume(verts, tet) -> float:
    return float(tet_volumes(verts, [tet])[0])


class TestTriAreas:
    def test_unit_right_triangle(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert tri_area(verts, [0, 1, 2]) == pytest.approx(0.5)

    def test_orientation_invariant(self):
        verts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 3.0]])
        assert tri_area(verts, [0, 1, 2]) == pytest.approx(tri_area(verts, [0, 2, 1]))

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(0)
        verts = rng.uniform(-1, 1, (10, 2))
        tris = np.array([[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        batch = tri_areas(verts, tris)
        for k, t in enumerate(tris):
            a, b, c = verts[t]
            cross = (b - a)[0] * (c - a)[1] - (b - a)[1] * (c - a)[0]
            assert batch[k] == pytest.approx(0.5 * abs(cross))

    def test_degenerate_zero(self):
        verts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        assert tri_area(verts, [0, 1, 2]) == pytest.approx(0.0)

    def test_3d_embedded_triangle(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
        assert tri_area(verts, [0, 1, 2]) == pytest.approx(0.5)


class TestTetVolumes:
    def test_unit_tet(self):
        verts = np.array(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float
        )
        assert tet_volume(verts, [0, 1, 2, 3]) == pytest.approx(1 / 6)

    def test_orientation_invariant(self):
        verts = np.array(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float
        )
        assert tet_volume(verts, [0, 2, 1, 3]) == pytest.approx(1 / 6)

    def test_batch(self):
        verts = np.array(
            [[0, 0, 0], [2, 0, 0], [0, 2, 0], [0, 0, 2], [1, 1, 1]], dtype=float
        )
        vols = tet_volumes(verts, [[0, 1, 2, 3], [0, 1, 2, 4]])
        assert vols[0] == pytest.approx(8 / 6)
        assert vols[1] > 0

    def test_flat_tet_zero(self):
        verts = np.array(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float
        )
        assert tet_volume(verts, [0, 1, 2, 3]) == pytest.approx(0.0)


class TestEdges:
    def test_local_edge_tables(self):
        assert len(TRI_EDGES) == 3
        assert len(TET_EDGES) == 6
        assert len(TET_FACES) == 4
        # face i must not contain vertex i
        for i, f in enumerate(TET_FACES):
            assert i not in f


class TestLongestEdge:
    """The longest edge (local edge ``_le[e]``) as a sorted global vertex
    pair; exact ties go to the smallest pair, so two elements sharing an
    edge agree on it."""

    def test_tri_longest(self):
        verts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
        # (1,2): sqrt(5), (2,0): 1, (0,1): 2
        assert longest_edge(TriMesh(verts, np.array([[0, 1, 2]])), 0) == (1, 2)

    def test_tie_break_agrees_between_orders(self):
        # equilateral: all edges tie; the chosen global pair must not depend
        # on the vertex order of the cell
        verts = np.array(
            [[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]]
        )
        pairs = {
            longest_edge(TriMesh(verts, np.array([cell])), 0)
            for cell in ([0, 1, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0])
        }
        assert pairs == {(0, 1)}

    def test_tet_longest(self):
        # edges from vertex 1 to 2/3 have length sqrt(10); tie broken by the
        # smaller sorted vertex pair -> (1, 2)
        verts = np.array(
            [[0, 0, 0], [3, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float
        )
        assert longest_edge(TetMesh(verts, np.array([[0, 1, 2, 3]])), 0) == (1, 2)

    def test_tet_longest_unique(self):
        verts = np.array(
            [[0, 0, 0], [5, 0, 0], [0.1, 0.2, 0], [0.1, 0, 0.3]], dtype=float
        )
        assert longest_edge(TetMesh(verts, np.array([[0, 1, 2, 3]])), 0) == (0, 1)


class TestQualityAndMisc:
    def test_equilateral_quality_one(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        assert tri_quality(verts, [[0, 1, 2]])[0] == pytest.approx(1.0)

    def test_sliver_quality_small(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-4]])
        assert tri_quality(verts, [[0, 1, 2]])[0] < 0.01

    def test_regular_tet_quality_one(self):
        verts = np.array(
            [
                [1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1],
            ],
            dtype=float,
        )
        assert tet_quality(verts, [[0, 1, 2, 3]])[0] == pytest.approx(1.0, abs=1e-9)


@given(
    pts=st.lists(
        st.tuples(
            st.floats(-100, 100, allow_nan=False),
            st.floats(-100, 100, allow_nan=False),
        ),
        min_size=3,
        max_size=3,
        unique=True,
    )
)
@settings(max_examples=50, deadline=None)
def test_area_translation_invariant(pts):
    verts = np.array(pts)
    shifted = verts + np.array([13.7, -4.2])
    a1 = tri_area(verts, [0, 1, 2])
    a2 = tri_area(shifted, [0, 1, 2])
    assert a1 == pytest.approx(a2, rel=1e-6, abs=1e-6)


@given(scale=st.floats(0.1, 10.0))
@settings(max_examples=30, deadline=None)
def test_volume_scales_cubically(scale):
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    v1 = tet_volume(verts, [0, 1, 2, 3])
    v2 = tet_volume(verts * scale, [0, 1, 2, 3])
    assert v2 == pytest.approx(v1 * scale**3, rel=1e-9)
