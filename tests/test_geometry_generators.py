"""Tests for the structured mesh generators."""

import numpy as np
import pytest

from repro.geometry import (
    structured_tet_mesh,
    structured_tri_mesh,
    tet_volumes,
    tri_areas,
)


class TestTriGenerator:
    def test_counts(self):
        verts, tris = structured_tri_mesh(4, 3)
        assert verts.shape == (5 * 4, 2)
        assert tris.shape == (2 * 4 * 3, 3)

    def test_area_tiles_domain(self):
        verts, tris = structured_tri_mesh(5, 7, lo=(-1, -1), hi=(1, 1))
        assert tri_areas(verts, tris).sum() == pytest.approx(4.0)

    def test_all_ccw(self):
        verts, tris = structured_tri_mesh(6, 6)
        a = verts[tris[:, 0]]
        b = verts[tris[:, 1]]
        c = verts[tris[:, 2]]
        cross = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (
            b[:, 1] - a[:, 1]
        ) * (c[:, 0] - a[:, 0])
        assert np.all(cross > 0)

    def test_conformal_edges(self):
        verts, tris = structured_tri_mesh(4, 4)
        edges = np.concatenate(
            [tris[:, [1, 2]], tris[:, [2, 0]], tris[:, [0, 1]]], axis=0
        )
        edges.sort(axis=1)
        _, counts = np.unique(edges, axis=0, return_counts=True)
        assert counts.max() <= 2

    def test_custom_domain(self):
        verts, _ = structured_tri_mesh(2, 2, lo=(0, 0), hi=(10, 5))
        assert verts.min(axis=0) == pytest.approx([0, 0])
        assert verts.max(axis=0) == pytest.approx([10, 5])

    def test_invalid_grid_raises(self):
        with pytest.raises(ValueError):
            structured_tri_mesh(0, 4)


class TestTetGenerator:
    def test_counts(self):
        verts, tets = structured_tet_mesh(2, 3, 4)
        assert verts.shape == (3 * 4 * 5, 3)
        assert tets.shape == (6 * 24, 4)

    def test_volume_tiles_domain(self):
        verts, tets = structured_tet_mesh(3, 3, 3)
        assert tet_volumes(verts, tets).sum() == pytest.approx(8.0)

    def test_no_degenerate(self):
        verts, tets = structured_tet_mesh(2, 2, 2)
        assert tet_volumes(verts, tets).min() > 0

    def test_conformal_faces(self):
        verts, tets = structured_tet_mesh(2, 2, 2)
        faces = np.concatenate(
            [
                tets[:, [1, 2, 3]],
                tets[:, [0, 2, 3]],
                tets[:, [0, 1, 3]],
                tets[:, [0, 1, 2]],
            ],
            axis=0,
        )
        faces.sort(axis=1)
        _, counts = np.unique(faces, axis=0, return_counts=True)
        assert counts.max() <= 2

    def test_invalid_grid_raises(self):
        with pytest.raises(ValueError):
            structured_tet_mesh(1, 1, 0)


def _tris_by_loop(nx, ny):
    """The cell-by-cell checkerboard the array expression replaced."""
    tris = []
    for i in range(nx):
        for j in range(ny):
            v00, v01 = i * (ny + 1) + j, i * (ny + 1) + j + 1
            v10, v11 = v00 + ny + 1, v01 + ny + 1
            if (i + j) % 2 == 0:
                tris += [(v00, v10, v11), (v00, v11, v01)]
            else:
                tris += [(v00, v10, v01), (v10, v11, v01)]
    return np.array(tris, dtype=np.int64)


def _tets_by_loop(nx, ny, nz):
    """The cube-by-cube Kuhn split the array expression replaced."""
    def vid(i, j, k):
        return (i * (ny + 1) + j) * (nz + 1) + k

    kuhn = ((0, 1, 3, 7), (0, 1, 5, 7), (0, 2, 3, 7), (0, 2, 6, 7), (0, 4, 5, 7), (0, 4, 6, 7))
    tets = []
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                corner = [
                    vid(i + (c & 1), j + ((c >> 1) & 1), k + ((c >> 2) & 1))
                    for c in range(8)
                ]
                tets += [tuple(corner[c] for c in tet) for tet in kuhn]
    return np.array(tets, dtype=np.int64)


@pytest.mark.parametrize("nx, ny", [(1, 1), (1, 5), (4, 3), (2, 7), (6, 6)])
def test_tri_connectivity_equals_the_loop(nx, ny):
    _, tris = structured_tri_mesh(nx, ny)
    expect = _tris_by_loop(nx, ny)
    assert tris.dtype == expect.dtype and np.array_equal(tris, expect)


@pytest.mark.parametrize("nx, ny, nz", [(1, 1, 1), (1, 2, 3), (4, 1, 2), (3, 5, 2), (2, 2, 2)])
def test_tet_connectivity_equals_the_loop(nx, ny, nz):
    _, tets = structured_tet_mesh(nx, ny, nz)
    expect = _tets_by_loop(nx, ny, nz)
    assert tets.dtype == expect.dtype and np.array_equal(tets, expect)
