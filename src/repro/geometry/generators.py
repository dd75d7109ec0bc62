"""Structured generators for the paper's initial coarse meshes.

The experiments in the paper start from quasi-uniform unstructured meshes of
``(-1,1)^2`` (12,498 triangles) and ``(-1,1)^3`` (9,540 tetrahedra).  We
generate structured simplicial meshes of the same domains: a grid of squares
each split into two triangles with alternating diagonals (which avoids a
globally biased longest-edge direction and gives Rivara bisection a
well-behaved starting point), and a grid of cubes each split into six
tetrahedra (Kuhn subdivision).

Element counts: ``structured_tri_mesh(nx, ny)`` yields ``2*nx*ny`` triangles;
``structured_tet_mesh(nx, ny, nz)`` yields ``6*nx*ny*nz`` tets.
"""

from __future__ import annotations

import numpy as np


def structured_tri_mesh(nx: int, ny: int, lo=(-1.0, -1.0), hi=(1.0, 1.0)):
    """Triangulate the rectangle ``[lo, hi]`` with a ``nx`` x ``ny`` grid.

    Each grid cell is split along one diagonal; the diagonal direction
    alternates in a checkerboard pattern.

    Returns
    -------
    (verts, tris):
        ``verts`` is ``((nx+1)*(ny+1), 2)`` float64, ``tris`` is
        ``(2*nx*ny, 3)`` int64 with counter-clockwise orientation.
    """
    if nx < 1 or ny < 1:
        raise ValueError("grid must have at least one cell per axis")
    xs = np.linspace(lo[0], hi[0], nx + 1)
    ys = np.linspace(lo[1], hi[1], ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    verts = np.column_stack([X.ravel(), Y.ravel()])

    # cell (i, j) of the i-major grid: corners v00, v10, v01, v11, and its
    # two triangles split along v00-v11 on even cells, v10-v01 on odd ones
    i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    v00 = i * (ny + 1) + j
    v10 = v00 + (ny + 1)
    v01 = v00 + 1
    v11 = v10 + 1
    even = ((i + j) % 2 == 0)[..., None]
    first = np.where(even, np.stack([v00, v10, v11], -1), np.stack([v00, v10, v01], -1))
    second = np.where(even, np.stack([v00, v11, v01], -1), np.stack([v10, v11, v01], -1))
    tris = np.stack([first, second], axis=2).reshape(-1, 3).astype(np.int64)
    return verts, tris


#: The six tetrahedra of the Kuhn (Freudenthal) subdivision of a unit cube,
#: expressed as paths 0 -> 7 through the cube corner lattice.  Corner ``k``
#: has coordinates ``(k & 1, (k >> 1) & 1, (k >> 2) & 1)``.
_KUHN_TETS = (
    (0, 1, 3, 7),
    (0, 1, 5, 7),
    (0, 2, 3, 7),
    (0, 2, 6, 7),
    (0, 4, 5, 7),
    (0, 4, 6, 7),
)


def structured_tet_mesh(nx: int, ny: int, nz: int, lo=(-1.0, -1.0, -1.0), hi=(1.0, 1.0, 1.0)):
    """Tetrahedralize the box ``[lo, hi]`` with a ``nx*ny*nz`` cube grid,
    each cube split into six Kuhn tetrahedra (conforming across cubes).

    Returns
    -------
    (verts, tets):
        ``verts`` is ``((nx+1)*(ny+1)*(nz+1), 3)``, ``tets`` is
        ``(6*nx*ny*nz, 4)`` int64.
    """
    if nx < 1 or ny < 1 or nz < 1:
        raise ValueError("grid must have at least one cell per axis")
    xs = np.linspace(lo[0], hi[0], nx + 1)
    ys = np.linspace(lo[1], hi[1], ny + 1)
    zs = np.linspace(lo[2], hi[2], nz + 1)
    X, Y, Z = np.meshgrid(xs, ys, zs, indexing="ij")
    verts = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])

    # the vertex of corner c of a cube, relative to the cube's corner 0,
    # then every cube (i-major, then j, then k) with its six tetrahedra
    c = np.arange(8)
    corner = ((c & 1) * (ny + 1) + ((c >> 1) & 1)) * (nz + 1) + ((c >> 2) & 1)
    i, j, k = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij")
    base = ((i * (ny + 1) + j) * (nz + 1) + k).reshape(-1, 1, 1)
    tets = (base + corner[np.array(_KUHN_TETS)]).reshape(-1, 4).astype(np.int64)
    return verts, tets
