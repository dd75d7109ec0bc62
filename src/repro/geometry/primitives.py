"""Vectorized geometric primitives for simplicial meshes.

All functions take a vertex coordinate array ``verts`` of shape
``(nv, dim)`` and a connectivity array of element vertex indices, and return
numpy arrays; they never copy coordinates beyond the fancy-indexed gathers
they need.

Local index conventions
-----------------------
Triangles have vertices ``(0, 1, 2)`` and local edges

    ``TRI_EDGES = [(1, 2), (2, 0), (0, 1)]``

so that local edge *i* is the edge *opposite* local vertex *i* (the standard
FEM convention; it makes neighbor bookkeeping symmetric).

Tetrahedra have vertices ``(0, 1, 2, 3)``, six local edges ``TET_EDGES``
and four local faces ``TET_FACES`` where local face *i* is opposite local
vertex *i*.
"""

from __future__ import annotations

import numpy as np

#: Local edges of a triangle; edge ``i`` is opposite vertex ``i``.
TRI_EDGES = ((1, 2), (2, 0), (0, 1))

#: Local edges of a tetrahedron, in lexicographic order of local vertices.
TET_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

#: Local faces of a tetrahedron; face ``i`` is opposite vertex ``i``.
TET_FACES = ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1))


def tri_areas(verts: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Unsigned areas of a batch of triangles.

    Parameters
    ----------
    verts:
        ``(nv, 2)`` or ``(nv, 3)`` coordinates.
    tris:
        ``(nt, 3)`` vertex indices.

    Returns
    -------
    ``(nt,)`` array of areas.
    """
    tris = np.asarray(tris, dtype=np.int64).reshape(-1, 3)
    a = verts[tris[:, 0]]
    b = verts[tris[:, 1]]
    c = verts[tris[:, 2]]
    u = b - a
    v = c - a
    if verts.shape[1] == 2:
        cross = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
        return 0.5 * np.abs(cross)
    cr = np.cross(u, v)
    return 0.5 * np.linalg.norm(cr, axis=1)


def tet_volumes(verts: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """Unsigned volumes of a batch of tetrahedra.

    Parameters
    ----------
    verts:
        ``(nv, 3)`` coordinates.
    tets:
        ``(nt, 4)`` vertex indices.
    """
    tets = np.asarray(tets, dtype=np.int64).reshape(-1, 4)
    a = verts[tets[:, 0]]
    u = verts[tets[:, 1]] - a
    v = verts[tets[:, 2]] - a
    w = verts[tets[:, 3]] - a
    det = np.einsum("ij,ij->i", np.cross(u, v), w)
    return np.abs(det) / 6.0


def _edge_lengths(verts: np.ndarray, cells: np.ndarray, local_edges) -> np.ndarray:
    """Lengths of every cell's local edges, one column per pair of
    ``local_edges``."""
    out = np.empty((cells.shape[0], len(local_edges)), dtype=float)
    for i, (p, q) in enumerate(local_edges):
        d = verts[cells[:, p]] - verts[cells[:, q]]
        out[:, i] = np.linalg.norm(d, axis=1)
    return out


def tri_quality(verts: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Shape quality of triangles in ``(0, 1]``: normalized ratio of area to
    squared RMS edge length (equilateral = 1, degenerate = 0)."""
    areas = tri_areas(verts, tris)
    lens = _edge_lengths(verts, np.asarray(tris, dtype=np.int64).reshape(-1, 3), TRI_EDGES)
    denom = (lens**2).sum(axis=1)
    # 4*sqrt(3) normalizes the equilateral triangle to quality 1.
    with np.errstate(divide="ignore", invalid="ignore"):
        q = 4.0 * np.sqrt(3.0) * areas / denom
    return np.where(denom > 0, q, 0.0)


def tet_quality(verts: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """Shape quality of tets in ``(0, 1]``: normalized volume over cubed RMS
    edge length (regular tet = 1)."""
    vols = tet_volumes(verts, tets)
    lens = _edge_lengths(verts, np.asarray(tets, dtype=np.int64).reshape(-1, 4), TET_EDGES)
    rms = np.sqrt((lens**2).mean(axis=1))
    # Regular tet with edge a has volume a^3 / (6*sqrt(2)).
    with np.errstate(divide="ignore", invalid="ignore"):
        q = vols * 6.0 * np.sqrt(2.0) / rms**3
    return np.where(rms > 0, q, 0.0)
