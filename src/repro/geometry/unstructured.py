"""Unstructured mesh generators.

The paper's meshes are *unstructured* triangulations/tetrahedralizations of
simple domains.  Beyond the structured generators (which are convenient and
deterministic), this module produces genuinely irregular meshes:

* :func:`delaunay_square_mesh` — Delaunay triangulation of a jittered
  lattice of ``(-1,1)²`` (boundary points kept on the boundary so the
  domain is tiled exactly);
* :func:`lshape_mesh` — structured triangulation of the L-shaped domain
  ``(-1,1)² \\ [0,1)²`` (the classic re-entrant-corner singularity domain).

All are deterministic for a fixed seed and reject degenerate output.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import Delaunay

from repro.geometry.primitives import tri_areas


def _delaunay_cells(pts: np.ndarray) -> np.ndarray:
    tri = Delaunay(pts)
    cells = tri.simplices.astype(np.int64)
    # drop degenerate slivers that exact tiling does not need
    areas = tri_areas(pts, cells)
    keep = areas > 1e-12 * areas.max()
    return cells[keep]


def delaunay_square_mesh(n: int, jitter: float = 0.35, seed: int = 0):
    """Irregular triangulation of ``(-1,1)²``.

    A ``(n+1)²`` lattice is jittered by ``jitter``-fraction of the spacing
    (interior points in both axes, boundary points only along their edge,
    corners fixed) and Delaunay-triangulated.  Returns ``(verts, tris)``.
    """
    if n < 2:
        raise ValueError("need at least a 2x2 cell lattice")
    rng = np.random.default_rng(seed)
    xs = np.linspace(-1, 1, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    h = 2.0 / n
    shift = rng.uniform(-jitter * h, jitter * h, pts.shape)
    on_xb = (np.abs(pts[:, 0]) == 1.0)
    on_yb = (np.abs(pts[:, 1]) == 1.0)
    shift[on_xb, 0] = 0.0
    shift[on_yb, 1] = 0.0
    pts = pts + shift
    cells = _delaunay_cells(pts)
    return pts, cells


def lshape_mesh(n: int):
    """Structured triangulation of the L-shaped domain
    ``(-1,1)² minus [0,1)x[0,1)`` with ``2n x 2n`` lattice resolution
    (``n`` cells per unit side).  Returns ``(verts, tris)``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    xs = np.linspace(-1, 1, 2 * n + 1)
    vid = {}
    verts = []

    def get(i, j):
        key = (i, j)
        if key not in vid:
            vid[key] = len(verts)
            verts.append((xs[i], xs[j]))
        return vid[key]

    tris = []
    for i in range(2 * n):
        for j in range(2 * n):
            # skip the removed quadrant [0,1) x [0,1)
            if i >= n and j >= n:
                continue
            v00 = get(i, j)
            v10 = get(i + 1, j)
            v01 = get(i, j + 1)
            v11 = get(i + 1, j + 1)
            if (i + j) % 2 == 0:
                tris.append((v00, v10, v11))
                tris.append((v00, v11, v01))
            else:
                tris.append((v00, v10, v01))
                tris.append((v10, v11, v01))
    return np.asarray(verts), np.asarray(tris, dtype=np.int64)
