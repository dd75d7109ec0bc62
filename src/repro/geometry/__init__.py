"""Geometric kernel: vectorized measures and structured mesh generators.

This package provides the low-level geometry used by the adaptive mesh
subsystem (:mod:`repro.mesh`): signed areas and volumes, edge lengths,
longest-edge queries (the driver of Rivara bisection), element quality
measures, and generators for the structured initial meshes used in the
paper's experiments (triangulations of ``(-1,1)^2`` and tetrahedralizations
of ``(-1,1)^3``).
"""

from repro.geometry.primitives import (
    TRI_EDGES,
    TET_EDGES,
    TET_FACES,
    tri_areas,
    tri_area,
    tet_volumes,
    tet_volume,
    edge_lengths,
    tri_edge_lengths,
    tet_edge_lengths,
    tri_longest_edge,
    tet_longest_edge,
    centroids,
    tri_quality,
    tet_quality,
    bounding_box,
)
from repro.geometry.generators import (
    structured_tri_mesh,
    structured_tet_mesh,
    unit_square_mesh,
    unit_cube_mesh,
)
from repro.geometry.unstructured import (
    delaunay_square_mesh,
    lshape_mesh,
)

__all__ = [
    "TRI_EDGES",
    "TET_EDGES",
    "TET_FACES",
    "tri_areas",
    "tri_area",
    "tet_volumes",
    "tet_volume",
    "edge_lengths",
    "tri_edge_lengths",
    "tet_edge_lengths",
    "tri_longest_edge",
    "tet_longest_edge",
    "centroids",
    "tri_quality",
    "tet_quality",
    "bounding_box",
    "structured_tri_mesh",
    "structured_tet_mesh",
    "unit_square_mesh",
    "unit_cube_mesh",
    "delaunay_square_mesh",
    "lshape_mesh",
]
