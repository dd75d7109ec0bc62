"""Geometric kernel: vectorized measures and structured mesh generators.

This package provides the low-level geometry used by the adaptive mesh
subsystem (:mod:`repro.mesh`): areas, volumes and element quality
measures, and generators for the structured initial meshes used in the
paper's experiments (triangulations of ``(-1,1)^2`` and tetrahedralizations
of ``(-1,1)^3``).
"""

from repro.geometry.primitives import (
    TRI_EDGES,
    TET_EDGES,
    TET_FACES,
    tri_areas,
    tet_volumes,
    tri_quality,
    tet_quality,
)
from repro.geometry.generators import (
    structured_tri_mesh,
    structured_tet_mesh,
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
    "tet_volumes",
    "tri_quality",
    "tet_quality",
    "structured_tri_mesh",
    "structured_tet_mesh",
    "delaunay_square_mesh",
    "lshape_mesh",
]
