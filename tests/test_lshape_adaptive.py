"""Integration test: a-posteriori adaptivity on the L-shaped domain.

The re-entrant corner of the L-shape produces the classic ``r^{2/3}``
solution singularity: a gradient-jump-driven loop (no exact solution
involved) must concentrate refinement at that corner, and the whole
pipeline — unstructured generator, FEM, estimator, Rivara, PNR — must
compose."""

import numpy as np
import pytest

from repro.core import PNR
from repro.fem import gradient_jump_indicator, mark_top_fraction, solve_poisson
from repro.geometry import lshape_mesh, tri_areas
from repro.mesh import AdaptiveMesh, coarse_dual_graph
from repro.mesh.mesh2d import TriMesh
from repro.partition import graph_imbalance


@pytest.fixture(scope="module")
def lshape_adapted():
    verts, tris = lshape_mesh(4)
    am = AdaptiveMesh(TriMesh(verts, tris))
    for _ in range(4):
        # Poisson with f = 1, homogeneous Dirichlet: the gradient is
        # singular at the re-entrant corner (0, 0)
        u = solve_poisson(am, f=lambda p: np.ones(len(p)))
        eta = gradient_jump_indicator(am, u)
        am.refine(mark_top_fraction(am, eta, 0.15))
    return am


def test_refinement_concentrates_at_reentrant_corner(lshape_adapted):
    am = lshape_adapted
    depths = am.mesh.forest.depth_array[am.leaf_ids()]
    cents = am.leaf_centroids()
    deep = depths >= depths.max() - 1
    assert deep.any()
    dist_deep = np.linalg.norm(cents[deep], axis=1).mean()
    dist_all = np.linalg.norm(cents, axis=1).mean()
    assert dist_deep < 0.6 * dist_all, (
        f"deep elements not at the corner: {dist_deep:.2f} vs {dist_all:.2f}"
    )


def test_mesh_stays_conformal_and_exact(lshape_adapted):
    am = lshape_adapted
    am.mesh.check_conformal()
    assert tri_areas(am.mesh.verts, am.mesh.leaf_cells()).sum() == pytest.approx(3.0)


def test_solution_value_reasonable(lshape_adapted):
    # max of -Δu = 1, u|∂Ω = 0 on the L-shape is ≈ 0.15 (between the known
    # values for the unit square ≈ 0.0737 scaled to side 2 ≈ 0.295 and a
    # thin leg); just sanity-check positivity and magnitude
    u = solve_poisson(lshape_adapted, f=lambda p: np.ones(len(p)))
    used = np.unique(lshape_adapted.leaf_cells().ravel())
    assert 0.05 < u[used].max() < 0.5
    assert u[used].min() > -1e-10


def test_pnr_on_lshape(lshape_adapted):
    am = lshape_adapted
    pnr = PNR(seed=0)
    part = pnr.initial_partition(am, 4)
    g = coarse_dual_graph(am.mesh)
    assert graph_imbalance(g, part, 4) < 0.35
