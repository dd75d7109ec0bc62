"""Cross-module integration tests: the paper's claims end-to-end at small
scale (the full benches check them at experiment scale)."""

import numpy as np
import pytest

from repro.core import PNR
from repro.experiments import AssignmentTracker
from repro.fem import (
    CornerLaplace2D,
    fem_solution_error,
    interpolation_error_indicator,
    mark_top_fraction,
    solve_poisson,
)
from repro.mesh import (
    AdaptiveMesh,
    coarse_dual_graph,
    cut_size,
    fine_dual_graph,
    shared_vertex_count,
)
from repro.partition import (
    graph_imbalance,
    graph_migration,
    multilevel_partition,
    recursive_spectral_bisection,
)


def test_pnr_vs_rsb_migration_headline():
    """Section 7+9's headline: after adaptation, RSB reshuffles the mesh
    while PNR moves a few percent, at comparable quality."""
    am = AdaptiveMesh.unit_square(12)
    prob = CornerLaplace2D()
    pnr = PNR(seed=0)
    p = 4
    for _ in range(2):
        ind = interpolation_error_indicator(am, prob.exact)
        am.refine(mark_top_fraction(am, ind, 0.2))
    current = pnr.initial_partition(am, p)
    tracker = AssignmentTracker(am)
    tracker.stamp(pnr.induced_fine(am, current))

    ind = interpolation_error_indicator(am, prob.exact)
    am.refine(mark_top_fraction(am, ind, 0.05))

    # PNR
    new = pnr.repartition(am, p, current)
    pnr_moved = tracker.migration(pnr.induced_fine(am, new))

    # fresh RSB on the fine mesh
    fg, _ = fine_dual_graph(am.mesh)
    rsb = recursive_spectral_bisection(fg, p, seed=2, refine=True)
    rsb_moved = tracker.migration(rsb)

    assert pnr_moved < 0.3 * rsb_moved
    sv_pnr = shared_vertex_count(am.mesh, pnr.induced_fine(am, new))
    sv_rsb = shared_vertex_count(am.mesh, rsb)
    assert sv_pnr < 2.0 * sv_rsb


def test_quality_coarse_vs_fine_partitioning():
    """Section 6: partitioning the coarse graph loses little quality."""
    am = AdaptiveMesh.unit_square(10)
    prob = CornerLaplace2D()
    for _ in range(3):
        ind = interpolation_error_indicator(am, prob.exact)
        am.refine(mark_top_fraction(am, ind, 0.25))
    p = 4
    cg = coarse_dual_graph(am.mesh)
    fg, _ = fine_dual_graph(am.mesh)
    a_coarse = multilevel_partition(cg, p, seed=0)
    a_fine = multilevel_partition(fg, p, seed=0)
    from repro.mesh import leaf_assignment_from_roots

    sv_coarse = shared_vertex_count(am.mesh, leaf_assignment_from_roots(am.mesh, a_coarse))
    sv_fine = shared_vertex_count(am.mesh, a_fine)
    assert sv_coarse < 2.2 * max(sv_fine, 1)


def test_full_adaptive_solve_with_repartitioning():
    """The PARED workflow (serial): solve -> estimate -> adapt ->
    repartition, with monotone error decrease and bounded imbalance."""
    am = AdaptiveMesh.unit_square(8)
    prob = CornerLaplace2D()
    pnr = PNR(seed=3)
    p = 4
    current = pnr.initial_partition(am, p)
    errors = []
    for _ in range(3):
        u = solve_poisson(am, g=prob.dirichlet)
        errors.append(fem_solution_error(am, u, prob.exact)["linf"])
        ind = interpolation_error_indicator(am, prob.exact)
        am.refine(mark_top_fraction(am, ind, 0.25))
        current = pnr.repartition(am, p, current)
        g = coarse_dual_graph(am.mesh)
        assert graph_imbalance(g, current, p) < 0.35
    assert errors[-1] < errors[0]


def test_cut_size_consistency_between_views():
    """Graph-level cut of the coarse partition equals the mesh-level fine
    cut of the induced assignment restricted to cross-root adjacencies."""
    am = AdaptiveMesh.unit_square(6)
    am.refine(am.leaf_ids()[:10])
    p = 3
    cg = coarse_dual_graph(am.mesh)
    a = multilevel_partition(cg, p, seed=1)
    from repro.mesh import leaf_assignment_from_roots
    from repro.partition import graph_cut

    fine = leaf_assignment_from_roots(am.mesh, a)
    # every cut fine adjacency crosses roots in different subsets; its count
    # equals the coarse cut because edge weights count fine adjacencies
    assert cut_size(am.mesh, fine) == graph_cut(cg, a)


def test_migration_units_consistent():
    """C_migrate on the coarse graph (vertex weight) equals leaf-level
    migration of the induced assignments."""
    am = AdaptiveMesh.unit_square(6)
    am.refine(am.leaf_ids()[:15])
    cg = coarse_dual_graph(am.mesh)
    rng = np.random.default_rng(0)
    a = rng.integers(0, 3, am.n_roots)
    b = rng.integers(0, 3, am.n_roots)
    from repro.mesh import leaf_assignment_from_roots

    moved = leaf_assignment_from_roots(am.mesh, a) != leaf_assignment_from_roots(am.mesh, b)
    assert graph_migration(cg, a, b) == np.count_nonzero(moved)
