"""Negative-path tests: corrupted states and failure branches that the
happy-path suite never reaches."""

import numpy as np
import pytest

from repro.mesh import AdaptiveMesh
from repro.mesh.mesh2d import TriMesh


class TestConformalityChecker:
    def test_hanging_node_detected(self):
        """Bisect one side of a shared edge *without* propagation (reaching
        into the internals, as a corruption would) and verify the checker
        fires."""
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        mesh = TriMesh(verts, np.array([[0, 1, 2], [0, 2, 3]]))
        # manually split triangle 0 across the shared diagonal (0, 2)
        m = mesh.midpoint(0, 2)
        mesh._new_children(0, (1, m, 0), (1, 2, m))
        with pytest.raises(AssertionError, match="hanging node"):
            mesh.check_conformal()

    def test_checker_passes_after_proper_refinement(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        mesh = TriMesh(verts, np.array([[0, 1, 2], [0, 2, 3]]))
        from repro.mesh.rivara2d import refine2d

        refine2d(mesh, [0])
        mesh.check_conformal()


class TestForestCorruption:
    def test_validate_catches_bad_status(self, square8):
        f = square8.mesh.forest
        f.split(0)
        # corrupt: flip a child to INACTIVE while the parent is INTERIOR
        from repro.mesh.forest import INACTIVE

        c0, _ = f.children(0)
        f._status[c0] = INACTIVE
        with pytest.raises(AssertionError):
            f.validate()


class TestSolverEdgeCases:
    def test_solve_after_coarsening_pins_unused_vertices(self):
        """Coarsening leaves orphaned midpoint vertices in the vertex array;
        the solver must pin them instead of producing a singular system."""
        from repro.fem import CornerLaplace2D, fem_solution_error, solve_poisson

        am = AdaptiveMesh.unit_square(6)
        am.uniform_refine(1)
        am.coarsen(am.leaf_ids())  # back to coarse; midpoints now unused
        assert am.mesh.n_verts > (7 * 7)
        prob = CornerLaplace2D()
        u = solve_poisson(am, g=prob.dirichlet)
        err = fem_solution_error(am, u, prob.exact)
        assert np.isfinite(err["linf"])


class TestKLEdgeCases:
    def test_single_vertex_graph(self):
        from repro.graph.csr import WeightedGraph
        from repro.partition import kl_refine

        g = WeightedGraph.from_edges(1, np.empty((0, 2), dtype=np.int64))
        out = kl_refine(g, np.zeros(1, dtype=int), 2)
        assert out[0] == 0

    def test_disconnected_graph_refine(self):
        from repro.graph.csr import WeightedGraph
        from repro.partition import graph_imbalance, kl_refine
        from repro.partition.kl import KLConfig

        g = WeightedGraph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
        a = np.zeros(6, dtype=np.int64)
        out = kl_refine(g, a, 2, config=KLConfig(beta=0.8, max_passes=4))
        assert graph_imbalance(g, out, 2) < 1.0  # both subsets populated


class TestDistMeshEdgeCases:
    def test_refine_empty_marking(self):
        from repro.pared import DistributedMesh
        from repro.runtime import spmd_run

        def prog(comm):
            am = AdaptiveMesh.unit_square(3)
            dm = DistributedMesh(comm, am, np.zeros(am.n_roots, dtype=np.int64))
            out = dm.parallel_refine([])
            return (out, am.n_leaves)

        results = spmd_run(2, prog)
        for out, n in results:
            assert out == [] and n == 18

    def test_coarsen_unrefined_mesh(self):
        from repro.pared import DistributedMesh
        from repro.runtime import spmd_run

        def prog(comm):
            am = AdaptiveMesh.unit_square(3)
            dm = DistributedMesh(comm, am, np.zeros(am.n_roots, dtype=np.int64))
            merged = dm.parallel_coarsen([int(e) for e in dm.owned_leaf_ids()])
            return merged

        assert spmd_run(2, prog) == [[], []]

    def test_migration_to_self_is_noop(self):
        from repro.pared import execute_migration, DistributedMesh
        from repro.runtime import spmd_run

        def prog(comm):
            am = AdaptiveMesh.unit_square(3)
            owner = np.arange(am.n_roots, dtype=np.int64) % comm.size
            dm = DistributedMesh(comm, am, owner)
            stats = execute_migration(comm, dm, owner.copy())
            return stats["trees_moved"], stats["elements_moved"]

        assert spmd_run(3, prog) == [(0, 0)] * 3


class TestVizEdgeCases:
    def test_degenerate_series_single_point(self):
        from repro.viz import series_to_svg

        series = {"only": [{"step": 0, "x": 0}]}
        svg = series_to_svg(series, "x")
        assert svg.startswith("<svg")

    def test_mesh_svg_after_coarsening(self, square8):
        from repro.viz import mesh_to_svg

        square8.uniform_refine(1)
        square8.coarsen(square8.leaf_ids())
        svg = mesh_to_svg(square8)
        assert svg.count("<polygon") == square8.n_leaves
