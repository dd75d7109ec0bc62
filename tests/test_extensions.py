"""Tests for the extension modules: quadrature, SVG rendering,
nonblocking runtime ops, and the distributed solver."""

import numpy as np
import pytest

from repro.fem.quadrature import integrate, quad_load_vector, rule_for


class TestQuadrature:
    def test_weights_sum_to_one(self):
        for npc, names in ((3, ("vertex", "midpoint", "deg3", "deg5")),
                           (4, ("vertex", "deg2", "deg3"))):
            for name in names:
                pts, wts = rule_for(npc, name)
                assert wts.sum() == pytest.approx(1.0)
                assert np.allclose(pts.sum(axis=1), 1.0)

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            rule_for(3, "deg99")

    def test_integrate_constant(self, square8):
        val = integrate(square8.verts, square8.leaf_cells(), lambda p: np.ones(len(p)))
        assert val == pytest.approx(4.0)

    def test_integrate_polynomial_exact(self, square8):
        # x^2 over (-1,1)^2 = 4/3; midpoint rule (deg 2) is exact
        f = lambda p: p[:, 0] ** 2
        val = integrate(square8.verts, square8.leaf_cells(), f, rule="midpoint")
        assert val == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_deg5_beats_vertex_on_smooth(self, square8):
        f = lambda p: np.exp(p[:, 0] + 0.5 * p[:, 1])
        exact = (np.e - 1 / np.e) * 2 * (np.exp(0.5) - np.exp(-0.5))
        e_vertex = abs(integrate(square8.verts, square8.leaf_cells(), f, "vertex") - exact)
        e_deg5 = abs(integrate(square8.verts, square8.leaf_cells(), f, "deg5") - exact)
        assert e_deg5 < 0.02 * e_vertex

    def test_quad_load_matches_vertex_rule(self, square8):
        from repro.fem.p1 import load_vector

        f = lambda p: p[:, 0] + 1.3
        b1 = load_vector(square8.verts, square8.leaf_cells(), f)
        b2 = quad_load_vector(square8.verts, square8.leaf_cells(), f, rule="vertex")
        assert np.allclose(b1, b2)

    def test_quad_load_partition_of_unity(self, cube3):
        b = quad_load_vector(cube3.verts, cube3.leaf_cells(),
                             lambda p: np.ones(len(p)), rule="deg2")
        assert b.sum() == pytest.approx(8.0)

    def test_tet_integrate_volume(self, cube3):
        val = integrate(cube3.verts, cube3.leaf_cells(),
                        lambda p: np.ones(len(p)), rule="deg3")
        assert val == pytest.approx(8.0)


class TestSvg:
    def test_mesh_svg_well_formed(self, adapted_square):
        from repro.viz import mesh_to_svg

        svg = mesh_to_svg(adapted_square)
        assert svg.startswith("<svg")
        assert svg.count("<polygon") == adapted_square.n_leaves
        assert svg.endswith("</svg>")

    def test_partition_colors(self, square8):
        from repro.viz import partition_to_svg
        from repro.viz.svg import PALETTE

        a = (np.arange(square8.n_leaves) % 3).astype(np.int64)
        svg = partition_to_svg(square8, a)
        for c in PALETTE[:3]:
            assert c in svg

    def test_assignment_must_align(self, square8):
        from repro.viz import partition_to_svg

        with pytest.raises(ValueError):
            partition_to_svg(square8, np.zeros(3))

    def test_3d_rejected(self, cube3):
        from repro.viz import mesh_to_svg

        with pytest.raises(ValueError):
            mesh_to_svg(cube3)

    def test_series_svg(self):
        from repro.viz import series_to_svg

        series = {
            "A": [{"step": 0, "moved": 1}, {"step": 1, "moved": 5}],
            "B": [{"step": 0, "moved": 2}, {"step": 1, "moved": 1}],
        }
        svg = series_to_svg(series, "moved", title="demo")
        assert "<polyline" in svg and "demo" in svg

    def test_save(self, square8, tmp_path):
        from repro.viz import mesh_to_svg, save_svg

        path = tmp_path / "m.svg"
        save_svg(path, mesh_to_svg(square8))
        assert path.read_text().startswith("<svg")


class TestDistributedSolver:
    def test_matches_serial_direct(self):
        from repro.fem import CornerLaplace2D, solve_poisson
        from repro.mesh import AdaptiveMesh
        from repro.pared import DistributedMesh, DistributedPoissonSolver
        from repro.runtime import spmd_run

        prob = CornerLaplace2D()

        def prog(comm):
            am = AdaptiveMesh.unit_square(6)
            am.refine_where(lambda c: (c[:, 0] > 0.2) & (c[:, 1] > 0.2))
            owner = np.arange(am.n_roots) % comm.size
            dm = DistributedMesh(comm, am, owner)
            solver = DistributedPoissonSolver(dm)
            u, its = solver.solve(g=prob.dirichlet, rtol=1e-11)
            return u, its, am

        results = spmd_run(3, prog)
        u0, its, am = results[0]
        u_ref = solve_poisson(am, g=prob.dirichlet)
        used = np.unique(am.leaf_cells().ravel())
        assert np.abs(u0[used] - u_ref[used]).max() < 1e-8
        for u, _, _ in results[1:]:
            assert np.allclose(u, u0)

    def test_poisson_with_source(self):
        from repro.fem import MovingPeakPoisson2D, solve_poisson
        from repro.mesh import AdaptiveMesh
        from repro.pared import DistributedMesh, DistributedPoissonSolver
        from repro.runtime import spmd_run

        prob = MovingPeakPoisson2D(0.0)

        def prog(comm):
            am = AdaptiveMesh.unit_square(8)
            owner = np.arange(am.n_roots) % comm.size
            dm = DistributedMesh(comm, am, owner)
            solver = DistributedPoissonSolver(dm)
            u, _ = solver.solve(f=prob.source, g=prob.dirichlet, rtol=1e-10)
            return u, am

        results = spmd_run(2, prog)
        u0, am = results[0]
        u_ref = solve_poisson(am, f=prob.source, g=prob.dirichlet)
        used = np.unique(am.leaf_cells().ravel())
        assert np.abs(u0[used] - u_ref[used]).max() < 1e-7

    def test_single_rank(self):
        from repro.fem import CornerLaplace2D
        from repro.mesh import AdaptiveMesh
        from repro.pared import DistributedMesh, DistributedPoissonSolver
        from repro.runtime import spmd_run

        prob = CornerLaplace2D()

        def prog(comm):
            am = AdaptiveMesh.unit_square(4)
            dm = DistributedMesh(comm, am, np.zeros(am.n_roots, dtype=np.int64))
            solver = DistributedPoissonSolver(dm)
            u, its = solver.solve(g=prob.dirichlet)
            return its

        assert spmd_run(1, prog)[0] > 0
