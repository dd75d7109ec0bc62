"""Tests for the extension modules: SVG rendering and the distributed
solver."""

import numpy as np
import pytest


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
