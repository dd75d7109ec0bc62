"""Tests for the P1 FEM substrate: assembly, BCs, solves, estimators,
problems."""

import numpy as np
import pytest

from repro.fem import (
    CornerLaplace2D,
    CornerLaplace3D,
    MovingPeakPoisson2D,
    apply_dirichlet,
    fem_solution_error,
    gradient_jump_indicator,
    gradients,
    interpolation_error_indicator,
    load_vector,
    mark_over_threshold,
    mark_top_fraction,
    mark_under_threshold,
    mass_matrix,
    solve_poisson,
    stiffness_matrix,
)
from repro.mesh import AdaptiveMesh


class TestAssembly:
    def test_stiffness_reference_triangle(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        A = stiffness_matrix(verts, np.array([[0, 1, 2]])).toarray()
        expected = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
        assert np.allclose(A, expected)

    def test_stiffness_symmetric_psd(self, adapted_square):
        A = stiffness_matrix(adapted_square.mesh.verts, adapted_square.leaf_cells())
        assert abs(A - A.T).max() < 1e-12
        # kernel = constants: row sums zero
        assert np.allclose(np.asarray(A.sum(axis=1)).ravel(), 0.0, atol=1e-12)

    def test_stiffness_kills_constants_3d(self, adapted_cube):
        A = stiffness_matrix(adapted_cube.mesh.verts, adapted_cube.leaf_cells())
        ones = np.ones(A.shape[0])
        assert np.abs(A @ ones).max() < 1e-10

    def test_mass_matrix_integrates_one(self, square8):
        M = mass_matrix(square8.mesh.verts, square8.leaf_cells())
        ones = np.ones(M.shape[0])
        assert ones @ M @ ones == pytest.approx(4.0)  # domain area

    def test_mass_matrix_3d_volume(self, cube3):
        M = mass_matrix(cube3.mesh.verts, cube3.leaf_cells())
        ones = np.ones(M.shape[0])
        assert ones @ M @ ones == pytest.approx(8.0)

    def test_load_vector_constant(self, square8):
        b = load_vector(square8.mesh.verts, square8.leaf_cells(), lambda p: np.ones(len(p)))
        assert b.sum() == pytest.approx(4.0)

    def test_gradients_of_linear_exact(self, square8):
        g, meas = gradients(square8.mesh.verts, square8.leaf_cells())
        cells = square8.leaf_cells()
        # u = 3x - 2y: each element's reconstructed gradient is (3, -2)
        u = 3 * square8.mesh.verts[:, 0] - 2 * square8.mesh.verts[:, 1]
        gu = np.einsum("eid,ei->ed", g, u[cells])
        assert np.allclose(gu, [3.0, -2.0])

    def test_non_simplex_rejected(self):
        with pytest.raises(ValueError):
            gradients(np.zeros((4, 2)), np.array([[0, 1, 2, 3]]))


class TestDirichlet:
    def test_constraint_enforced(self, square8):
        mesh = square8.mesh
        A = stiffness_matrix(mesh.verts, mesh.leaf_cells())
        b = np.zeros(A.shape[0])
        nodes = mesh.boundary_vertices()
        vals = np.ones(nodes.shape[0])
        A2, b2 = apply_dirichlet(A, b, nodes, vals)
        import scipy.sparse.linalg as spla

        u = spla.spsolve(A2.tocsc(), b2)
        # Laplace with u=1 on the boundary -> u = 1 everywhere
        assert np.allclose(u, 1.0, atol=1e-10)

    def test_shapes_validated(self):
        import scipy.sparse as sp

        with pytest.raises(ValueError):
            apply_dirichlet(sp.eye(3).tocsr(), np.zeros(3), [0, 1], [1.0])


class TestSolver:
    def test_linear_solution_exact(self, square8):
        # harmonic u = x + 2y is reproduced exactly by P1
        lin = lambda p: p[:, 0] + 2 * p[:, 1]
        u = solve_poisson(square8, f=None, g=lin)
        err = fem_solution_error(square8, u, lin)
        assert err["linf"] < 1e-10

    def test_corner_laplace_converges(self):
        prob = CornerLaplace2D()
        errs = []
        for n in (8, 16):
            am = AdaptiveMesh.unit_square(n)
            u = solve_poisson(am, f=None, g=prob.dirichlet)
            errs.append(fem_solution_error(am, u, prob.exact)["linf"])
        assert errs[1] < 0.5 * errs[0]

    def test_moving_peak_poisson(self):
        prob = MovingPeakPoisson2D(0.0)
        am = AdaptiveMesh.unit_square(16)
        for _ in range(4):
            ind = interpolation_error_indicator(am, prob.exact)
            am.refine(mark_top_fraction(am, ind, 0.25))
        u = solve_poisson(am, f=prob.source, g=prob.dirichlet)
        err = fem_solution_error(am, u, prob.exact)
        assert err["linf"] < 0.05

    def test_cg_matches_direct(self, square8):
        prob = CornerLaplace2D()
        u1 = solve_poisson(square8, g=prob.dirichlet, method="direct")
        u2 = solve_poisson(square8, g=prob.dirichlet, method="cg")
        assert np.allclose(u1, u2, atol=1e-7)

    def test_3d_solve(self, cube3):
        prob = CornerLaplace3D()
        u = solve_poisson(cube3, f=None, g=prob.dirichlet)
        err = fem_solution_error(cube3, u, prob.exact)
        assert err["linf"] < 0.4  # coarse mesh, sharp solution


class TestProblems:
    def test_2d_harmonic(self):
        prob = CornerLaplace2D()
        rng = np.random.default_rng(0)
        pts = rng.uniform(-0.8, 0.8, (10, 2))
        h = 1e-4
        lap = np.zeros(10)
        for d in range(2):
            e = np.zeros(2)
            e[d] = h
            lap += (prob.exact(pts + e) - 2 * prob.exact(pts) + prob.exact(pts - e)) / h**2
        assert np.abs(lap).max() < 1e-4

    def test_3d_harmonic(self):
        prob = CornerLaplace3D()
        rng = np.random.default_rng(0)
        pts = rng.uniform(-0.8, 0.8, (10, 3))
        h = 1e-4
        lap = np.zeros(10)
        for d in range(3):
            e = np.zeros(3)
            e[d] = h
            lap += (prob.exact(pts + e) - 2 * prob.exact(pts) + prob.exact(pts - e)) / h**2
        # relative to the magnitude scale of the solution at these points
        assert np.abs(lap).max() < 1e-3

    def test_3d_peaks_at_corner(self):
        prob = CornerLaplace3D()
        assert prob.exact(np.array([[1.0, 1.0, 1.0]]))[0] == pytest.approx(1.0)
        assert abs(prob.exact(np.array([[-1.0, -1.0, -1.0]]))[0]) < 1e-6

    def test_moving_peak_source_consistent(self):
        prob = MovingPeakPoisson2D(0.3)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-0.9, 0.9, (10, 2))
        h = 1e-4
        lap = np.zeros(10)
        for d in range(2):
            e = np.zeros(2)
            e[d] = h
            lap += (prob.exact(pts + e) - 2 * prob.exact(pts) + prob.exact(pts - e)) / h**2
        assert np.abs(prob.source(pts) + lap).max() < 1e-4

    def test_peak_moves(self):
        p1 = MovingPeakPoisson2D(-0.5)
        p2 = p1.at(0.5)
        assert p1.peak() == (0.5, 0.5)
        assert p2.peak() == (-0.5, -0.5)
        assert p1.exact(np.array([[0.5, 0.5]]))[0] == pytest.approx(1.0)


class TestEstimators:
    def test_interpolation_indicator_zero_for_linear(self, square8):
        lin = lambda p: 2 * p[:, 0] - p[:, 1]
        ind = interpolation_error_indicator(square8, lin)
        assert np.abs(ind).max() < 1e-12

    def test_indicator_concentrates_at_corner(self, square8):
        prob = CornerLaplace2D()
        ind = interpolation_error_indicator(square8, prob.exact)
        cents = square8.leaf_centroids()
        worst = cents[np.argmax(ind)]
        assert worst[0] > 0.5 and worst[1] > 0.5

    def test_gradient_jump_zero_for_linear(self, square8):
        u = 2 * square8.mesh.verts[:, 0] - square8.mesh.verts[:, 1]
        eta = gradient_jump_indicator(square8, u)
        assert np.abs(eta).max() < 1e-10

    def test_marking_helpers(self, square8):
        ind = np.linspace(0, 1, square8.n_leaves)
        over = mark_over_threshold(square8, ind, 0.9)
        under = mark_under_threshold(square8, ind, 0.1)
        top = mark_top_fraction(square8, ind, 0.25)
        assert len(over) + len(under) < square8.n_leaves
        assert len(top) == round(0.25 * square8.n_leaves)
        # top fraction contains the single largest indicator
        assert square8.leaf_ids()[np.argmax(ind)] in top
