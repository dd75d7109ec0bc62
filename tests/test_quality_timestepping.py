"""Tests for mesh-quality reporting and the heat-equation time stepper."""

import numpy as np
import pytest

from repro.fem.timestepping import HeatEquationSolver, transfer_nodal
from repro.mesh import AdaptiveMesh
from repro.mesh.quality import (
    angle_bound_check,
    depth_histogram,
    leaf_quality,
    min_angles_2d,
    quality_report,
)


class TestQuality:
    def test_leaf_quality_range(self, adapted_square):
        q = leaf_quality(adapted_square)
        assert q.shape[0] == adapted_square.n_leaves
        assert np.all(q > 0) and np.all(q <= 1 + 1e-12)

    def test_quality_3d(self, adapted_cube):
        q = leaf_quality(adapted_cube)
        assert np.all(q > 0)

    def test_min_angles(self, square8):
        ang = min_angles_2d(square8)
        # right isoceles triangles: min angle 45 degrees
        assert np.allclose(np.degrees(ang), 45.0)

    def test_min_angles_needs_2d(self, cube3):
        with pytest.raises(ValueError):
            min_angles_2d(cube3)

    def test_depth_histogram(self, square8):
        square8.refine(square8.leaf_ids()[:4])
        hist = depth_histogram(square8)
        assert hist.sum() == square8.n_leaves
        assert hist[0] > 0 and hist[1] > 0

    def test_report_fields(self, adapted_square):
        rep = quality_report(adapted_square)
        for key in ("n_leaves", "quality_min", "quality_mean", "depth_max",
                    "min_angle_deg", "area_ratio"):
            assert key in rep
        assert rep["depth_max"] >= 1

    def test_rivara_angle_bound_holds(self):
        am = AdaptiveMesh.unit_square(4)
        rng = np.random.default_rng(0)
        for _ in range(6):
            leaves = am.leaf_ids()
            am.refine(leaves[rng.choice(len(leaves), size=max(1, len(leaves)//6),
                                        replace=False)])
        res = angle_bound_check(am)
        assert res["holds"], res

    def test_angle_bound_needs_2d(self, cube3):
        with pytest.raises(ValueError):
            angle_bound_check(cube3)


def _p1_interpolant(verts, cells, u, points) -> np.ndarray:
    """The P1 function ``u`` on triangles ``cells`` evaluated at
    ``points``, each through barycentric coordinates in a triangle that
    contains it."""
    a, b, c = (verts[cells[:, i]] for i in range(3))

    def cross(x, y):
        return x[..., 0] * y[..., 1] - x[..., 1] * y[..., 0]

    det = cross(b - a, c - a)
    out = np.empty(points.shape[0])
    for k, p in enumerate(points):
        l1, l2 = cross(p - a, c - a) / det, cross(b - a, p - a) / det
        lam = np.column_stack([1 - l1 - l2, l1, l2])
        t = np.flatnonzero((lam >= -1e-12).all(axis=1))[0]
        out[k] = lam[t] @ u[cells[t]]
    return out


class TestTransfer:
    def test_transfer_linear_exact(self):
        am = AdaptiveMesh.unit_square(4)
        lin = lambda p: 3 * p[:, 0] - p[:, 1] + 0.5
        u = lin(am.mesh.verts)
        am.refine(am.leaf_ids())
        u2 = transfer_nodal(am, u)
        # linear functions are reproduced exactly by midpoint interpolation
        assert np.allclose(u2, lin(am.mesh.verts))

    def test_transfer_nested_midpoints(self):
        am = AdaptiveMesh.unit_square(2)
        lin = lambda p: p[:, 0] ** 1  # x
        u = lin(am.mesh.verts)
        am.uniform_refine(3)  # several generations of midpoints at once
        u2 = transfer_nodal(am, u)
        assert np.allclose(u2, lin(am.mesh.verts))

    def test_transfer_interpolates_reactivated_midpoints(self):
        """Refine, step, coarsen, step, refine: the midpoints the second
        refinement brings back under their old ids (which the step on the
        coarse mesh pinned to 0) get the P1 interpolant of the last
        solution, as the fresh ones do — at every vertex the mesh uses."""
        am = AdaptiveMesh.unit_square(4)
        solver = HeatEquationSolver(am)
        u = solver.initial_condition(lambda p: np.cos(p[:, 0]) + p[:, 1] ** 2)
        am.refine(am.leaf_ids())
        u = solver.step(solver.transfer(u), 0.05, 0.05)
        am.coarsen(am.leaf_ids())
        u = solver.step(solver.transfer(u), 0.1, 0.05)
        cells, verts = am.leaf_cells().copy(), am.mesh.verts.copy()
        am.refine(am.leaf_ids())
        got = solver.transfer(u)
        used = np.unique(am.leaf_cells())
        assert np.count_nonzero(used < u.shape[0]) > np.unique(cells).size  # reactivated
        assert np.allclose(got[used], _p1_interpolant(verts, cells, u, am.mesh.verts[used]))

    def test_transfer_idempotent_without_adaptation(self, square8):
        u = np.arange(square8.mesh.n_verts, dtype=float)
        assert np.array_equal(transfer_nodal(square8, u), u)


class TestHeatEquation:
    def test_decay_to_boundary_value(self):
        """With f=0 and g=0 the solution decays toward zero."""
        am = AdaptiveMesh.unit_square(8)
        solver = HeatEquationSolver(am)
        bump = lambda p: np.exp(-4 * (p[:, 0] ** 2 + p[:, 1] ** 2))
        u = solver.initial_condition(bump)
        e0 = np.abs(u).max()
        for k in range(5):
            u = solver.step(u, t_new=(k + 1) * 0.05, dt=0.05)
        assert np.abs(u).max() < 0.7 * e0
        assert np.abs(u).max() > 0  # not instantly zero

    def test_steady_state_is_laplace_solution(self):
        """Long-time heat solution converges to the harmonic extension of
        the boundary data."""
        from repro.fem import CornerLaplace2D, solve_poisson

        prob = CornerLaplace2D()
        am = AdaptiveMesh.unit_square(8)
        solver = HeatEquationSolver(
            am, source=None, dirichlet=lambda p, t: prob.dirichlet(p)
        )
        u = solver.initial_condition(lambda p: np.zeros(len(p)))
        for k in range(30):
            u = solver.step(u, t_new=k * 0.2, dt=0.2)
        u_ref = solve_poisson(am, g=prob.dirichlet)
        used = np.unique(am.leaf_cells().ravel())
        assert np.abs(u[used] - u_ref[used]).max() < 5e-3

    def test_step_across_adaptation(self):
        am = AdaptiveMesh.unit_square(6)
        solver = HeatEquationSolver(am)
        u = solver.initial_condition(lambda p: np.exp(-((p**2).sum(axis=1))))
        u = solver.step(u, 0.05, 0.05)
        am.refine(am.leaf_ids()[:10])
        with pytest.raises(ValueError):
            solver.step(u, 0.1, 0.05)  # stale vector must be rejected
        u = solver.transfer(u)
        u = solver.step(u, 0.1, 0.05)
        assert np.all(np.isfinite(u))

    def test_tiny_step_is_near_identity(self):
        """One step with dt -> 0 changes a BC-compatible solution very
        little (the initial condition must vanish on the boundary, else the
        instantaneously imposed boundary value perturbs the first step)."""
        am = AdaptiveMesh.unit_square(6)
        solver = HeatEquationSolver(am)
        u0 = solver.initial_condition(
            lambda p: (1 - p[:, 0] ** 2) * (1 - p[:, 1] ** 2)
        )
        u1 = solver.step(u0, 1e-6, 1e-6)
        interior = np.setdiff1d(
            np.unique(am.leaf_cells().ravel()), am.mesh.boundary_vertices()
        )
        assert np.abs(u1[interior] - u0[interior]).max() < 1e-3
