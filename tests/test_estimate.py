"""The interpolation error indicator and the top-fraction marker.

``interpolation_error_indicator`` samples every edge midpoint and the
centroid in one array pass with two ``exact`` calls; the per-edge loop it
replaced is frozen in ``tests/_reference_kernels.py``, and both must give
the same bytes on adapted, coarsened, 3-D and one-element meshes.  The
call count is a machine-independent gate on that pass: a refactor back to
one ``exact`` call per sample fails here on any host.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.experiments.transient import adapt_step
from repro.fem import (
    CornerLaplace2D,
    CornerLaplace3D,
    MovingPeakPoisson2D,
    interpolation_error_indicator,
    mark_top_fraction,
)
from repro.geometry.generators import structured_tet_mesh
from repro.geometry.unstructured import delaunay_square_mesh
from repro.mesh import AdaptiveMesh
from repro.mesh.mesh2d import TriMesh
from repro.mesh.mesh3d import TetMesh

from tests._reference_kernels import interpolation_error_indicator_reference


def _corner2d() -> AdaptiveMesh:
    am = AdaptiveMesh.unit_square(8)
    exact = CornerLaplace2D().exact
    for _ in range(3):
        ind = interpolation_error_indicator_reference(am, exact)
        am.refine(mark_top_fraction(am, ind, 0.2))
    return am


def _peak_coarsened() -> AdaptiveMesh:
    am = AdaptiveMesh.unit_square(12)
    for t in (-0.6, -0.6, -0.6, -0.3):
        adapt_step(am, t, 3e-3, 3e-4)
    return am


def _cube3d() -> AdaptiveMesh:
    am = AdaptiveMesh.unit_cube(3)
    exact = CornerLaplace3D().exact
    for _ in range(2):
        ind = interpolation_error_indicator_reference(am, exact)
        am.refine(mark_top_fraction(am, ind, 0.2))
    return am


def _delaunay() -> AdaptiveMesh:
    return AdaptiveMesh(TriMesh(*delaunay_square_mesh(10, seed=3)))


def _jittered_cube() -> AdaptiveMesh:
    """Non-dyadic coordinates, so the centroid's sum order and the
    division by ``npc`` show in the last bits."""
    verts, tets = structured_tet_mesh(3, 3, 3)
    verts = verts + np.random.default_rng(5).uniform(-0.06, 0.06, verts.shape)
    am = AdaptiveMesh(TetMesh(verts, tets))
    am.refine(am.leaf_ids()[::3])
    return am


def _one_triangle() -> TriMesh:
    return TriMesh(np.array([[0.1, -0.3], [0.9, 0.2], [-0.4, 0.7]]), np.array([[0, 1, 2]]))


def _rough(pts) -> np.ndarray:
    """So oscillatory that a last-bit change in any sample point moves its
    error, and every sample (not only the edge midpoints) wins the max on
    some elements."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    arg = 1.0e3 * pts[:, 0] + 7.1e2 * pts[:, 1]
    if pts.shape[1] == 3:
        arg += 3.3e2 * pts[:, 2]
    return np.sin(arg)


class _Recorder:
    """An ``exact`` that keeps a copy of every point set it is called on."""

    def __init__(self, exact):
        self.exact = exact
        self.calls = []

    def __call__(self, pts):
        self.calls.append(np.array(pts, dtype=float))
        return self.exact(pts)


MESHES = {
    "corner2d": (_corner2d, CornerLaplace2D().exact),
    "peak_coarsened": (_peak_coarsened, MovingPeakPoisson2D(-0.3).exact),
    "cube3d": (_cube3d, CornerLaplace3D().exact),
    "delaunay": (_delaunay, CornerLaplace2D().exact),
    "one_triangle": (_one_triangle, MovingPeakPoisson2D(-0.2).exact),
    "delaunay_rough": (_delaunay, _rough),
    "jittered_cube_rough": (_jittered_cube, _rough),
}


def _same_bytes(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestIndicatorParity:
    @pytest.mark.parametrize("name", sorted(MESHES))
    @pytest.mark.parametrize("bare", [False, True], ids=["adaptive", "bare"])
    def test_matches_per_edge_loop(self, name, bare):
        make, exact = MESHES[name]
        mesh = make()
        if bare:
            mesh = getattr(mesh, "mesh", mesh)
        got = interpolation_error_indicator(mesh, exact)
        ref = interpolation_error_indicator_reference(mesh, exact)
        assert np.array_equal(got, ref)
        assert _same_bytes(got, ref)
        assert got.shape == (len(mesh.leaf_ids()),)

    @pytest.mark.parametrize("name", sorted(MESHES))
    def test_same_sample_points(self, name):
        """The one call sees the per-edge loop's points, byte for byte and
        in its order: the midpoints pair by pair, then the centroids."""
        make, exact = MESHES[name]
        mesh = make()
        got, ref = _Recorder(exact), _Recorder(exact)
        interpolation_error_indicator(mesh, got)
        interpolation_error_indicator_reference(mesh, ref)
        assert _same_bytes(got.calls[0], ref.calls[0])
        assert _same_bytes(got.calls[1], np.concatenate(ref.calls[1:]))

    def test_coarsened_mesh_has_unused_vertices(self):
        """The peak input really exercises vertices no leaf uses."""
        am = _peak_coarsened()
        used = np.unique(am.leaf_cells())
        assert used.size < am.mesh.verts.shape[0]

    @pytest.mark.parametrize("name", ["corner2d", "cube3d"])
    def test_exact_returning_a_list(self, name):
        make, exact = MESHES[name]
        mesh = make()

        def listed(pts):
            return exact(pts).tolist()

        assert _same_bytes(
            interpolation_error_indicator(mesh, listed),
            interpolation_error_indicator_reference(mesh, listed),
        )


class TestIndicatorCalls:
    @pytest.mark.parametrize("name", ["corner2d", "cube3d", "one_triangle"])
    def test_exact_called_twice(self, name):
        make, exact = MESHES[name]
        mesh = make()
        counted = _Recorder(exact)
        interpolation_error_indicator(mesh, counted)
        n, npc = mesh.leaf_cells().shape
        # the vertices, then every midpoint and centroid at once
        assert [len(pts) for pts in counted.calls] == [
            getattr(mesh, "mesh", mesh).n_verts,
            (npc * (npc - 1) // 2 + 1) * n,
        ]


class TestMarkTopFraction:
    @given(
        values=st.lists(
            st.sampled_from([0.0, 0.5, 0.5000000000000001, 2.0]),
            min_size=128,
            max_size=128,
        ),
        fraction=st.floats(0.0, 1.0),
    )
    def test_contract_with_ties(self, values, fraction):
        self._check(AdaptiveMesh.unit_square(8), np.array(values), fraction)

    @pytest.mark.parametrize("fraction", [0.0, 0.001, 0.1, 0.25, 0.5, 0.9, 1.0])
    def test_constant_indicator(self, fraction):
        am = AdaptiveMesh.unit_square(8)
        self._check(am, np.full(len(am.leaf_ids()), 0.25), fraction)

    @staticmethod
    def _check(am, indicator, fraction):
        leaves = am.leaf_ids()
        n = len(leaves)
        marked = mark_top_fraction(am, indicator, fraction)
        assert len(marked) == max(1, round(fraction * n))
        assert len(np.unique(marked)) == len(marked)
        assert np.isin(marked, leaves).all()
        hit = np.isin(leaves, marked)
        if not hit.all():
            assert indicator[hit].min() >= indicator[~hit].max()
