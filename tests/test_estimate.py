"""The interpolation error indicator and the top-fraction marker.

``interpolation_error_indicator`` samples every edge midpoint and the
centroid in one array pass with two ``exact`` calls; the per-edge loop it
replaced is frozen in ``tests/_reference_kernels.py``, and both must give
the same bytes on adapted, coarsened, 3-D and one-element meshes.  The
call count is a machine-independent gate on that pass: a refactor back to
one ``exact`` call per sample fails here on any host.

A mesh keeps its samples of a problem's bound method between calls, so
a later call samples only the leaves it has not seen.  The parity scripts
below interleave refinement, coarsening (and so reactivated elements) and
calls with the same problem, another instance and a plain callable, and
hold every call to the reference's bytes; the sample counts are asserted
through ``PERF``.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
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
from repro.perf import PERF

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


# ---------------------------------------------------------------------- #
# the samples a mesh keeps between calls
# ---------------------------------------------------------------------- #


def _counted(fn):
    """``fn()`` and the leaves it sampled and returned, read off the
    ``PERF`` counters."""
    names = ("fem.indicator.sampled", "fem.indicator.leaves")
    before = [PERF.calls[n] for n in names]
    out = fn()
    sampled, leaves = (PERF.calls[n] - b for n, b in zip(names, before))
    return out, sampled, leaves


def _check_call(am, exact, *, bare=False):
    """One indicator call held to the reference's bytes; returns the
    leaves it sampled."""
    mesh = am.mesh if bare else am
    got, sampled, leaves = _counted(lambda: interpolation_error_indicator(mesh, exact))
    assert _same_bytes(got, interpolation_error_indicator_reference(am, exact))
    assert leaves == len(am.leaf_ids())
    return sampled


#: (mesh factory, problem, another instance of its class)
STORE_CASES = {
    "corner2d": (lambda: AdaptiveMesh.unit_square(4), CornerLaplace2D(), CornerLaplace2D()),
    "peak2d": (
        lambda: AdaptiveMesh.unit_square(4),
        MovingPeakPoisson2D(-0.3),
        MovingPeakPoisson2D(0.1),
    ),
    "corner3d": (lambda: AdaptiveMesh.unit_cube(2), CornerLaplace3D(), CornerLaplace3D()),
}

_STEPS = st.lists(
    st.tuples(
        st.sampled_from(["refine", "coarsen", "same", "other", "plain"]),
        st.integers(0, 2**32 - 1),
    ),
    min_size=1,
    max_size=10,
)


class TestIndicatorStore:
    @pytest.mark.parametrize("name", sorted(STORE_CASES))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(steps=_STEPS)
    def test_scripts_match_the_reference(self, name, steps):
        """Refine / coarsen scripts with calls in between: every call has
        the reference's bytes, whichever callable the previous call used,
        reactivated elements included."""
        make, prob, other = STORE_CASES[name]
        am = make()
        for op, seed in steps:
            rng = np.random.default_rng(seed)
            leaves = am.leaf_ids()
            if op == "refine":
                am.refine(leaves[rng.random(leaves.size) < 0.3])
            elif op == "coarsen":
                am.coarsen(leaves[rng.random(leaves.size) < 0.9])
            else:
                exact = {
                    "same": prob.exact,
                    "other": other.exact,
                    "plain": lambda pts: prob.exact(pts),
                }[op]
                _check_call(am, exact, bare=bool(seed & 1))

    @pytest.mark.parametrize("name", sorted(STORE_CASES))
    def test_counts(self, name):
        """A call samples exactly the leaves no earlier call returned: a
        repeat call none, a call after ``refine`` the new leaves, and
        coarsening then refining the same parents (which reactivates
        their children) only what was never a leaf at a call."""
        make, prob, _ = STORE_CASES[name]
        am = make()
        seen = set()

        def call(bare=False):
            leaves = set(am.leaf_ids().tolist())
            sampled = _check_call(am, prob.exact, bare=bare)
            assert sampled == len(leaves - seen)
            seen.update(leaves)
            return sampled

        assert call() == len(am.leaf_ids())
        assert call() == 0
        for _ in range(3):  # the store's spare capacity gets used too
            am.refine(am.leaf_ids()[::5])
            assert call() > 0
        parents = am.coarsen(am.leaf_ids())
        assert parents
        call()
        n = am.mesh.n_elements
        am.refine(parents)
        reactivated = am.leaf_ids()[am.leaf_ids() < n]
        assert len(reactivated) > len(parents)
        call(bare=True)
        assert call() == 0

    @pytest.mark.parametrize("name", sorted(STORE_CASES))
    def test_only_the_same_instance_and_method_hit(self, name):
        make, prob, _ = STORE_CASES[name]
        am = make()
        n = len(am.leaf_ids())
        twin = dataclasses.replace(prob)  # equal value, another instance
        assert twin == prob and twin is not prob
        _check_call(am, prob.exact)
        assert _check_call(am, twin.exact) == n
        assert _check_call(am, prob.exact) == n
        assert _check_call(am, prob.dirichlet) == n  # another method
        assert _check_call(am, prob.dirichlet) == 0

    def test_other_callables_sample_every_leaf_and_keep_nothing(self):
        am = AdaptiveMesh.unit_square(4)
        prob = CornerLaplace2D()
        n = len(am.leaf_ids())
        _check_call(am, prob.exact)
        for exact in (
            lambda pts: prob.exact(pts),
            functools.partial(CornerLaplace2D.exact, prob),
            _Recorder(prob.exact),
            _rough,
        ):
            assert _check_call(am, exact) == n
            assert am.mesh._indicator_store is None
            assert _check_call(am, exact) == n
        assert _check_call(am, prob.exact) == n


_PROBLEMS = [
    CornerLaplace2D(),
    CornerLaplace3D(),
    MovingPeakPoisson2D(-0.3),
    MovingPeakPoisson2D(0.27),
]


class TestProblemsAreValues:
    @pytest.mark.parametrize("prob", _PROBLEMS, ids=repr)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_exact_is_elementwise(self, prob, data):
        """A point's value does not depend on the other points of the call:
        any subset, in any order, gives the full array's bits."""
        seed = data.draw(st.integers(0, 2**32 - 1))
        n = data.draw(st.integers(1, 300))
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-1.0, 1.0, (n, prob.dim))
        full = prob.exact(pts)
        pick = rng.permutation(n)[: data.draw(st.integers(1, n))]
        assert _same_bytes(prob.exact(pts[pick]), full[pick])
        assert _same_bytes(prob.exact(np.ascontiguousarray(pts[pick[::-1]])), full[pick[::-1]])

    @pytest.mark.parametrize("prob", _PROBLEMS, ids=repr)
    def test_fields_are_read_only(self, prob):
        with pytest.raises(AttributeError):
            prob.dim = 5
        if isinstance(prob, MovingPeakPoisson2D):
            with pytest.raises(AttributeError):
                prob.t = 0.0
            assert prob.at(0.0).t == 0.0 and prob.t != 0.0
