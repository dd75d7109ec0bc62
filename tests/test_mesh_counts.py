"""The compiled counts over the leaves (``weigh``, ``cut_count`` and
``shared_count`` in ``mesh/_meshcore.c``) against their numpy oracles in
``tests/_mesh_oracle.py``.

Along Hypothesis-drawn refine / coarsen scripts in 2-D and 3-D:

* ``coarse_dual_graph`` (``weigh`` over every root) equals the numpy slot
  walk, array for array;
* ``coarse_dual_graph`` given one rank's roots (``weigh`` over them)
  equals the oracle's graph on that rank's rows and is zero elsewhere, the
  ranks' rows add up to the whole graph, and the weight report read off
  them equals the one read off the whole graph, keys ascending;
* ``cut_size`` / ``shared_vertex_count`` equal the numpy bodies on any leaf
  assignment: labels that are not dense, not induced by the trees, one part.

A hand-corrupted ``_nbr`` raises each of the recount's two ``ValueError``\\ s,
and a failed scratch allocation ``MemoryError``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.unstructured import delaunay_square_mesh
from repro.mesh import AdaptiveMesh, TriMesh, _meshnative
from repro.mesh.dualgraph import coarse_dual_graph
from repro.mesh.metrics import cut_size, shared_vertex_count
from repro.pared.weights import full_weight_report

from tests import _mesh_oracle as oracle

_MESHES = {
    "structured": lambda: AdaptiveMesh.unit_square(4),
    "delaunay": lambda: AdaptiveMesh(TriMesh(*delaunay_square_mesh(5, seed=3))),
    "cube": lambda: AdaptiveMesh.unit_cube(2),
}

#: (coarsen?, leaf-selection seed, fraction of the leaves marked)
_STEPS = st.lists(
    st.tuples(st.booleans(), st.integers(0, 2**16), st.sampled_from([0.1, 0.3, 1.0])),
    min_size=1,
    max_size=4,
)


def _adapt(am, step) -> None:
    coarsen, seed, fraction = step
    leaves = am.leaf_ids()
    marked = leaves[np.random.default_rng(seed).random(leaves.size) < fraction]
    (am.coarsen if coarsen else am.refine)(marked)


def _meshes(kind, steps):
    """The mesh after each step of the script (the same object, adapted)."""
    am = _MESHES[kind]()
    yield am.mesh
    for step in steps:
        _adapt(am, step)
        yield am.mesh


def _assert_same_graph(got, want) -> None:
    for name in ("xadj", "adjncy", "ewts", "vwts"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def _assert_rows(mesh, owner: np.ndarray, p: int) -> None:
    want = oracle.coarse_dual_graph(mesh)
    src = want.edge_src
    vsum = np.zeros_like(want.vwts)
    esum = np.zeros_like(want.ewts)
    for rank in range(p):
        roots = np.flatnonzero(owner == rank)
        got = coarse_dual_graph(mesh, roots)
        assert got.xadj is want.xadj and got.adjncy is want.adjncy
        mine, row = owner == rank, owner[src] == rank
        assert np.array_equal(got.vwts[mine], want.vwts[mine])
        assert not got.vwts[~mine].any()
        assert np.array_equal(got.ewts[row], want.ewts[row])
        assert not got.ewts[~row].any()
        vsum += got.vwts
        esum += got.ewts
        report = full_weight_report(got, owner, rank)
        expect = full_weight_report(want, owner, rank)
        for key in ("v_ids", "v_wts", "e_keys", "e_wts"):
            assert report[key].dtype == expect[key].dtype
            assert np.array_equal(report[key], expect[key]), key
        assert np.all(np.diff(report["e_keys"]) > 0)
    assert np.array_equal(vsum, want.vwts) and np.array_equal(esum, want.ewts)


def _labelings(mesh, seed: int) -> list:
    """Leaf assignments the counts must get right: random labels from a
    sparse, signed set (not tree-induced), labels induced by a random owner
    map of the trees, and a single part."""
    rng = np.random.default_rng(seed)
    n = mesh.n_leaves
    sparse = rng.choice(np.array([-7, 3, 1000, 2**40]), n)
    induced = rng.integers(0, 3, mesh.n_roots)[mesh.leaf_roots()]
    return [sparse, induced, np.zeros(n, dtype=np.int64), np.full(n, 5)]


@pytest.mark.parametrize("kind", sorted(_MESHES))
class TestWeigh:
    @settings(max_examples=10, deadline=None)
    @given(steps=_STEPS)
    def test_all_roots_equal_the_oracle(self, kind, steps):
        for mesh in _meshes(kind, steps):
            _assert_same_graph(coarse_dual_graph(mesh), oracle.coarse_dual_graph(mesh))

    @settings(max_examples=10, deadline=None)
    @given(steps=_STEPS, p=st.integers(1, 5), seed=st.integers(0, 2**16))
    def test_owned_rows_equal_the_oracle_rows(self, kind, steps, p, seed):
        for mesh in _meshes(kind, steps):
            owner = np.random.default_rng(seed).integers(0, p, mesh.n_roots)
            _assert_rows(mesh, owner, p)

    def test_a_root_given_twice_counts_once(self, kind):
        am = _MESHES[kind]()
        _adapt(am, (False, 0, 0.3))
        mesh = am.mesh
        roots = np.arange(0, mesh.n_roots, 3)
        once = _meshnative.weigh(mesh, roots)
        twice = _meshnative.weigh(mesh, np.repeat(roots, 2))
        assert all(np.array_equal(a, b) for a, b in zip(once, twice))

    def test_no_slot_raises(self, kind):
        """A leaf pair across trees whose roots share no facet of ``M^0``."""
        mesh = _MESHES[kind]().mesh
        far = mesh.n_roots - 1
        skeleton = mesh.coarse_skeleton()
        assert far not in skeleton.adjncy[: skeleton.xadj[1]]
        local = int(np.argmax(mesh._nbr.data[0] >= 0))
        mesh._nbr.data[0, local] = far
        for roots in (None, [0]):
            with pytest.raises(ValueError, match="share no facet"):
                _meshnative.weigh(mesh, roots)
        with pytest.raises(ValueError, match="share no facet"):
            oracle.coarse_dual_graph(mesh)
        _meshnative.weigh(mesh, [far])  # far's own rows are intact

    def test_empty_slot_raises(self, kind):
        """A facet of ``M^0`` across which no leaf pair remains."""
        mesh = _MESHES[kind]().mesh
        local = int(np.argmax(mesh._nbr.data[0] >= 0))
        other = int(mesh._nbr.data[0, local])
        mesh._nbr.data[0, local] = -1
        mesh._nbr.data[other][mesh._nbr.data[other] == 0] = -1
        for roots in (None, [0], [other]):
            with pytest.raises(ValueError, match="no leaf pair"):
                _meshnative.weigh(mesh, roots)
        with pytest.raises(ValueError, match="no leaf pair"):
            oracle.coarse_dual_graph(mesh)

    def test_root_out_of_range_raises(self, kind):
        mesh = _MESHES[kind]().mesh
        for roots in ([-1], [mesh.n_roots]):
            with pytest.raises(ValueError, match="outside"):
                _meshnative.weigh(mesh, roots)


@pytest.mark.parametrize("kind", sorted(_MESHES))
class TestCutAndShared:
    @settings(max_examples=10, deadline=None)
    @given(steps=_STEPS, seed=st.integers(0, 2**16))
    def test_equal_the_numpy_counts(self, kind, steps, seed):
        for mesh in _meshes(kind, steps):
            for labels in _labelings(mesh, seed):
                assert cut_size(mesh, labels) == oracle.cut_size(mesh, labels)
                assert shared_vertex_count(mesh, labels) == oracle.shared_vertex_count(
                    mesh, labels
                )

    def test_one_part_counts_nothing(self, kind):
        mesh = _MESHES[kind]().mesh
        labels = np.ones(mesh.n_leaves)
        assert _meshnative.cut_count(mesh, labels) == 0
        assert _meshnative.shared_count(mesh, labels) == 0

    def test_wrong_length_raises(self, kind):
        mesh = _MESHES[kind]().mesh
        labels = np.zeros(mesh.n_leaves + 1, dtype=np.int64)
        for count in (cut_size, shared_vertex_count):
            with pytest.raises(ValueError, match="labels for"):
                count(mesh, labels)


def test_counts_on_the_empty_mesh():
    mesh = TriMesh(np.empty((0, 2)), np.empty((0, 3), dtype=np.int64))
    labels = np.empty(0, dtype=np.int64)
    assert _meshnative.cut_count(mesh, labels) == 0
    assert _meshnative.shared_count(mesh, labels) == 0
    vwts, ewts = _meshnative.weigh(mesh)
    assert vwts.size == 0 and ewts.size == 0


@pytest.mark.parametrize("count", ["weigh", "cut", "shared"])
def test_failed_scratch_allocation_raises(count):
    mesh = _MESHES["structured"]().mesh
    labels = np.arange(mesh.n_leaves)
    call = {
        "weigh": lambda: _meshnative.weigh(mesh),
        "cut": lambda: cut_size(mesh, labels),
        "shared": lambda: shared_vertex_count(mesh, labels),
    }[count]
    lib = _meshnative.load()
    lib.meshcore_fail_after(0)
    try:
        with pytest.raises(MemoryError, match="could not allocate"):
            call()
    finally:
        lib.meshcore_fail_after(-1)
    call()
