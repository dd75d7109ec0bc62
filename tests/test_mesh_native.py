"""The compiled mesh kernels (``mesh/_meshcore.c``) against their
numpy/Python oracle (``tests/_mesh_oracle.py``), id for id.

Every script runs twice from the same input — in 2-D a :class:`TriMesh`
refined by the compiled ``rivara.refine`` and an ``OracleTriMesh`` refined
by the numpy waves, both coarsened by ``coarsen`` (whose stitch is compiled
on the first and numpy on the second); in 3-D a :class:`TetMesh` refined
by the compiled ``rivara.refine`` and an ``OracleTetMesh`` refined by the
Python waves — and the two meshes must agree on every array the kernels
write: the forest's six arrays and counters, cells, vertices, ``_nbr``
(stale rows of refined elements included), ``_le`` (the roots' from the
compiled ``fresh`` against the oracle's numpy rule), the midpoint memo in
insertion order, and the bisected / merged lists the calls return; the
read-only walk must visit what the oracle's first wave walks.  The compiled call
must also grow its storage exactly, and whatever it raises — the
propagation limit, a failed scratch allocation — leave whole waves behind:
the oracle's state after the same waves, a conformal mesh.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.geometry import delaunay_square_mesh
from repro.geometry.generators import structured_tet_mesh, structured_tri_mesh
from repro.mesh import _meshnative
from repro.mesh.coarsen import coarsen
from repro.mesh.forest import LEAF
from repro.mesh.growable import IntMap
from repro.mesh.mesh2d import TriMesh
from repro.mesh.mesh3d import TetMesh
from repro.mesh import rivara
from repro.mesh.rivara import PropagationLimitError

from tests import _mesh_oracle as oracle
from tests.test_mesh_kernel_equivalence import _tie_strip


class _Recorder:
    """Stands in for the loaded library and records the status codes of
    ``refine``."""

    def __init__(self, lib):
        self.lib = lib
        self.statuses = []

    def refine(self, *args):
        status = self.lib.refine(*args)
        self.statuses.append(status)
        return status

    def __getattr__(self, name):
        return getattr(self.lib, name)


@pytest.fixture()
def recorder(monkeypatch):
    rec = _Recorder(_meshnative.load())
    monkeypatch.setattr(_meshnative, "load", lambda: rec)
    return rec


def _input(kind: str, seed: int = 0):
    if kind == "structured":
        return structured_tri_mesh(6, 5)
    if kind == "ties":
        return _tie_strip(7)
    return delaunay_square_mesh(8, seed=seed)


def _state(mesh) -> list:
    f = mesh.forest
    return [
        f.parent_array, f.child0_array, f.child1_array, f.root_array,
        f.depth_array, f.status_array,
        np.array([f.n_roots, f.n_leaves, f.version, len(f)]),
        mesh.cells, mesh.verts, mesh._nbr.data, mesh._le.data,
        mesh._midpoint.keys_array, mesh._midpoint.values_array,
    ]


def _assert_same(a, b) -> None:
    for x, y in zip(_state(a), _state(b), strict=True):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert np.array_equal(x, y)


def _script(mesh, seed: int, ops: str, refine=rivara.refine) -> list:
    """``r`` refines, ``c`` coarsens a random 30 % of the leaves; returns
    what every call returned."""
    rng = np.random.default_rng(seed)
    out = []
    for op in ops:
        leaves = mesh.leaf_ids()
        marked = rng.choice(leaves, size=max(1, int(0.3 * leaves.size)), replace=False)
        out.append(refine(mesh, marked) if op == "r" else coarsen(mesh, marked))
    return out


#: per dimension: (mesh class, oracle mesh class, oracle refine)
KERNELS = {
    2: (TriMesh, oracle.OracleTriMesh, oracle.refine2d),
    3: (TetMesh, oracle.OracleTetMesh, oracle.refine3d),
}


def _both(build, run, dim=2):
    """``run(mesh, refine)`` on ``build(TriMesh)`` with the compiled
    ``rivara.refine``, then on ``build(OracleTriMesh)`` with the numpy waves
    (in 3-D: ``TetMesh`` and ``OracleTetMesh``, the compiled
    ``rivara.refine`` and the Python waves): ``(native mesh, native result,
    oracle mesh, oracle result)``."""
    cls, oracle_cls, oracle_refine = KERNELS[dim]
    native = build(cls)
    got = run(native, rivara.refine)
    reference = build(oracle_cls)
    want = run(reference, oracle_refine)
    return native, got, reference, want


SCRIPTS = ["rrcr", "rrccrrcr", "rcrcrc"]


@pytest.mark.parametrize("kind", ["structured", "delaunay", "ties"])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("ops", SCRIPTS)
def test_scripts_are_id_exact(kind, seed, ops):
    verts, cells = _input(kind, seed)
    native, got, reference, want = _both(
        lambda cls: cls(verts, cells), lambda m, refine: _script(m, seed, ops, refine)
    )
    assert got == want
    _assert_same(native, reference)
    native.check_adjacency()
    native.check_conformal()
    native.forest.validate()


def _reactivate(mesh, refine) -> list:
    """Refine, coarsen until nothing merges, refine again."""
    out = _script(mesh, 3, "rrr", refine)
    while coarsen(mesh, mesh.leaf_ids()):
        pass
    assert mesh.n_leaves == mesh.n_roots
    stored = mesh.n_elements
    out += _script(mesh, 4, "r", refine)
    # most parents got their stored children back, not new ones
    assert mesh.n_elements - stored < len(out[-1])
    out += _script(mesh, 5, "rr", refine)
    return out


@pytest.mark.parametrize("kind", ["structured", "delaunay"])
def test_coarsen_to_roots_then_refine_reactivates(kind):
    """Refine, coarsen until nothing merges, refine again: the compiled
    wave reactivates INACTIVE children and reuses memoized midpoints."""
    verts, cells = _input(kind, 3)
    native, got, reference, want = _both(lambda cls: cls(verts, cells), _reactivate)
    assert got == want
    _assert_same(native, reference)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize(
    "duplicate", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))], ids=["deepcopy", "pickle"]
)
def test_a_copied_mesh_refines_like_the_original(dim, duplicate):
    """A deep copy and a pickled-and-loaded copy of a refined mesh own
    their storage: refining and coarsening the copy leaves the original as
    it was, and the original, run the same way, ends id for id where the
    copy did."""
    verts, cells = _input("delaunay", 6) if dim == 2 else _input3d("jittered", 6)
    mesh = KERNELS[dim][0](verts, cells)
    _script(mesh, 6, "rrc")
    twin = duplicate(mesh)
    before = [a.copy() for a in _state(mesh)]
    got = _script(twin, 7, "rrcr")
    for x, y in zip(before, _state(mesh), strict=True):
        assert np.array_equal(x, y)
    assert _script(mesh, 7, "rrcr") == got
    _assert_same(twin, mesh)
    twin.check_adjacency()
    twin.check_conformal()


def _squeeze(mesh, elements: int) -> None:
    """Shrink the element-indexed buffers to ``elements`` rows and the
    vertex buffer and memo to their live length, through the storage's
    one allocation point (which records each new buffer's address)."""
    for g in _meshnative._element_storage(mesh):
        g._allocate(elements)
    mesh._pts._allocate(len(mesh._pts))
    memo = IntMap(capacity=1)
    memo.add_new(mesh._midpoint.keys_array.copy(), mesh._midpoint.values_array.copy())
    mesh._midpoint = memo


def _first_wave_elements(build, targets, monkeypatch, dim=2) -> int:
    """``n_elements`` after the first wave of the oracle's
    ``refine2d(build(OracleTriMesh), targets)`` (in 3-D: of
    ``refine3d(build(OracleTetMesh), targets)``)."""
    sizes = []
    if dim == 2:
        mesh = build(oracle.OracleTriMesh)
        real = mesh.bisect_many
        monkeypatch.setattr(mesh, "bisect_many", lambda p: (real(p), sizes.append(mesh.n_elements)))
        oracle.refine2d(mesh, targets)
    else:
        mesh = build(oracle.OracleTetMesh)
        real = oracle._bisect_stars
        oracle._bisect_stars = lambda m, p: (real(m, p), sizes.append(m.n_elements))
        try:
            oracle.refine3d(mesh, targets)
        finally:
            oracle._bisect_stars = real
    assert len(sizes) > 1
    return sizes[0]


def _setup(seed, dim=2):
    verts, cells = _input("delaunay", seed) if dim == 2 else _input3d("jittered", seed)

    def base(cls):
        mesh = cls(verts, cells)
        _script(mesh, seed, "rr")
        return mesh

    return base, base(KERNELS[dim][0]).leaf_ids()[::2].copy()


def _grow_and_resume(recorder, monkeypatch, room, dim):
    base, targets = _setup(5, dim)
    rows = 0 if room == "none" else _first_wave_elements(base, targets, monkeypatch, dim)

    def build(cls):
        mesh = base(cls)
        _squeeze(mesh, max(rows, mesh.n_elements))
        return mesh

    native, got, reference, want = _both(build, lambda m, refine: refine(m, targets), dim)
    assert recorder.statuses[0] == _meshnative._GROW
    assert recorder.statuses[-1] == _meshnative._DONE
    assert got == want
    _assert_same(native, reference)


@pytest.mark.parametrize("room", ["none", "one_wave"])
def test_grow_and_resume_is_exact(recorder, monkeypatch, room):
    """With no spare capacity the first wave grows the storage; with room
    for exactly one wave the call applies it, grows, and resumes."""
    _grow_and_resume(recorder, monkeypatch, room, 2)


def _allocation_sweep(recorder, monkeypatch, dim):
    cls, oracle_cls, oracle_refine = KERNELS[dim]
    base, targets = _setup(7, dim)
    rows = _first_wave_elements(base, targets, monkeypatch, dim)

    def build(cls):
        mesh = base(cls)
        _squeeze(mesh, rows)
        mesh._pts.reserve(10_000)
        mesh._midpoint.reserve(10_000)
        return mesh

    reference = build(oracle_cls)
    want = oracle_refine(reference, targets)
    before = build(oracle_cls)
    part_way = 0
    for k in range(200):
        native = build(cls)
        recorder.statuses.clear()
        recorder.lib.meshcore_fail_after(k)
        try:
            got = rivara.refine(native, targets)
        except MemoryError:
            got = None
        finally:
            recorder.lib.meshcore_fail_after(-1)
        if got is not None:
            assert got == want
            _assert_same(native, reference)
            break
        assert recorder.statuses[-1] == _meshnative._NOMEM
        native.check_adjacency()
        native.check_conformal()
        native.forest.validate()
        if _meshnative._GROW in recorder.statuses:
            part_way += 1
            assert native.n_leaves > before.n_leaves
        else:
            _assert_same(native, before)
    else:
        pytest.fail("the compiled call never got through")
    assert k > 0 and part_way > 0


def test_failed_scratch_allocation_raises_after_whole_waves(recorder, monkeypatch):
    """Fail the k-th scratch allocation of one refine call, for every k
    until the call gets through.  The call applies one wave, grows its
    storage and resumes, so later failures stop it part-way: each time it
    raises ``MemoryError``, leaving a conformal mesh whose arrays are the
    oracle's after the waves it applied; once through, the oracle's after
    all of them."""
    _allocation_sweep(recorder, monkeypatch, 2)


def _limit_walks(monkeypatch, mesh, targets, first_wave) -> None:
    """The read-only walk, compiled and on the oracle, raises at
    ``max_steps_factor=0`` exactly when the refinement's first wave does."""
    walks = (lambda: _meshnative.walk(mesh, targets),
             lambda: oracle.walk(mesh, targets, max_steps_factor=0))
    with monkeypatch.context() as patch:
        patch.setattr(_meshnative, "MAX_STEPS_FACTOR", 0)
        for walk in walks:
            if first_wave:
                with pytest.raises(PropagationLimitError):
                    walk()
            else:
                walk()


@pytest.mark.parametrize("n_targets, first_wave", [(900, True), (500, False)])
def test_propagation_limit_raises_on_both_paths(recorder, monkeypatch, n_targets,
                                                first_wave):
    """``max_steps_factor=0`` caps a call at 1000 path steps.  900 targets
    overrun it in the first wave (and so does the read-only walk); 500 walk
    801 steps in the first wave (each triangle once) and overrun it in the
    second, so both the compiled call and the oracle apply one wave and
    raise in the next."""
    verts, cells = delaunay_square_mesh(24, seed=1)
    rng = np.random.default_rng(0)

    def build(cls):
        mesh = cls(verts, cells)
        draw = np.random.default_rng(0)
        refine = rivara.refine if cls is TriMesh else oracle.refine2d
        for _ in range(3):
            refine(mesh, draw.choice(mesh.leaf_ids(), mesh.n_leaves // 4, replace=False))
        return mesh

    start = build(TriMesh)
    targets = rng.choice(start.leaf_ids(), n_targets, replace=False)
    _limit_walks(monkeypatch, start, targets, first_wave)

    def run(mesh, refine):
        recorder.statuses.clear()
        with pytest.raises(PropagationLimitError):
            refine(mesh, targets, max_steps_factor=0)
        return len(mesh.forest), list(recorder.statuses)

    native, got, reference, want = _both(build, run)
    assert got[1][-1] == _meshnative._STEP_LIMIT and want[1] == []
    assert got[0] == want[0]
    assert (got[0] == len(start.forest)) == first_wave
    _assert_same(native, reference)
    native.check_conformal()


def test_extra_targets_on_the_path_change_nothing():
    """Targets that are already on a path, repeated, or no longer leaves
    do not move an id — compiled or on the oracle."""
    verts, cells = _input("delaunay", 9)

    def run(mesh, refine):
        _script(mesh, 9, "rr", refine)
        leaves = mesh.leaf_ids()
        targets = np.concatenate([leaves[::4], leaves[::8], [0, 1, 2]])
        return refine(mesh, targets[::-1].tolist())

    native, got, reference, want = _both(lambda cls: cls(verts, cells), run)
    assert got == want
    _assert_same(native, reference)


def test_stitch_of_a_non_manifold_edge_raises():
    """Three triangles on one edge: the compiled stitch writes nothing and
    refuses the triangulation."""
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.4, 2.0]])
    cells = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
    with pytest.raises(ValueError, match="non-manifold"):
        TriMesh(verts, cells)
    mesh = oracle.OracleTriMesh(verts, cells)
    nbr = mesh._nbr.data.copy()
    with pytest.raises(ValueError, match="non-manifold"):
        _meshnative.stitch(mesh, mesh.leaf_ids(), np.empty(0, dtype=np.int64))
    assert np.array_equal(mesh._nbr.data, nbr)


def test_failed_stitch_allocation_raises_and_merges_nothing(recorder):
    """The stitch coarsening ends in: a failed scratch allocation raises
    ``MemoryError`` and the batch is undone, so the mesh is the one before
    the call (the forest's version counter aside) and conformal."""
    verts, cells = _input("structured")
    mesh = TriMesh(verts, cells)
    rivara.refine(mesh, mesh.leaf_ids()[::3])
    before = [a.copy() for a in _state(mesh)]
    recorder.lib.meshcore_fail_after(0)
    try:
        with pytest.raises(MemoryError):
            coarsen(mesh, mesh.leaf_ids())
    finally:
        recorder.lib.meshcore_fail_after(-1)
    after = _state(mesh)
    before[6][2] = after[6][2]  # the forest's version counter moved on
    for x, y in zip(before, after, strict=True):
        assert np.array_equal(x, y)
    mesh.check_adjacency()
    mesh.check_conformal()
    mesh.forest.validate()
    assert coarsen(mesh, mesh.leaf_ids())  # and the next call goes through


# ---------------------------------------------------------------------- #
# 3-D: the compiled rivara.refine against the Python waves
# ---------------------------------------------------------------------- #


def _input3d(kind: str, seed: int = 0):
    verts, cells = structured_tet_mesh(3, 3, 3)
    if kind == "jittered":
        # interior vertices off the lattice: few exact length ties
        inner = np.all(np.abs(verts) < 1 - 1e-9, axis=1)
        verts = verts.copy()
        verts[inner] += np.random.default_rng(seed).uniform(-0.12, 0.12, (inner.sum(), 3))
    return verts, cells


KINDS_3D = ["structured", "jittered"]


@pytest.mark.parametrize("kind", KINDS_3D)
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("ops", ["rrcr", "rcrcrc"])
def test_3d_scripts_are_id_exact(kind, seed, ops):
    verts, cells = _input3d(kind, seed)
    native, got, reference, want = _both(
        lambda cls: cls(verts, cells), lambda m, refine: _script(m, seed, ops, refine), 3
    )
    assert got == want
    _assert_same(native, reference)
    native.check_adjacency()
    native.check_conformal()
    native.forest.validate()


@pytest.mark.parametrize("kind", KINDS_3D)
def test_3d_coarsen_to_roots_then_refine_reactivates(kind):
    """The compiled 3-D wave reactivates INACTIVE children and reuses
    memoized midpoints exactly as the Python waves do."""
    verts, cells = _input3d(kind, 3)
    native, got, reference, want = _both(lambda cls: cls(verts, cells), _reactivate, 3)
    assert got == want
    _assert_same(native, reference)


@pytest.mark.parametrize("room", ["none", "one_wave"])
def test_3d_grow_and_resume_is_exact(recorder, monkeypatch, room):
    _grow_and_resume(recorder, monkeypatch, room, 3)


def test_3d_failed_scratch_allocation_raises_after_whole_waves(recorder, monkeypatch):
    _allocation_sweep(recorder, monkeypatch, 3)


@pytest.mark.parametrize("n_targets, first_wave", [(1200, True), (900, False)])
def test_3d_propagation_limit_raises_on_both_paths(recorder, monkeypatch, n_targets,
                                                   first_wave):
    """``max_steps_factor=0`` caps a 3-D call at 2000 walker steps.  1200
    targets overrun it in the first wave (and so does the read-only walk);
    900 walk ~1650 steps in the first wave and overrun it in the second, so
    both the compiled call and the Python waves apply one wave and raise in
    the next."""
    verts, cells = structured_tet_mesh(7, 7, 7)

    def build(cls):
        mesh = cls(verts, cells)
        draw = np.random.default_rng(0)
        for _ in range(2):
            rivara.refine(mesh, draw.choice(mesh.leaf_ids(), mesh.n_leaves // 4, replace=False))
        return mesh

    start = build(TetMesh)
    targets = np.random.default_rng(0).choice(start.leaf_ids(), n_targets, replace=False)
    _limit_walks(monkeypatch, start, targets, first_wave)

    def run(mesh, refine):
        recorder.statuses.clear()
        with pytest.raises(PropagationLimitError):
            refine(mesh, targets, max_steps_factor=0)
        return len(mesh.forest), list(recorder.statuses)

    native, got, reference, want = _both(build, run, 3)
    assert got[1][-1] == _meshnative._STEP_LIMIT and want[1] == []
    assert got[0] == want[0]
    assert (got[0] == len(start.forest)) == first_wave
    _assert_same(native, reference)
    native.check_conformal()
    native.check_adjacency()


def test_3d_extra_targets_on_the_path_change_nothing():
    """Targets repeated, on a walk already, or no longer leaves do not move
    an id — compiled or in the Python waves."""
    verts, cells = _input3d("jittered", 9)

    def run(mesh, refine):
        _script(mesh, 9, "rr", refine)
        leaves = mesh.leaf_ids()
        targets = np.concatenate([leaves[::4], leaves[::8], [0, 1, 2]])
        return refine(mesh, targets[::-1].tolist())

    native, got, reference, want = _both(lambda cls: cls(verts, cells), run, 3)
    assert got == want
    _assert_same(native, reference)


def _walk_is_the_first_wave(mesh) -> None:
    """Leaf targets in random order, with repeats and with refined
    elements among them (which do not walk)."""
    _script(mesh, 4, "rr")
    before = [a.copy() for a in _state(mesh)]
    rng = np.random.default_rng(4)
    refined = np.flatnonzero(mesh.forest.status_array != LEAF)[:5]
    beyond = False
    for size in (1, 10, mesh.n_leaves // 3):
        leaves = rng.choice(mesh.leaf_ids(), size, replace=False)
        targets = rng.permutation(np.concatenate([leaves, leaves[:3], refined]))
        got = _meshnative.walk(mesh, targets)
        assert np.array_equal(got, oracle.walk(mesh, targets))
        assert np.all(np.isin(leaves, got)) and not np.isin(refined, got).any()
        beyond |= got.size > size
    assert beyond  # some walk went on past its targets
    for x, y in zip(before, _state(mesh), strict=True):
        assert np.array_equal(x, y)
    with pytest.raises(ValueError, match="outside"):
        _meshnative.walk(mesh, [mesh.n_elements])


@pytest.mark.parametrize("kind", ["structured", "delaunay", "ties"])
def test_walk_is_the_first_wave(kind):
    """The compiled read-only walk visits exactly the triangles the numpy
    waves' first wave walks, and writes nothing; ids outside the forest
    raise ``ValueError``."""
    verts, cells = _input(kind, 4)
    _walk_is_the_first_wave(TriMesh(verts, cells))


@pytest.mark.parametrize("kind", KINDS_3D)
def test_3d_star_walk_is_the_first_wave(kind):
    """The same walk in 3-D visits exactly the tets the Python waves'
    first wave walks."""
    verts, cells = _input3d(kind, 4)
    _walk_is_the_first_wave(TetMesh(verts, cells))
