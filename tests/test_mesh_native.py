"""The compiled 2-D mesh kernel (``mesh/_meshcore.c``) against the numpy
wave it replaces, id for id.

Every script runs twice from the same input — once with the compiled
kernel, once on the numpy path (``_meshnative._DISABLED``) — and the two
meshes must agree on every array the kernel writes: the forest's six
arrays and counters, cells, vertices, ``_nbr`` (stale rows of refined
elements included), ``_le``, ``_ekey``, the midpoint memo in insertion
order, and the bisected / merged lists the calls return.  The compiled
kernel must also hand over to the numpy path exactly: after growing its
storage, after a failed scratch allocation part-way through a call, and
when the propagation limit trips.
"""

import os
import shutil

import numpy as np
import pytest

from repro.geometry import delaunay_square_mesh
from repro.geometry.generators import structured_tri_mesh
from repro.mesh import _meshnative
from repro.mesh.coarsen import coarsen
from repro.mesh.growable import IntMap
from repro.mesh.mesh2d import TriMesh
from repro.mesh.rivara2d import PropagationLimitError, refine2d

from tests.test_mesh_kernel_equivalence import _tie_strip


@pytest.fixture()
def mesh_core():
    """The compiled mesh kernel; skips where it is legitimately absent,
    fails where a compiler is present but the build broke."""
    lib = _meshnative.load()
    if lib is None:
        if _meshnative._DISABLED:
            pytest.skip("compiled kernels disabled (REPRO_KL_NATIVE=0)")
        if shutil.which(os.environ.get("CC", "cc")) is None:
            pytest.skip("no C compiler on PATH")
        pytest.fail("a C compiler is present but _meshcore.c failed to build/load")
    return lib


class _Recorder:
    """Stands in for the loaded library and records ``refine2d``'s
    status codes."""

    def __init__(self, lib):
        self.lib = lib
        self.statuses = []

    def refine2d(self, *args):
        status = self.lib.refine2d(*args)
        self.statuses.append(status)
        return status

    def __getattr__(self, name):
        return getattr(self.lib, name)


@pytest.fixture()
def recorder(mesh_core, monkeypatch):
    rec = _Recorder(mesh_core)
    monkeypatch.setattr(_meshnative, "_LIB", rec)
    monkeypatch.setattr(_meshnative, "_TRIED", True)
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
        mesh.cells, mesh.verts, mesh._nbr.data, mesh._le.data, mesh._ekey.data,
        mesh._midpoint.keys_array, mesh._midpoint.values_array,
    ]


def _assert_same(a, b) -> None:
    for x, y in zip(_state(a), _state(b), strict=True):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert np.array_equal(x, y)


def _script(mesh, seed: int, ops: str) -> list:
    """``r`` refines, ``c`` coarsens a random 30 % of the leaves; returns
    what every call returned."""
    rng = np.random.default_rng(seed)
    out = []
    for op in ops:
        leaves = mesh.leaf_ids()
        marked = rng.choice(leaves, size=max(1, int(0.3 * leaves.size)), replace=False)
        out.append(refine2d(mesh, marked) if op == "r" else coarsen(mesh, marked))
    return out


def _both(monkeypatch, build, run):
    """``run(build())`` on the compiled path, then on the numpy path:
    ``(native mesh, native result, numpy mesh, numpy result)``."""
    native = build()
    got = run(native)
    monkeypatch.setattr(_meshnative, "_DISABLED", True)
    reference = build()
    want = run(reference)
    monkeypatch.setattr(_meshnative, "_DISABLED", False)
    return native, got, reference, want


SCRIPTS = ["rrcr", "rrccrrcr", "rcrcrc"]


@pytest.mark.parametrize("kind", ["structured", "delaunay", "ties"])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("ops", SCRIPTS)
def test_scripts_are_id_exact(mesh_core, monkeypatch, kind, seed, ops):
    verts, cells = _input(kind, seed)
    native, got, reference, want = _both(
        monkeypatch, lambda: TriMesh(verts, cells), lambda m: _script(m, seed, ops)
    )
    assert got == want
    _assert_same(native, reference)
    native.check_adjacency()
    native.check_conformal()
    native.forest.validate()


@pytest.mark.parametrize("kind", ["structured", "delaunay"])
def test_coarsen_to_roots_then_refine_reactivates(mesh_core, monkeypatch, kind):
    """Refine, coarsen until nothing merges, refine again: the compiled
    wave reactivates INACTIVE children and reuses memoized midpoints."""
    verts, cells = _input(kind, 3)

    def run(mesh):
        out = _script(mesh, 3, "rrr")
        while coarsen(mesh, mesh.leaf_ids()):
            pass
        assert mesh.n_leaves == mesh.n_roots
        stored = mesh.n_elements
        out += _script(mesh, 4, "r")
        # most parents got their stored children back, not new ones
        assert mesh.n_elements - stored < len(out[-1])
        out += _script(mesh, 5, "rr")
        return out

    native, got, reference, want = _both(monkeypatch, lambda: TriMesh(verts, cells), run)
    assert got == want
    _assert_same(native, reference)


def _squeeze(mesh, elements: int) -> None:
    """Shrink the element-indexed buffers to ``elements`` rows and the
    vertex buffer and memo to their live length."""
    f = mesh.forest
    for g in (f._parent, f._child0, f._child1, f._root, f._depth, f._status,
              mesh._cells, mesh._nbr, mesh._le, mesh._ekey):
        g._buf = g._buf[: len(g)].copy()
        g._buf.resize((elements, *g._buf.shape[1:]), refcheck=False)
    mesh._pts._buf = mesh._pts._buf[: len(mesh._pts)].copy()
    memo = IntMap(capacity=1)
    memo.add_new(mesh._midpoint.keys_array.copy(), mesh._midpoint.values_array.copy())
    mesh._midpoint = memo


def _first_wave_elements(build, targets, monkeypatch) -> int:
    """``n_elements`` after the first wave of ``refine2d(build(), targets)``."""
    mesh = build()
    sizes = []
    real = mesh.bisect_many
    monkeypatch.setattr(mesh, "bisect_many", lambda p: (real(p), sizes.append(mesh.n_elements)))
    monkeypatch.setattr(_meshnative, "_DISABLED", True)
    refine2d(mesh, targets)
    monkeypatch.setattr(_meshnative, "_DISABLED", False)
    assert len(sizes) > 1
    return sizes[0]


def _setup(seed):
    verts, cells = _input("delaunay", seed)

    def base():
        mesh = TriMesh(verts, cells)
        _script(mesh, seed, "rr")
        return mesh

    return base, base().leaf_ids()[::2].copy()


@pytest.mark.parametrize("room", ["none", "one_wave"])
def test_grow_and_resume_is_exact(recorder, monkeypatch, room):
    """With no spare capacity the first wave grows the storage; with room
    for exactly one wave the call applies it, grows, and resumes."""
    base, targets = _setup(5)
    rows = 0 if room == "none" else _first_wave_elements(base, targets, monkeypatch)

    def build():
        mesh = base()
        _squeeze(mesh, max(rows, mesh.n_elements))
        return mesh

    native, got, reference, want = _both(monkeypatch, build, lambda m: refine2d(m, targets))
    assert recorder.statuses[0] == _meshnative._GROW
    assert recorder.statuses[-1] == _meshnative._DONE
    assert got == want
    _assert_same(native, reference)


def test_failed_scratch_allocation_finishes_on_numpy(recorder, monkeypatch):
    """Fail the k-th scratch allocation of one refine call, for every k
    until the call gets through.  The call applies one wave, grows its
    storage and resumes, so later failures stop the compiled waves
    part-way; the numpy waves must finish to the same arrays."""
    base, targets = _setup(7)
    rows = _first_wave_elements(base, targets, monkeypatch)

    def build():
        mesh = base()
        _squeeze(mesh, rows)
        mesh._pts.reserve(10_000)
        mesh._midpoint.reserve(10_000)
        return mesh

    monkeypatch.setattr(_meshnative, "_DISABLED", True)
    reference = build()
    want = refine2d(reference, targets)
    monkeypatch.setattr(_meshnative, "_DISABLED", False)
    part_way = 0
    for k in range(200):
        native = build()
        recorder.statuses.clear()
        recorder.lib.meshcore_fail_after(k)
        try:
            got = refine2d(native, targets)
        finally:
            recorder.lib.meshcore_fail_after(-1)
        assert got == want
        _assert_same(native, reference)
        if recorder.statuses[-1] == _meshnative._DONE:
            break
        assert recorder.statuses[-1] == _meshnative._REFERENCE
        part_way += _meshnative._GROW in recorder.statuses
    else:
        pytest.fail("the compiled call never got through")
    assert k > 0 and part_way > 0


@pytest.mark.parametrize("n_targets, first_wave", [(900, True), (500, False)])
def test_propagation_limit_raises_on_both_paths(recorder, monkeypatch, n_targets, first_wave):
    """``max_steps_factor=0`` caps a call at 1000 path steps.  900 targets
    overrun it in the first wave; 500 walk ~840 steps in the first wave
    and overrun it in the second, so the compiled call applies one wave
    and the numpy loop raises in the next."""
    verts, cells = delaunay_square_mesh(24, seed=1)
    rng = np.random.default_rng(0)

    def build():
        mesh = TriMesh(verts, cells)
        draw = np.random.default_rng(0)
        for _ in range(3):
            refine2d(mesh, draw.choice(mesh.leaf_ids(), mesh.n_leaves // 4, replace=False))
        return mesh

    start = build()
    targets = rng.choice(start.leaf_ids(), n_targets, replace=False)

    def run(mesh):
        recorder.statuses.clear()
        with pytest.raises(PropagationLimitError):
            refine2d(mesh, targets, max_steps_factor=0)
        return len(mesh.forest), list(recorder.statuses)

    native, got, reference, want = _both(monkeypatch, build, run)
    assert got[1][-1] == _meshnative._REFERENCE and want[1] == []
    assert got[0] == want[0]
    assert (got[0] == len(start.forest)) == first_wave
    _assert_same(native, reference)


def test_extra_targets_on_the_path_change_nothing(mesh_core, monkeypatch):
    """Targets that are already on a path, repeated, or no longer leaves
    do not move an id — on either path."""
    verts, cells = _input("delaunay", 9)

    def run(mesh):
        _script(mesh, 9, "rr")
        leaves = mesh.leaf_ids()
        targets = np.concatenate([leaves[::4], leaves[::8], [0, 1, 2]])
        return refine2d(mesh, targets[::-1].tolist())

    native, got, reference, want = _both(monkeypatch, lambda: TriMesh(verts, cells), run)
    assert got == want
    _assert_same(native, reference)


def test_stitch_of_a_non_manifold_edge_falls_back(mesh_core, monkeypatch):
    """Three triangles on one edge: numpy's pairing of a key met three
    times depends on its sort, so the compiled stitch writes nothing and
    hands the call to it."""
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.4, 2.0]])
    cells = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
    native, _, reference, _ = _both(monkeypatch, lambda: TriMesh(verts, cells), lambda m: None)
    leaves = native.leaf_ids()
    died = np.empty(0, dtype=np.int64)
    assert not _meshnative.stitch(native, leaves, died)
    assert np.array_equal(native._nbr.data, reference._nbr.data)


def test_off_switch_runs_the_numpy_path(monkeypatch):
    monkeypatch.setattr(_meshnative, "_DISABLED", True)
    assert _meshnative.load() is None
    mesh = TriMesh(*_input("structured"))
    assert _meshnative.refine_waves(mesh, mesh.leaf_ids().copy(), 10**6, []) == 0
    assert _meshnative.stitch(mesh, mesh.leaf_ids(), np.empty(0, dtype=np.int64)) is False
