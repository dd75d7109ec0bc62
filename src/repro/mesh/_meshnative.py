"""Wrappers of the compiled 2-D mesh kernel (:mod:`_meshcore.c`).

:func:`refine_waves` runs the wave loop of
:func:`~repro.mesh.rivara2d.refine2d` — LEPP walk, bisection, forest split,
midpoints, ``_nbr`` / ``_le`` / ``_ekey`` rows and the stitch — in one
call, writing straight into the mesh's growable storage; :func:`stitch` is
:meth:`~repro.mesh.mesh2d.TriMesh._stitch` alone, which coarsening ends
in.  Both are built on first use by :func:`repro._native.build` and leave
every array id for id as the numpy path leaves it
(``tests/test_mesh_native.py``).  No compiler, a failed build, a failed
scratch allocation, a failed guard, or ``REPRO_KL_NATIVE=0`` hand the work
to the numpy path, which then raises whatever the numpy path raises.
"""

from __future__ import annotations

import ctypes
import threading
from pathlib import Path

import numpy as np

from repro import _native
from repro._native import ptr as _ptr

_SRC = Path(__file__).with_name("_meshcore.c")
_LOCK = threading.Lock()
_LIB = None
_TRIED = False
_DISABLED = not _native.ENABLED

_I64 = np.dtype(np.int64)

#: kernel status: finished / finish on the numpy path / grow and call again
_DONE, _REFERENCE, _GROW = 0, -1, -2

# state words of ``refine2d`` (the S_* enum of _meshcore.c)
(_ECAP, _VCAP, _MCAP, _MBITS, _NTARGETS, _LIMIT, _NELEM, _NVERTS, _NMEMO,
 _STEPS, _NBISECTED, _WAVES, _NEED_ELEM, _NEED_VERTS, _NEED_MEMO,
 _NSTATE) = range(16)


def _configure(lib) -> None:
    i64 = ctypes.c_int64
    ptr = ctypes.c_void_p
    lib.refine2d.restype = i64
    lib.refine2d.argtypes = [ptr, ptr]
    lib.stitch.restype = i64
    lib.stitch.argtypes = [ptr, i64, ptr, i64, ptr, ptr, ptr]
    lib.meshcore_fail_after.restype = None
    lib.meshcore_fail_after.argtypes = [i64]


def load():
    """The compiled kernel, built on first call; ``None`` if unavailable."""
    global _LIB, _TRIED
    if _DISABLED:
        return None
    if _TRIED:
        return _LIB
    with _LOCK:
        if not _TRIED:
            try:
                _LIB = _native.build(_SRC, _configure)
            except Exception:
                _LIB = None
            _TRIED = True
    return _LIB


def _element_storage(mesh) -> list:
    """Every array indexed by element id, in the kernel's pointer order."""
    f = mesh.forest
    return [f._parent, f._child0, f._child1, f._root, f._depth, f._status,
            mesh._cells, mesh._nbr, mesh._le, mesh._ekey]


def refine_waves(mesh, targets: np.ndarray, limit: int, bisected: list) -> int:
    """Apply whole waves of ``refine2d(mesh, targets)`` (``targets`` sorted
    and unique) in C, appending each wave's parents to ``bisected``;
    returns the path steps walked.  Stops at the first wave it must leave
    to the numpy loop — which then resumes exactly, since a wave is a
    function of the remaining LEAF targets — or when none is left."""
    lib = load()
    n_elem = mesh.n_elements
    if lib is None or not targets.size or targets[0] < 0 or targets[-1] >= n_elem:
        return 0
    forest, memo, pts = mesh.forest, mesh._midpoint, mesh._pts
    assert len(forest) == n_elem, "forest and cell ids must stay in lockstep"
    storage = _element_storage(mesh)
    st = np.zeros(_NSTATE, dtype=np.int64)
    st[_NTARGETS], st[_LIMIT] = targets.shape[0], limit
    st[_NELEM], st[_NVERTS], st[_NMEMO] = n_elem, mesh.n_verts, len(memo)
    done = len(bisected)
    while True:
        bufs = [s.buffer for s in storage]
        # every bisected id is below the element capacity
        out = np.empty(min(b.shape[0] for b in bufs), dtype=np.int64)
        st[_ECAP], st[_VCAP] = out.shape[0], pts.buffer.shape[0]
        st[_MCAP] = min(memo._keys.buffer.shape[0], memo._vals.buffer.shape[0])
        st[_MBITS] = 64 - memo._shift
        st[_NBISECTED] = 0
        bufs += [pts.buffer, memo._slot, memo._keys.buffer, memo._vals.buffer, targets, out]
        table = np.array([b.ctypes.data for b in bufs], dtype=np.uint64)
        status = lib.refine2d(table.ctypes.data, st.ctypes.data)
        for s in storage:
            s.commit(int(st[_NELEM]))
        pts.commit(int(st[_NVERTS]))
        memo.commit(int(st[_NMEMO]))
        bisected += out[: st[_NBISECTED]].tolist()
        if status != _GROW:
            break
        # at least double whatever is short, so a call grows once or twice
        for grow, need in ((storage, _NEED_ELEM), ([pts], _NEED_VERTS), ([memo], _NEED_MEMO)):
            for s in grow if st[need] else ():
                s.reserve(max(int(st[need]), len(s)))
    # split_many's counters: one version per wave, one leaf per bisection
    forest._n_leaves += len(bisected) - done
    forest._version += int(st[_WAVES])
    return int(st[_STEPS])


def stitch(mesh, born: np.ndarray, died: np.ndarray) -> bool:
    """:meth:`~repro.mesh.mesh2d.TriMesh._stitch` in C; False means "run
    the numpy stitch" (nothing was written)."""
    lib = load()
    if lib is None:
        return False
    born = np.ascontiguousarray(born, dtype=np.int64)
    died = np.ascontiguousarray(died, dtype=np.int64)
    return lib.stitch(
        _ptr(born, _I64), born.shape[0], _ptr(died, _I64), died.shape[0],
        mesh._nbr.buffer.ctypes.data, mesh._ekey.buffer.ctypes.data,
        mesh.forest._status.buffer.ctypes.data,
    ) == _DONE
