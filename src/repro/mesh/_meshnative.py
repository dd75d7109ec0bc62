"""Wrappers of the compiled 2-D mesh kernel (:mod:`_meshcore.c`).

:func:`refine_waves` runs the wave loop of
:func:`~repro.mesh.rivara2d.refine2d` — LEPP walk, bisection, forest split,
midpoints, ``_nbr`` / ``_le`` / ``_ekey`` rows and the stitch — in one
call, writing straight into the mesh's growable storage; :func:`stitch` is
:meth:`~repro.mesh.mesh2d.TriMesh._stitch` alone, which coarsening ends
in.  Both are built on first use by :func:`repro._native.build` (a failed
build raises ``ImportError``) and leave every array id for id as their
numpy oracle in ``tests/_mesh_oracle.py`` leaves it
(``tests/test_mesh_native.py``).  A failed scratch allocation raises
``MemoryError``, the step limit :class:`~repro.mesh.base.PropagationLimitError`
and a failed guard ``AssertionError``; a refinement applies whole waves
only, so whatever it raises, the mesh it leaves is conformal.
"""

from __future__ import annotations

import ctypes
import threading
from pathlib import Path

import numpy as np

from repro import _native
from repro._native import ptr as _ptr
from repro.mesh.base import PropagationLimitError

_SRC = Path(__file__).with_name("_meshcore.c")
_LOCK = threading.Lock()
_LIB = None

_I64 = np.dtype(np.int64)

#: kernel status: finished / scratch allocation failed / grow and call
#: again / step limit / failed guard / an edge key met three times
_DONE, _NOMEM, _GROW, _STEP_LIMIT, _CORRUPT, _NONMANIFOLD = 0, -1, -2, -3, -4, -5

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
    """The compiled kernel, built on first call (``ImportError`` if it does
    not build)."""
    global _LIB
    if _LIB is None:
        with _LOCK:
            if _LIB is None:
                _LIB = _native.build(_SRC, _configure)
    return _LIB


def _element_storage(mesh) -> list:
    """Every array indexed by element id, in the kernel's pointer order."""
    f = mesh.forest
    return [f._parent, f._child0, f._child1, f._root, f._depth, f._status,
            mesh._cells, mesh._nbr, mesh._le, mesh._ekey]


def refine_waves(mesh, targets: np.ndarray, limit: int) -> list:
    """Run the waves of ``refine2d(mesh, targets)`` (``targets`` sorted,
    unique and in range) in C until no target is a leaf; returns every
    bisected parent, wave by wave.  Raises if a wave would walk past
    ``limit`` path steps, fails a guard or cannot allocate its scratch —
    after committing the waves applied before it."""
    lib = load()
    n_elem = mesh.n_elements
    bisected: list = []
    if not targets.size:
        return bisected
    forest, memo, pts = mesh.forest, mesh._midpoint, mesh._pts
    assert len(forest) == n_elem, "forest and cell ids must stay in lockstep"
    storage = _element_storage(mesh)
    st = np.zeros(_NSTATE, dtype=np.int64)
    st[_NTARGETS], st[_LIMIT] = targets.shape[0], limit
    st[_NELEM], st[_NVERTS], st[_NMEMO] = n_elem, mesh.n_verts, len(memo)
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
    forest._n_leaves += len(bisected)
    forest._version += int(st[_WAVES])
    if status == _STEP_LIMIT:
        raise PropagationLimitError(
            f"2-D propagation exceeded {limit} steps; mesh corrupt?"
        )
    if status == _CORRUPT:
        raise AssertionError("can only split LEAF elements whose children are INACTIVE")
    if status == _NOMEM:
        raise MemoryError(f"{_SRC.name}: refine2d could not allocate its scratch")
    return bisected


def stitch(mesh, born: np.ndarray, died: np.ndarray) -> None:
    """:meth:`~repro.mesh.mesh2d.TriMesh._stitch` in C.  An edge shared by
    three of the slots it rewrites raises ``ValueError`` (a non-manifold
    triangulation) and a failed allocation ``MemoryError``, with nothing
    written."""
    born = np.ascontiguousarray(born, dtype=np.int64)
    died = np.ascontiguousarray(died, dtype=np.int64)
    status = load().stitch(
        _ptr(born, _I64), born.shape[0], _ptr(died, _I64), died.shape[0],
        mesh._nbr.buffer.ctypes.data, mesh._ekey.buffer.ctypes.data,
        mesh.forest._status.buffer.ctypes.data,
    )
    if status == _NONMANIFOLD:
        raise ValueError("non-manifold triangulation: an edge bounds three triangles")
    if status == _NOMEM:
        raise MemoryError(f"{_SRC.name}: stitch could not allocate its scratch")
