"""Wrappers of the compiled mesh kernels (:mod:`_meshcore.c`).

:func:`refine_waves` runs the wave loop of :func:`~repro.mesh.rivara.refine`
in either dimension — walk, bisection, forest split, midpoints, ``_nbr`` /
``_le`` rows and the stitch — in one call, writing straight into the
mesh's growable storage; :func:`walk` is its first wave's walk alone,
read-only; :func:`fresh` writes the same ``_nbr`` / ``_le`` rows for cells
stored outside a refinement (a mesh's roots); :func:`stitch` is
:meth:`~repro.mesh.base.SimplexMesh._stitch`, which construction and
coarsening end in; :func:`weigh` is phase P1's recount of the coarse dual
graph's weights, over every tree or over some roots' trees only, and
:func:`cut_count` and :func:`shared_count` the cut and shared-vertex
counts of a leaf assignment, read off the leaves' ``_nbr`` rows and
cells.  Each C entry takes the mesh's pointer table (:func:`_table`) and
its dimension first, and one check (:func:`_check`) turns a failed status
into its exception.  All are built on first use by
:func:`repro._native.build` (a failed build raises ``ImportError``) and
leave every array id for id as their numpy/Python oracle in
``tests/_mesh_oracle.py`` leaves it (``tests/test_mesh_native.py``).  A
failed scratch allocation raises ``MemoryError``, the step limit
:class:`~repro.mesh.base.PropagationLimitError` and a failed guard
``AssertionError``; a refinement applies whole waves only, so whatever it
raises, the mesh it leaves is conformal.
"""

from __future__ import annotations

import ctypes
from array import array
from pathlib import Path

import numpy as np

from repro import _native
from repro._native import ptr as _ptr
from repro.mesh import base

_SRC = Path(__file__).with_name("_meshcore.c")

_I64 = np.dtype(np.int64)

#: default cap on the path steps walked per call, per initial leaf
MAX_STEPS_FACTOR = 1000

#: kernel status: finished / scratch allocation failed / grow and call
#: again / step limit / failed guard / a facet met three times / a leaf
#: pair across trees with no skeleton slot / a skeleton slot no pair filled
(_DONE, _NOMEM, _GROW, _STEP_LIMIT, _CORRUPT, _NONMANIFOLD, _NOSLOT,
 _EMPTY_SLOT) = 0, -1, -2, -3, -4, -5, -6, -7

# state words of the wave loop (the S_* enum of _meshcore.c)
(_ECAP, _VCAP, _MCAP, _MBITS, _NTARGETS, _LIMIT, _NELEM, _NVERTS, _NMEMO,
 _STEPS, _NBISECTED, _WAVES, _NEED_ELEM, _NEED_VERTS, _NEED_MEMO,
 _NSTATE) = range(16)


def _configure(lib) -> None:
    i64 = ctypes.c_int64
    ptr = ctypes.c_void_p
    # every entry: (pointer table, dimension, its own arguments) -> status
    for name, own in (
        ("refine", [ptr, ptr, ptr]),
        ("walk_once", [i64, ptr, i64, i64, ptr]),
        ("fresh", [i64, i64]),
        ("stitch", [ptr, i64, ptr, i64]),
        ("weigh", [i64, ptr, i64, ptr, ptr, ptr, ptr]),
        ("cut_count", [i64, ptr, i64, ptr]),
        ("shared_count", [i64, ptr, i64, ptr]),
    ):
        entry = getattr(lib, name)
        entry.argtypes, entry.restype = [ptr, i64, *own], i64
    lib.meshcore_fail_after.restype = None
    lib.meshcore_fail_after.argtypes = [i64]


def load():
    """The compiled kernel, built on first call (``ImportError`` if it does
    not build)."""
    return _native.load(_SRC, _configure)


def _element_storage(mesh) -> list:
    """Every array indexed by element id, in the kernel's pointer order."""
    f = mesh.forest
    return [f._parent, f._child0, f._child1, f._root, f._depth, f._status,
            mesh._cells, mesh._nbr, mesh._le]


def _table(mesh) -> array:
    """The mesh's pointer table: its storage's addresses, recorded where each
    buffer was allocated (:mod:`~repro.mesh.growable`), in the order of the
    ``A_*`` enum; an ``array`` of uint64 packs in half a numpy array's time."""
    memo = mesh._midpoint
    storage = (*_element_storage(mesh), mesh._pts, memo._keys, memo._vals)
    return array("Q", [s.address for s in storage] + [memo.slot_address])


def _call(entry: str, mesh, *args, limit: int = 0, check: bool = True) -> int:
    """Call the C ``entry`` as each is called — pointer table, dimension, then
    ``args`` — and return its status, checked unless ``check`` is off."""
    table = _table(mesh)  # referenced until the C call returns
    status = getattr(load(), entry)(table.buffer_info()[0], mesh.dim, *args)
    return _check(status, entry, mesh, limit) if check else status


def _check(status: int, entry: str, mesh, limit: int = 0) -> int:
    """``status`` (a count, or ``_DONE``) if the C entry ``entry`` got
    through, else raise what it stands for."""
    if status >= 0:
        return status
    exc, message = {
        _NOMEM: (MemoryError, f"{_SRC.name}: {entry} could not allocate its scratch"),
        _STEP_LIMIT: (base.PropagationLimitError,
                      f"{mesh.dim}-D propagation exceeded {limit} steps; mesh corrupt?"),
        _CORRUPT: (AssertionError, f"{entry}: a LEAF / INACTIVE status or a 3-D edge "
                   "star that breaks the forest"),
        _NONMANIFOLD: (ValueError, "non-manifold mesh: a facet bounds three cells"),
        _NOSLOT: (ValueError, "adjacent leaves in trees whose coarse elements share no facet"),
        _EMPTY_SLOT: (ValueError, "coarse elements share a facet but their trees no leaf pair"),
    }[status]
    raise exc(message)


def _max_steps(mesh, max_steps_factor: int) -> int:
    """The path steps a refinement or its walk may take: ``max_steps_factor``
    per leaf at the call, at least the mesh class's ``MIN_STEPS``."""
    return max(mesh.MIN_STEPS, max_steps_factor * max(mesh.n_leaves, 1))


def refine_waves(mesh, targets, max_steps_factor: int) -> list:
    """Run the waves of ``rivara.refine(mesh, targets)`` in C until no
    target is a leaf; returns every bisected parent, wave by wave.  An id
    outside ``[0, n_elements)`` raises
    ``ValueError`` before anything is written; a wave that would walk past
    the step limit, fails a guard or cannot allocate its scratch raises
    after the waves applied before it are committed."""
    targets = base.element_ids(mesh, targets)
    n_elem = mesh.n_elements
    bisected: list = []
    if not targets.size:
        return bisected
    limit = _max_steps(mesh, max_steps_factor)
    forest, memo, pts = mesh.forest, mesh._midpoint, mesh._pts
    assert len(forest) == n_elem, "forest and cell ids must stay in lockstep"
    storage = _element_storage(mesh)
    st = np.zeros(_NSTATE, dtype=np.int64)
    st[_NTARGETS], st[_LIMIT] = targets.shape[0], limit
    st[_NELEM], st[_NVERTS], st[_NMEMO] = n_elem, mesh.n_verts, len(memo)
    while True:
        # every bisected id is below the element capacity
        out = np.empty(min(s.capacity for s in storage), dtype=np.int64)
        st[_ECAP], st[_VCAP] = out.shape[0], pts.capacity
        st[_MCAP] = min(memo._keys.capacity, memo._vals.capacity)
        st[_MBITS] = 64 - memo._shift
        st[_NBISECTED] = 0
        status = _call("refine", mesh, _ptr(targets, _I64), _ptr(out, _I64),
                       _ptr(st, _I64), check=False)
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
    _check(status, "refine", mesh, limit)
    return bisected


def walk(mesh, targets) -> np.ndarray:
    """The elements the first wave of a refinement of ``mesh`` from
    ``targets`` walks, ascending, read-only — the targets that are leaves
    and every element a path or star from them walks on to (PARED's refine
    requests).  An id outside ``[0, n_elements)`` raises ``ValueError``;
    past the step limit the walk raises where the refinement would."""
    targets = base.element_ids(mesh, targets)
    limit = _max_steps(mesh, MAX_STEPS_FACTOR)
    n_elem = mesh.n_elements
    walked = np.empty(n_elem, dtype=np.int64)
    count = _call("walk_once", mesh, n_elem, _ptr(targets, _I64), targets.shape[0],
                  limit, _ptr(walked, _I64), limit=limit)
    return walked[:count]


def fresh(mesh, first: int, n: int) -> None:
    """Write the ``_nbr`` / ``_le`` rows (committed, unwritten) of the ``n``
    cells stored from id ``first`` on, as a refinement writes its children's."""
    _call("fresh", mesh, first, n)


def stitch(mesh, born: np.ndarray, died: np.ndarray) -> None:
    """:meth:`~repro.mesh.base.SimplexMesh._stitch` in C.  A facet shared
    by three of the slots it rewrites raises ``ValueError`` (a non-manifold
    mesh) and a failed allocation ``MemoryError``, with nothing written."""
    born = np.ascontiguousarray(born, dtype=np.int64)
    died = np.ascontiguousarray(died, dtype=np.int64)
    _call("stitch", mesh, _ptr(born, _I64), born.shape[0], _ptr(died, _I64), died.shape[0])


def weigh(mesh, roots=None) -> tuple:
    """Phase P1's recount on :meth:`~repro.mesh.base.SimplexMesh.coarse_skeleton`:
    ``(vwts, ewts)``, int64, one entry per root and one per skeleton slot.
    For each root in ``roots`` (every root when ``None``) its tree's leaves
    are counted into ``vwts[root]``, and each leaf across a facet in
    another tree into the slot of that tree's root in the root's row, so a
    row holds the leaf pairs between its trees; every other entry is 0.  A
    leaf pair across trees whose roots share no facet of ``M^0``, or a slot
    of a counted row that no pair fills, raises ``ValueError``."""
    skeleton = mesh.coarse_skeleton()
    n = mesh.n_roots
    if roots is not None:
        roots = np.ascontiguousarray(roots, dtype=np.int64)
        if roots.size and (roots.min() < 0 or roots.max() >= n):
            raise ValueError(f"a root id is outside [0, {n})")
    vwts = np.zeros(n, dtype=np.int64)
    ewts = np.zeros(skeleton.adjncy.shape[0], dtype=np.int64)
    _call(
        "weigh", mesh, mesh.n_elements, None if roots is None else _ptr(roots, _I64),
        n if roots is None else roots.shape[0], _ptr(skeleton.xadj, _I64),
        _ptr(skeleton.adjncy, _I64), _ptr(vwts, _I64), _ptr(ewts, _I64),
    )
    return vwts, ewts


def _leaf_labels(mesh, assignment) -> tuple:
    """``(leaf_ids(), labels)``, both int64: one label per leaf."""
    leaves = mesh.leaf_ids()
    part = np.ascontiguousarray(assignment, dtype=np.int64)
    if part.shape != leaves.shape:
        raise ValueError(f"{part.shape} labels for {leaves.shape[0]} leaves")
    return leaves, part


def cut_count(mesh, assignment) -> int:
    """The facets whose two leaves carry different labels in
    ``assignment`` (one label per leaf, aligned with ``leaf_ids()``, any
    integers)."""
    leaves, part = _leaf_labels(mesh, assignment)
    return _call("cut_count", mesh, mesh.n_elements, _ptr(leaves, _I64), leaves.shape[0],
                 _ptr(part, _I64))


def shared_count(mesh, assignment) -> int:
    """The vertices whose incident leaves carry more than one label in
    ``assignment`` (as for :func:`cut_count`)."""
    leaves, part = _leaf_labels(mesh, assignment)
    return _call("shared_count", mesh, mesh.n_verts, _ptr(leaves, _I64), leaves.shape[0],
                 _ptr(part, _I64))
