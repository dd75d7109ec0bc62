"""The numpy/Python oracle of the compiled mesh kernels
(``src/repro/mesh/_meshcore.c``).

Both dimensions: :func:`longest_local` is the numpy longest-edge rule
``SimplexMesh`` applied to a mesh's roots until the compiled ``fresh``
took them over, and :func:`grow_adjacency` writes a fresh cell's
``_nbr`` / ``_le`` rows with it — the roots' rows of both oracle meshes and
the children's rows of both oracle wave loops.

2-D: the numpy wave loop :func:`repro.mesh.rivara.refine` ran on
triangles and the numpy split and stitch of :class:`~repro.mesh.mesh2d.TriMesh`, moved here
verbatim when the compiler became a requirement (since then the 2-D walk
takes 3-D's rule that an element walks at most once per wave, and edge keys
are read off the cells).  :class:`OracleTriMesh` is a
:class:`~repro.mesh.mesh2d.TriMesh` whose rows and stitch — at construction, in every
refinement batch and in every coarsening — are the numpy ones, and
:func:`refine2d` runs the numpy waves on it; ``tests/test_mesh_native.py``
requires the compiled kernel to leave every array of a ``TriMesh`` id for id
as these leave an ``OracleTriMesh``.

3-D: the Python wave loop :func:`repro.mesh.rivara.refine` ran on tets, moved
here verbatim when the loop was compiled.  It runs on an
:class:`OracleTetMesh`, a :class:`~repro.mesh.mesh3d.TetMesh` whose roots'
rows are the numpy ones (its stitch is the compiled one, which
``check_adjacency`` checks against a brute-force recount), and the compiled
calls must leave every array of a ``TetMesh`` id for id as it leaves the
``OracleTetMesh``.

:func:`walk` is the read-only first wave of either dimension (PARED's
refine requests).

The counts over the leaves: :func:`coarse_dual_graph` is the numpy slot
walk phase P1 ran before ``weigh`` compiled it, and :func:`cut_size` /
:func:`shared_vertex_count` are the numpy bodies of
:mod:`repro.mesh.metrics`'s counts before ``cut_count`` /
``shared_count``; all three read ``leaf_adjacency_pairs()`` or the leaf
cells of any mesh (``tests/test_mesh_counts.py``).

Change the kernel and its oracle together, never one alone.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.base import (
    PropagationLimitError,
    element_ids,
    id_array,
    pair_key,
    sorted_unique,
)
from repro.mesh.forest import LEAF
from repro.mesh.mesh2d import _NEXT, _PREV, TriMesh
from repro.mesh.mesh3d import TetMesh

_LOCAL = np.arange(3)


def midpoints(mesh, keys: np.ndarray) -> np.ndarray:
    """Midpoint vertex ids of distinct :func:`~repro.mesh.base.pair_key`
    edge keys, memoized in ``mesh._midpoint``.  Missing midpoints are
    created in one ``extend``, in the order given, as ``0.5 * (a + b)``."""
    mids = mesh._midpoint.lookup(keys)
    new = np.nonzero(mids < 0)[0]
    if new.size:
        pts = mesh._pts.data
        nk = keys[new]
        first = mesh._pts.extend(0.5 * (pts[nk >> 32] + pts[nk & 0xFFFFFFFF]))
        mids[new] = np.arange(first, first + new.size)
        mesh._midpoint.add_new(nk, mids[new])
    return mids


def _edge_keys(mesh, cells: np.ndarray) -> np.ndarray:
    """Packed :func:`pair_key` of every local edge of ``cells``."""
    a = cells[:, mesh._EDGE_A]
    b = cells[:, mesh._EDGE_B]
    return (np.minimum(a, b) << 32) | np.maximum(a, b)


def longest_local(mesh, cells: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Local index of each cell's longest edge: edges are scanned in
    local order; a later edge wins when longer by more than ``1e-12``
    relative, or within that band of the running best length with a
    smaller vertex pair (``keys`` are the cells' packed edge keys)."""
    p = mesh.verts[cells]
    d = p[:, mesh._EDGE_A] - p[:, mesh._EDGE_B]
    lens = d[:, :, 0] * d[:, :, 0]
    for k in range(1, mesh.dim):
        lens = lens + d[:, :, k] * d[:, :, k]
    best = np.zeros(cells.shape[0], dtype=np.int64)
    best_len = lens[:, 0]
    best_key = keys[:, 0]
    for j in range(1, lens.shape[1]):
        lj, kj = lens[:, j], keys[:, j]
        longer = lj > best_len * (1.0 + 1e-12)
        take = longer | ((lj >= best_len * (1.0 - 1e-12)) & (kj < best_key))
        best = np.where(take, j, best)
        best_key = np.where(take, kj, best_key)
        best_len = np.where(longer, lj, best_len)
    return best


def grow_adjacency(mesh, cells: np.ndarray) -> None:
    """Extend ``_nbr`` / ``_le`` for freshly stored ``cells`` (the compiled
    ``fresh``, and the rows of refinement's children)."""
    mesh._nbr.extend(np.full(cells.shape, -1, dtype=np.int64))
    mesh._le.extend(longest_local(mesh, cells, _edge_keys(mesh, cells)))


class OracleTriMesh(TriMesh):
    """A :class:`~repro.mesh.mesh2d.TriMesh` on the numpy rows, split and
    stitch."""

    _grow_adjacency = grow_adjacency

    def _stitch(self, born: np.ndarray, died: np.ndarray) -> None:
        self._stitch_py(born, died)

    def _stitch_py(self, born: np.ndarray, died: np.ndarray) -> None:
        """The reference stitch: pairs equal packed keys by one sort.  Works
        on flat *slots* ``3 * element + local index``."""
        nbr = self._nbr.data
        flat = nbr.reshape(-1)
        dslot = (3 * died[:, None] + _LOCAL).ravel()
        surv = flat[dslot]
        keep = (surv >= 0) & (self.forest.status_array[surv] == LEAF)
        surv, dslot = surv[keep], dslot[keep]
        back = (nbr[surv] == (dslot // 3)[:, None]).argmax(axis=1)
        slot = np.concatenate([(3 * born[:, None] + _LOCAL).ravel(), 3 * surv + back])
        keys = self._slot_keys(slot)
        flat[slot] = -1
        order = np.argsort(keys)  # equal keys pair up whatever their order
        keys = keys[order]
        same = np.nonzero(keys[1:] == keys[:-1])[0]
        lo, hi = slot[order[same]], slot[order[same + 1]]
        flat[lo] = hi // 3
        flat[hi] = lo // 3

    def _slot_keys(self, slot: np.ndarray) -> np.ndarray:
        """Packed key of the edge at each flat slot ``3 * element + i``:
        the edge opposite local vertex ``i``."""
        cells = self._cells.data
        e, i = slot // 3, slot % 3
        a, b = cells[e, _NEXT[i]], cells[e, _PREV[i]]
        return (np.minimum(a, b) << 32) | np.maximum(a, b)

    def _split_many(self, parents: np.ndarray, kids: np.ndarray) -> tuple:
        """Bisect ascending leaves ``parents`` in one batch: forest split,
        geometry ``kids[j] = (cell0, cell1)`` for the freshly created
        children (reactivated children keep theirs), one stitch.  Returns
        the child id arrays."""
        c0, c1, created = self.forest.split_many(parents)
        if created.any():
            fresh = kids[created].reshape(-1, 3)
            first = self._cells.extend(fresh)
            assert first == c0[created][0], "forest and cell ids must stay in lockstep"
            self._grow_adjacency(fresh)
        self._stitch(np.concatenate([c0, c1]), parents)
        return c0, c1

    def bisect_many(self, parents: np.ndarray) -> tuple:
        """Bisect ascending leaves ``parents`` across their longest edges
        (both elements of a terminal pair must be in the batch).  Returns
        the child id arrays."""
        i = self._le.data[parents]
        base = 3 * parents
        cells = self._cells.data.reshape(-1)
        apex, a, b = cells[base + i], cells[base + _NEXT[i]], cells[base + _PREV[i]]
        keys = self._slot_keys(base + i)
        ukeys = sorted_unique(keys)
        m = midpoints(self, ukeys)[np.searchsorted(ukeys, keys)]
        # (a, m, apex) and (m, b, apex) inherit the parent's orientation
        kids = np.empty((parents.shape[0], 2, 3), dtype=np.int64)
        kids[:, 0, 0] = a
        kids[:, 0, 1] = kids[:, 1, 0] = m
        kids[:, 1, 1] = b
        kids[:, :, 2] = apex[:, None]
        return self._split_many(parents, kids)

    def _new_children(self, parent: int, cell0, cell1) -> tuple:
        c0, c1 = self._split_many(np.array([parent]), np.array([[cell0, cell1]]))
        return int(c0[0]), int(c1[0])


def _step_limit(mesh, max_steps_factor: int) -> int:
    return max(mesh.MIN_STEPS, max_steps_factor * max(mesh.n_leaves, 1))


def _lepp_next(mesh: TriMesh, elems: np.ndarray) -> tuple:
    """One step of every longest-edge propagation path: ``(nb, terminal)``
    where ``nb`` is the leaf across the longest edge of each leaf in
    ``elems`` (``-1`` on the boundary) and ``terminal`` flags the elements
    that can be bisected now — boundary edge, or ``nb`` has the same
    longest edge."""
    nbr = mesh._nbr.data
    le = mesh._le.data
    nb = nbr[elems, le[elems]]
    return nb, (nb < 0) | (nbr[nb, le[nb]] == elems)


def _walk2d(mesh: TriMesh, targets: np.ndarray, steps: int, limit: int) -> tuple:
    """One wave's walk along the longest-edge paths from the sorted leaves
    ``targets``, all walkers stepping together, read-only: ``(ready,
    walked, steps)`` — the elements of every terminal pair reached and
    every element walked, both sorted, and the step count (one step per
    walker) after it.  Each element walks at most once per wave.  Raises
    past ``limit`` steps."""
    seen = np.zeros(mesh.n_elements, dtype=bool)
    ready = [np.empty(0, dtype=np.int64)]
    cur = targets
    while cur.size:
        seen[cur] = True
        steps += cur.size
        if steps > limit:
            raise PropagationLimitError(
                f"2-D propagation exceeded {limit} steps; mesh corrupt?"
            )
        nb, terminal = _lepp_next(mesh, cur)
        ready += [cur[terminal], nb[terminal]]
        nxt = nb[~terminal]
        cur = sorted_unique(nxt[~seen[nxt]])
    ready = sorted_unique(np.concatenate(ready))
    # boundary terminals have no partner
    return ready[ready >= 0], np.flatnonzero(seen), steps


def refine2d(mesh: TriMesh, targets, max_steps_factor: int = 1000) -> list:
    """Bisect each leaf triangle in ``targets`` once (propagating as needed
    to keep the mesh conformal).

    Parameters
    ----------
    mesh:
        The nested triangle mesh.
    targets:
        Iterable of leaf element ids to refine, in any order.  Ids that are
        not (or stop being) leaves are skipped.
    max_steps_factor:
        Safety cap on the total number of path steps walked per call, as a
        multiple of the initial leaf count.

    Returns
    -------
    list of int
        Ids of every element bisected by this call (targets and propagated
        neighbors), wave by wave, ascending within a wave.
    """
    targets = sorted_unique(id_array(targets))
    limit = _step_limit(mesh, max_steps_factor)
    bisected: list = []
    steps = 0
    while True:
        # re-read per wave: a batch may regrow the forest storage
        targets = targets[mesh.forest.status_array[targets] == LEAF]
        if not targets.size:
            return bisected
        ready, _, steps = _walk2d(mesh, targets, steps, limit)
        mesh.bisect_many(ready)
        bisected += ready.tolist()


_EDGE_A, _EDGE_B = TetMesh._EDGE_A, TetMesh._EDGE_B
#: the two local vertices off each local edge, ascending
_OFF = np.array([[2, 3], [1, 3], [1, 2], [0, 3], [0, 2], [0, 1]])


def longest_edge(mesh, e: int) -> tuple:
    """Sorted vertex pair of the longest edge of ``e`` (local edge
    ``_le[e]``)."""
    j = mesh._le.data[e]
    p, q = (int(v) for v in mesh._cells.data[e, [mesh._EDGE_A[j], mesh._EDGE_B[j]]])
    return (p, q) if p < q else (q, p)


class OracleTetMesh(TetMesh):
    """A :class:`~repro.mesh.mesh3d.TetMesh` whose roots' rows are the
    numpy ones."""

    _grow_adjacency = grow_adjacency


def _le_key(mesh: TetMesh, e: int) -> int:
    """Packed key of the longest edge of ``e``."""
    return pair_key(*longest_edge(mesh, e))


def _star(mesh: TetMesh, e: int) -> tuple:
    """``(star, key)``: the leaves around the longest edge of leaf ``e``,
    found by walking ``_nbr`` face to face around the edge (both ways from
    ``e`` when the edge is on the boundary), and that edge's key."""
    nbr, cells = mesh._nbr.data, mesh._cells.data
    j = mesh._le.data[e]
    a, b = int(cells[e, _EDGE_A[j]]), int(cells[e, _EDGE_B[j]])
    star = [e]
    for i in _OFF[j]:
        prev, t = e, int(nbr[e, i])
        while t >= 0 and t != e:
            star.append(t)
            if len(star) > mesh.n_leaves:
                raise AssertionError("edge star walk does not close: mesh corrupt")
            i0, i1 = [k for k in range(4) if cells[t, k] != a and cells[t, k] != b]
            n0, n1 = int(nbr[t, i0]), int(nbr[t, i1])
            prev, t = t, (n1 if n0 == prev else n0)
        if t == e:
            break
    return star, pair_key(a, b)


def _walk3d(mesh: TetMesh, targets: np.ndarray, steps: int, limit: int) -> tuple:
    """One wave's walk from the sorted leaves ``targets``, read-only:
    ``(ready, walked, steps)`` — the members of every terminal star reached
    and every tet walked, both sorted, and the step count (one step per
    walker) after it.  Raises past ``limit`` steps."""
    walked = set(targets.tolist())
    cur = targets.tolist()
    ready: set = set()
    while cur:
        steps += len(cur)
        if steps > limit:
            raise PropagationLimitError(
                f"3-D propagation exceeded {limit} steps; "
                "longest-edge cycle or corrupt mesh"
            )
        nxt = []
        for e in cur:
            star, key = _star(mesh, e)
            off = [s for s in star if _le_key(mesh, s) != key]
            if not off:
                ready.update(star)
            for s in off:
                if s not in walked:
                    walked.add(s)
                    nxt.append(s)
        cur = nxt
    as_array = lambda ids: np.array(sorted(ids), dtype=np.int64)  # noqa: E731
    return as_array(ready), as_array(walked), steps


def _bisect_stars(mesh: TetMesh, parents: np.ndarray) -> None:
    """Bisect the ascending leaves ``parents`` (whole terminal stars) across
    their longest edges ``(a, b)``, ``a < b``, into ``(a, m, c, d)`` and
    ``(m, b, c, d)`` with ``c, d`` the off-edge vertices in local order:
    missing midpoints in ascending key order, fresh children in ascending
    parent order, reactivated children as stored, then one stitch."""
    rows = np.arange(parents.shape[0])
    cells = mesh._cells.data[parents]
    j = mesh._le.data[parents]
    a, b = cells[rows, _EDGE_A[j]], cells[rows, _EDGE_B[j]]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    keys = (lo << 32) | hi
    ukeys = sorted_unique(keys)
    m = midpoints(mesh, ukeys)[np.searchsorted(ukeys, keys)]
    off = cells[rows[:, None], _OFF[j]]
    kids = np.empty((parents.shape[0], 2, 4), dtype=np.int64)
    kids[:, 0, 0] = lo
    kids[:, 0, 1] = kids[:, 1, 0] = m
    kids[:, 1, 1] = hi
    kids[:, :, 2:] = off[:, None, :]
    c0, c1, created = mesh.forest.split_many(parents)
    if created.any():
        fresh = kids[created].reshape(-1, 4)
        first = mesh._cells.extend(fresh)
        assert first == c0[created][0], "forest and cell ids must stay in lockstep"
        grow_adjacency(mesh, fresh)
    mesh._stitch(np.concatenate([c0, c1]), parents)


def refine3d(mesh: TetMesh, targets, max_steps_factor: int = 1000) -> list:
    """Bisect each leaf tet in ``targets`` once, propagating star bisections
    to keep the mesh conformal.  Ids that are not (or stop being) leaves
    are skipped; an id outside ``[0, n_elements)`` raises ``ValueError``
    before anything is written.  ``max_steps_factor`` caps the walkers
    stepped per call, as a multiple of the initial leaf count.  Returns the
    ids of all bisected tets, wave by wave, ascending within a wave."""
    targets = sorted_unique(element_ids(mesh, targets))
    limit = _step_limit(mesh, max_steps_factor)
    bisected: list = []
    steps = 0
    while True:
        targets = targets[mesh.forest.status_array[targets] == LEAF]
        if not targets.size:
            return bisected
        ready, _, steps = _walk3d(mesh, targets, steps, limit)
        _bisect_stars(mesh, ready)
        bisected += ready.tolist()


def walk(mesh, targets, max_steps_factor: int = 1000) -> np.ndarray:
    """The elements the first wave of ``refine2d(mesh, targets)`` or
    ``refine3d(mesh, targets)`` walks, sorted, read-only (PARED's refine
    requests); raises :class:`~repro.mesh.base.PropagationLimitError`
    where the refinement would."""
    targets = sorted_unique(element_ids(mesh, targets))
    targets = targets[mesh.forest.status_array[targets] == LEAF]
    wave = _walk2d if mesh.dim == 2 else _walk3d
    return wave(mesh, targets, 0, _step_limit(mesh, max_steps_factor))[1]


# --------------------------------------------------------------------- #
# the counts over the leaves (``weigh``, ``cut_count``, ``shared_count``)
# --------------------------------------------------------------------- #


def coarse_dual_graph(mesh):
    """The numpy recount :func:`repro.mesh.dualgraph.coarse_dual_graph` ran
    before it was compiled: every cross-tree pair of
    ``leaf_adjacency_pairs()`` is classified to its skeleton slot by
    stepping along the sorted row, and one ``bincount`` gives ``ewts``."""
    skeleton = mesh.coarse_skeleton()
    xadj, adjncy = skeleton.xadj, skeleton.adjncy
    leaf_roots = mesh.leaf_roots()
    pairs = mesh.leaf_adjacency_pairs()
    ra = leaf_roots[pairs[:, 0]]
    rb = leaf_roots[pairs[:, 1]]
    cross = ra != rb
    src = np.concatenate([ra[cross], rb[cross]])
    dst = np.concatenate([rb[cross], ra[cross]])
    # the slot of dst in row src: a row is sorted and no longer than a
    # simplex has facets, so step along it while its entry is smaller
    slot = xadj[src]
    for _ in range(int(np.diff(xadj).max(initial=0)) - 1):
        slot += adjncy.take(slot, mode="clip") < dst
    if np.any(slot >= xadj[src + 1]) or np.any(adjncy[slot] != dst):
        raise ValueError(
            "adjacent leaves in trees whose coarse elements share no facet"
        )
    ewts = np.bincount(slot, minlength=adjncy.size)
    if not ewts.all():
        raise ValueError(
            "coarse elements share a facet but their trees no leaf pair"
        )
    return skeleton.with_weights(ewts, mesh.forest.leaf_counts_by_root())


def cut_size(mesh, assignment: np.ndarray) -> int:
    """The numpy ``cut_size``: the pairs of ``leaf_adjacency_pairs()``
    whose two leaves carry different labels."""
    pairs = mesh.leaf_adjacency_pairs()
    assignment = np.asarray(assignment)
    return int(np.count_nonzero(assignment[pairs[:, 0]] != assignment[pairs[:, 1]]))


def shared_vertex_count(mesh, assignment: np.ndarray) -> int:
    """The numpy ``shared_vertex_count``."""
    cells = mesh.leaf_cells()
    verts = cells.ravel()
    parts = np.repeat(np.asarray(assignment), cells.shape[1])
    # a vertex is shared iff its incident parts are not all equal: compare
    # every incidence with one reference part per vertex (whichever
    # incidence was scattered last) — no sort, exact for any labels
    ref = np.empty(mesh.n_verts, dtype=parts.dtype)
    ref[verts] = parts
    shared = np.zeros(mesh.n_verts, dtype=bool)
    shared[verts[parts != ref[verts]]] = True
    return int(np.count_nonzero(shared))
