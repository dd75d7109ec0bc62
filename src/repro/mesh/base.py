"""Common machinery of the nested simplicial meshes (2D and 3D).

A :class:`SimplexMesh` stores *every element ever created* — the refinement
forest nodes — in flat growable arrays; the current mesh ``M^t`` is the set
of active leaves of the :class:`~repro.mesh.forest.RefinementForest`.  Edge
midpoints are memoized so that coarsening followed by re-refinement
reproduces identical vertex ids (PARED's persistent-tree behaviour).

Two arrays grow in lockstep with the element connectivity, in both
dimensions:

* ``_nbr[e, i]`` — the active leaf across the facet of ``e`` opposite its
  local vertex ``i`` (``-1`` on the domain boundary).  Rows are current
  for leaves only; a row is rewritten whenever its element (re)enters the
  leaf set.  :meth:`SimplexMesh.leaf_adjacency_pairs`,
  :meth:`SimplexMesh.coarse_skeleton` and the compiled weight, cut and
  shared-vertex counts are read off these rows.
* ``_le[e]`` — local index of the longest edge of ``e`` (local edge ``j``
  joins local vertices ``_EDGE_A[j]`` and ``_EDGE_B[j]``), fixed at
  creation by one compiled rule, for the roots (:meth:`_grow_adjacency`)
  and for every child a refinement creates; ties go to the smallest
  vertex pair, so the elements sharing an edge agree on "longest".

The adaptation kernels change the leaf set a whole batch at a time: a
refinement is one compiled call that writes these arrays in place, and a
coarsening (:mod:`repro.mesh.coarsen`) goes through :meth:`_merge_many`.
Each batch ends in one compiled stitch (:mod:`repro.mesh._meshnative`),
which pairs the facets of the elements that entered the leaf set with each
other and with the surviving neighbours of those that left.
"""

from __future__ import annotations

import numpy as np

from repro.mesh import _meshnative
from repro.mesh.forest import RefinementForest, LEAF
from repro.mesh.growable import GrowableMatrix, GrowableVector, IntMap


def pair_key(a: int, b: int) -> int:
    """Order-free integer key of a vertex pair — the key of the midpoint
    memo, the same packing the compiled kernels use (vertex ids fit 32 bits
    by construction: they index in-memory arrays)."""
    return (a << 32) | b if a < b else (b << 32) | a


def id_array(ids) -> np.ndarray:
    """Any iterable of element ids as an int64 array."""
    if not isinstance(ids, np.ndarray):
        ids = list(ids)
    return np.asarray(ids, dtype=np.int64)


def element_ids(mesh, ids) -> np.ndarray:
    """``ids`` as a contiguous int64 array, checked against ``mesh``: an id
    outside ``[0, n_elements)`` raises ``ValueError`` naming it, before a
    kernel writes anything."""
    ids = np.ascontiguousarray(id_array(ids))
    bad = (ids < 0) | (ids >= mesh.n_elements)
    if bad.any():
        raise ValueError(
            f"element id {int(ids[bad][0])} is outside [0, {mesh.n_elements})"
        )
    return ids


class PropagationLimitError(RuntimeError):
    """Raised if longest-edge propagation fails to terminate (should never
    happen on a valid conformal mesh; acts as a corruption guard)."""


def sorted_unique(a: np.ndarray) -> np.ndarray:
    """``np.unique`` for a 1-D integer array by sort + neighbour compare —
    numpy's hash-based ``unique`` is ~10x slower on the small id batches
    the adaptation kernels dedupe every wave."""
    a = np.sort(a)
    keep = np.empty(a.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


class SimplexMesh:
    """Base class for the nested 2-D triangle / 3-D tetrahedral meshes."""

    #: spatial dimension; set by subclass
    dim: int = 0
    #: vertices per element; set by subclass
    nodes_per_cell: int = 0
    #: local vertices of each local edge; set by subclass
    _EDGE_A: np.ndarray
    _EDGE_B: np.ndarray
    #: least step limit of a refinement and of its walk; set by subclass
    MIN_STEPS: int

    def __init__(self, verts: np.ndarray, cells: np.ndarray):
        verts = np.asarray(verts, dtype=float)
        cells = np.asarray(cells, dtype=np.int64)
        if verts.ndim != 2 or verts.shape[1] != self.dim:
            raise ValueError(f"verts must be (nv, {self.dim})")
        if cells.ndim != 2 or cells.shape[1] != self.nodes_per_cell:
            raise ValueError(f"cells must be (ne, {self.nodes_per_cell})")
        if cells.size and (cells.min() < 0 or cells.max() >= verts.shape[0]):
            raise ValueError("cell vertex index out of range")
        self._pts = GrowableMatrix(self.dim, float, capacity=max(16, 2 * verts.shape[0]))
        self._pts.extend(verts)
        self._cells = GrowableMatrix(
            self.nodes_per_cell, np.int64, capacity=max(16, 2 * cells.shape[0])
        )
        self._cells.extend(cells)
        self.forest = RefinementForest()
        self.forest.add_roots(cells.shape[0])
        #: memo: pair_key(a, b) -> midpoint vertex id (an
        #: :class:`~repro.mesh.growable.IntMap` the kernels extend in C);
        #: every entry is a vertex, so it starts as large as the vertex buffer
        self._midpoint = IntMap(capacity=self._pts.capacity)
        # what follows from cells + forest: the per-version leaf caches,
        # _nbr / _le (one stitch of the roots) and the coarse skeleton
        self._leaf_cells_cache = None
        self._leaf_cells_version = -1
        self._leaf_roots_cache = None
        self._leaf_roots_version = -1
        self._adj_pairs_cache = None
        self._adj_pairs_version = -1
        cells = self._cells.data
        capacity = max(16, 2 * cells.shape[0])
        self._nbr = GrowableMatrix(self.nodes_per_cell, np.int64, capacity=capacity)
        self._le = GrowableVector(np.int64, capacity=capacity)
        self._grow_adjacency(cells)
        self._stitch(self.forest.leaves(), np.empty(0, dtype=np.int64))
        self._coarse_skeleton = self._skeleton_from_nbr()
        #: opaque to the mesh: what ``fem.estimate.interpolation_error_indicator``
        #: keeps of its samples, so that they live and die with the mesh
        self._indicator_store = None

    def _grow_adjacency(self, cells: np.ndarray) -> None:
        """Extend ``_nbr`` / ``_le`` for ``cells``, the rows last stored
        (compiled: the rule a refinement's children get)."""
        first, n = len(self._le), cells.shape[0]
        for rows in (self._nbr, self._le):
            rows.reserve(n)
            rows.commit(first + n)
        _meshnative.fresh(self, first, n)

    def _stitch(self, born: np.ndarray, died: np.ndarray) -> None:
        """Make ``_nbr`` current after ``born`` entered and ``died`` left
        the leaf set: every facet of a born element and every facet through
        which a surviving leaf saw a died element is reset to boundary,
        then equal facets are paired (compiled; a facet of three cells
        raises ``ValueError``)."""
        _meshnative.stitch(self, born, died)

    def _merge_many(self, parents: np.ndarray) -> None:
        """Coarsen every parent in ``parents`` (ascending): one forest
        batch, one stitch."""
        c0, c1 = self.forest.merge_many(parents)
        try:
            self._stitch(parents, np.concatenate([c0, c1]))
        except MemoryError:
            self.forest.split_many(parents)  # the whole batch or none of it
            raise

    def _skeleton_from_nbr(self):
        """:meth:`coarse_skeleton` read off the roots' ``_nbr`` rows (right
        after the construction stitch every root is a leaf): each row's
        neighbours ascending, rows in root order."""
        from repro.graph.csr import WeightedGraph

        nb = np.sort(self._nbr.data[: self.n_roots], axis=1)
        keep = nb >= 0
        xadj = np.zeros(self.n_roots + 1, dtype=np.int64)
        np.cumsum(keep.sum(axis=1), out=xadj[1:])
        adjncy = nb[keep]
        return WeightedGraph(xadj, adjncy, np.ones(adjncy.shape[0]), np.ones(self.n_roots))

    # ------------------------------------------------------------------ #
    # storage accessors
    # ------------------------------------------------------------------ #

    @property
    def verts(self) -> np.ndarray:
        """``(nv, dim)`` view of all vertex coordinates ever created."""
        return self._pts.data

    @property
    def n_verts(self) -> int:
        return len(self._pts)

    @property
    def cells(self) -> np.ndarray:
        """``(ne, npc)`` view of connectivity of *all* forest elements."""
        return self._cells.data

    @property
    def n_elements(self) -> int:
        """Total forest elements (all states)."""
        return len(self._cells)

    @property
    def n_leaves(self) -> int:
        """Size of the current mesh ``M^t``."""
        return self.forest.n_leaves

    @property
    def n_roots(self) -> int:
        """Size of the coarse mesh ``M^0``."""
        return self.forest.n_roots

    def cell(self, eid: int) -> tuple:
        return tuple(self._cells.data[eid].tolist())

    def leaf_ids(self) -> np.ndarray:
        """Element ids of the current mesh ``M^t`` (ascending).  Cached per
        forest version; the array is read-only (copy before mutating)."""
        return self.forest.leaves()

    def leaf_cells(self) -> np.ndarray:
        """Connectivity ``(n_leaves, npc)`` of the current mesh.  Cached per
        forest version; read-only."""
        version = self.forest.version
        if self._leaf_cells_version != version:
            cells = self._cells.data.take(self.leaf_ids(), axis=0)
            cells.setflags(write=False)
            self._leaf_cells_cache = cells
            self._leaf_cells_version = version
        return self._leaf_cells_cache

    def leaf_roots(self) -> np.ndarray:
        """For each leaf (in ``leaf_ids()`` order), the id of its level-0
        ancestor — the coarse element whose tree contains it.  Cached per
        forest version; read-only."""
        version = self.forest.version
        if self._leaf_roots_version != version:
            roots = self.forest.root_array[self.leaf_ids()]
            roots.setflags(write=False)
            self._leaf_roots_cache = roots
            self._leaf_roots_version = version
        return self._leaf_roots_cache

    def leaf_adjacency_pairs(self) -> np.ndarray:
        """``(k, 2)`` leaf-position pairs (indices into :meth:`leaf_ids`)
        for every shared facet of the leaf mesh, each pair once.  Cached per
        forest version.  No PARED round reads it: the coarse dual graph and
        the cut and shared-vertex counts are compiled passes over ``_nbr``.
        Its readers are the fine dual graph, the processor graph and the
        jump estimator, which experiments and the solve-driven loop use."""
        version = self.forest.version
        if self._adj_pairs_version != version:
            pairs = self._leaf_adjacency_pairs_uncached()
            pairs.setflags(write=False)
            self._adj_pairs_cache = pairs
            self._adj_pairs_version = version
        return self._adj_pairs_cache

    def _leaf_adjacency_pairs_uncached(self) -> np.ndarray:
        """Read off ``_nbr``, no sort: row-major over ``_nbr[leaf_ids()]``
        — ascending leaf, then local facet — keeping each facet from its
        lower-numbered side, so a pair is ``(position, higher position)``."""
        leaves = self.leaf_ids()
        nbr = self._nbr.data[leaves]
        slot = np.flatnonzero(nbr > leaves[:, None])
        position = np.full(self.n_elements, -1, dtype=np.int64)
        position[leaves] = np.arange(leaves.shape[0])
        return np.column_stack(
            [slot // self.nodes_per_cell, position[nbr.reshape(-1)[slot]]]
        )

    def coarse_skeleton(self):
        """The dual graph of ``M^0`` itself (unit weights) — the fixed CSR
        skeleton of the coarse dual graph ``G``, rows sorted, in the order
        :meth:`~repro.graph.csr.WeightedGraph.from_edges` produces.  Read
        off ``_nbr`` at construction and never mutated, so no adaptation,
        migration or restore has to keep it current."""
        return self._coarse_skeleton

    # ------------------------------------------------------------------ #
    # validation helpers (used by the test-suite)
    # ------------------------------------------------------------------ #

    def boundary_vertices(self) -> np.ndarray:
        """Vertex ids on the domain boundary of the current leaf mesh:
        vertices of facets shared by exactly one leaf element."""
        facets, counts = self._leaf_facets_with_counts()
        b = facets[counts == 1]
        return np.unique(b.ravel())

    def _opposite(self) -> np.ndarray:
        """``(npc, npc - 1)`` local vertices of the facet opposite each
        local vertex."""
        n = self.nodes_per_cell
        return np.array([[j for j in range(n) if j != i] for i in range(n)])

    def _leaf_facets_with_counts(self):
        """``(facets, counts)``: unique sorted facets of the leaf mesh and
        how many leaf elements contain each."""
        cells = self.leaf_cells()
        faces = np.concatenate([cells[:, f] for f in self._opposite()], axis=0)
        faces.sort(axis=1)
        return np.unique(faces, axis=0, return_counts=True)

    def check_adjacency(self) -> None:
        """Assert ``_nbr`` over the leaves is symmetric, ``-1`` exactly on
        the boundary, and equal to the brute-force leaf adjacency."""
        from repro.mesh.dualgraph import _compute_leaf_adjacency_pairs

        leaves = self.leaf_ids()
        nbr = self._nbr.data
        pos, loc = np.nonzero(nbr[leaves] >= 0)
        e = leaves[pos]
        nb = nbr[e, loc]
        assert np.all(self.forest.status_array[nb] == LEAF), "neighbour is not a leaf"
        back = nbr[nb] == e[:, None]
        assert np.all(back.sum(axis=1) == 1), "neighbour does not point back"
        opposite = self._opposite()
        cells = self.cells
        mine = np.sort(cells[e[:, None], opposite[loc]], axis=1)
        theirs = np.sort(cells[nb[:, None], opposite[np.argmax(back, axis=1)]], axis=1)
        assert np.array_equal(mine, theirs), "neighbours disagree on the shared facet"
        brute = leaves[_compute_leaf_adjacency_pairs(self)]
        assert np.array_equal(
            np.unique(np.concatenate([brute, brute[:, ::-1]]), axis=0),
            np.unique(np.column_stack([e, nb]), axis=0),
        ), "_nbr differs from the brute-force leaf adjacency"

    def check_conformal(self) -> None:
        """Assert the leaf mesh is conformal (no hanging nodes).

        Two conditions:

        1. every facet is shared by at most two leaf elements;
        2. a facet shared by exactly *one* leaf element must lie on the
           domain boundary.  A hanging node manifests as an interior facet
           seen whole from one side and split from the other, so the whole
           facet has count 1.  We detect this exactly using the midpoint
           memo: if any edge of a count-1 facet has a memoized midpoint
           vertex that is used by an active leaf, the facet is split on the
           other side — a conformality violation.  (Edges of a genuine
           boundary facet can never have an active midpoint, because leaves
           tile the domain exactly.)
        """
        facets, counts = self._leaf_facets_with_counts()
        assert counts.max(initial=1) <= 2, "facet shared by more than 2 leaf elements"
        lone = facets[counts == 1]
        # every edge (a, b), a < b, of every lone facet, facet by facet
        ia, ib = np.triu_indices(lone.shape[1], 1)
        a, b = lone[:, ia].ravel(), lone[:, ib].ravel()
        mids = self._midpoint.lookup((a << 32) | b)
        active = np.zeros(self.n_verts, dtype=bool)
        active[self.leaf_cells()] = True
        hanging = np.flatnonzero((mids >= 0) & active[mids])
        if hanging.size:
            i = hanging[0]
            raise AssertionError(
                f"hanging node: facet {tuple(lone[i // ia.size].tolist())} whole "
                f"on one side, edge ({a[i]},{b[i]}) split at active vertex {mids[i]}"
            )
