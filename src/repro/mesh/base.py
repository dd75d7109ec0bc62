"""Common machinery of the nested simplicial meshes (2D and 3D).

A :class:`SimplexMesh` stores *every element ever created* — the refinement
forest nodes — in flat growable arrays; the current mesh ``M^t`` is the set
of active leaves of the :class:`~repro.mesh.forest.RefinementForest`.  Edge
midpoints are memoized so that coarsening followed by re-refinement
reproduces identical vertex ids (PARED's persistent-tree behaviour).

Subclasses mirror the active leaf set in a facet adjacency that the
adaptation kernels keep current, and rebuild it from cells + forest in
``_rebuild_adjacency`` at construction.
:class:`~repro.mesh.mesh2d.TriMesh` holds it in flat arrays and adapts whole
batches (one compiled call per refinement, ``_merge_many``);
:class:`~repro.mesh.mesh3d.TetMesh` still keeps dictionaries updated one
element at a time through the ``_on_activate`` / ``_on_deactivate`` hooks
behind ``_new_children`` / ``_merge_children``.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.forest import RefinementForest, LEAF
from repro.mesh.growable import GrowableMatrix, IntMap


def pair_key(a: int, b: int) -> int:
    """Order-free integer key of a vertex pair — the dictionary key of the
    midpoint memo and the facet-adjacency maps.  Packing two ids into one
    int hashes ~2x faster than a tuple on the bisection hot path (vertex
    ids fit 32 bits by construction: they index in-memory arrays)."""
    return (a << 32) | b if a < b else (b << 32) | a


def id_array(ids) -> np.ndarray:
    """Any iterable of element ids as an int64 array."""
    if not isinstance(ids, np.ndarray):
        ids = list(ids)
    return np.asarray(ids, dtype=np.int64)


def element_ids(mesh, ids) -> np.ndarray:
    """``ids`` as an int64 array, checked against ``mesh``: an id outside
    ``[0, n_elements)`` raises ``ValueError`` naming it, before a kernel
    writes anything."""
    ids = id_array(ids)
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
        #: memo: pair_key(a, b) -> midpoint vertex id (a dict-like
        #: :class:`~repro.mesh.growable.IntMap` the 2-D kernel extends in C);
        #: every entry is a vertex, so it starts as large as the vertex buffer
        self._midpoint = IntMap(capacity=self._pts.buffer.shape[0])
        self._rebuild_adjacency()

    def _rebuild_adjacency(self) -> None:
        """(Re)derive everything that follows from cells + forest: the
        per-version leaf caches and the longest-edge memo here, the facet
        adjacency of the current leaves in the subclass override.  Called
        at construction."""
        #: memo: element id -> sorted global vertex pair of its longest edge
        self._longest: dict = {}
        self._leaf_cells_cache = None
        self._leaf_cells_version = -1
        self._leaf_roots_cache = None
        self._leaf_roots_version = -1
        self._adj_pairs_cache = None
        self._adj_pairs_version = -1
        #: dual graph of ``M^0``, see :meth:`coarse_skeleton`
        self._coarse_skeleton = None

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
            cells = self._cells.data[self.leaf_ids()]
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
        """``(k, 2)`` leaf-position pairs for every shared facet of the leaf
        mesh (see :func:`repro.mesh.dualgraph._leaf_adjacency_pairs`), each
        pair once.  Cached per forest version — the fine adjacency is
        recomputed once per structural change instead of once per consumer
        (dual graph, cut size, processor graph, ghost layer, the jump
        estimator all read it)."""
        version = self.forest.version
        if self._adj_pairs_version != version:
            pairs = self._leaf_adjacency_pairs_uncached()
            pairs.setflags(write=False)
            self._adj_pairs_cache = pairs
            self._adj_pairs_version = version
        return self._adj_pairs_cache

    def _leaf_adjacency_pairs_uncached(self) -> np.ndarray:
        """One sort over every leaf facet, pairs in facet-key order.
        Subclasses that keep the adjacency current read it off instead."""
        from repro.mesh.dualgraph import _compute_leaf_adjacency_pairs

        return _compute_leaf_adjacency_pairs(self)

    def coarse_skeleton(self):
        """The dual graph of ``M^0`` itself (unit weights) — the fixed CSR
        skeleton of the coarse dual graph ``G``, in the row-major order
        :meth:`~repro.graph.csr.WeightedGraph.from_edges` produces.  Built
        on first use from the root cells alone and never mutated, so no
        adaptation, migration or restore has to keep it current."""
        if self._coarse_skeleton is None:
            from repro.graph.csr import WeightedGraph
            from repro.mesh.dualgraph import _facet_adjacency_pairs

            pairs = _facet_adjacency_pairs(self.cells[: self.n_roots], self.n_verts)
            self._coarse_skeleton = WeightedGraph.from_edges(self.n_roots, pairs)
        return self._coarse_skeleton

    # ------------------------------------------------------------------ #
    # vertices
    # ------------------------------------------------------------------ #

    def midpoint(self, a: int, b: int) -> int:
        """Vertex id of the midpoint of edge ``(a, b)``; created and memoized
        on first use so bisections from either side share the vertex."""
        key = (a << 32) | b if a < b else (b << 32) | a
        vid = self._midpoint.get(key)
        if vid is None:
            p = 0.5 * (self._pts[a] + self._pts[b])
            vid = self._pts.append(p)
            self._midpoint[key] = vid
        return vid

    def midpoints(self, keys: np.ndarray) -> np.ndarray:
        """Bulk :meth:`midpoint` for distinct :func:`pair_key` edge keys.
        Missing midpoints are created in one ``extend``, in the order given,
        with the same arithmetic as the scalar path."""
        mids = self._midpoint.lookup(keys)
        new = np.nonzero(mids < 0)[0]
        if new.size:
            pts = self._pts.data
            nk = keys[new]
            first = self._pts.extend(0.5 * (pts[nk >> 32] + pts[nk & 0xFFFFFFFF]))
            mids[new] = np.arange(first, first + new.size)
            self._midpoint.add_new(nk, mids[new])
        return mids

    # ------------------------------------------------------------------ #
    # geometry queries
    # ------------------------------------------------------------------ #

    def longest_edge(self, eid: int) -> tuple:
        """Sorted global vertex pair of the element's longest edge (memoized;
        ties broken by smallest vertex pair so neighbors agree)."""
        pair = self._longest.get(eid)
        if pair is None:
            pair = self._compute_longest_edge(eid)
            self._longest[eid] = pair
        return pair

    def _compute_longest_edge(self, eid: int) -> tuple:
        raise NotImplementedError

    # hooks implemented by subclasses ----------------------------------- #

    def _on_activate(self, eid: int) -> None:
        """Called when ``eid`` becomes an active leaf."""
        raise NotImplementedError

    def _on_deactivate(self, eid: int) -> None:
        """Called when ``eid`` stops being an active leaf."""
        raise NotImplementedError

    # shared refinement plumbing ---------------------------------------- #

    def _new_children(self, parent: int, cell0, cell1) -> tuple:
        """Split ``parent`` in the forest; assign geometry for newly created
        children (reactivated children keep their stored geometry).  Updates
        the facet adjacency for parent and children."""
        c0, c1, created = self.forest.split(parent)
        if created:
            i0 = self._cells.append(cell0)
            i1 = self._cells.append(cell1)
            assert i0 == c0 and i1 == c1, "forest and cell ids must stay in lockstep"
        self._on_deactivate(parent)
        self._on_activate(c0)
        self._on_activate(c1)
        return c0, c1

    def _merge_children(self, parent: int) -> None:
        """Coarsen ``parent`` (children must be active leaves): children
        become INACTIVE, parent returns to the leaf set."""
        c0, c1 = self.forest.merge(parent)
        self._on_deactivate(c0)
        self._on_deactivate(c1)
        self._on_activate(parent)

    def _merge_many(self, parents: np.ndarray) -> None:
        """Coarsen every parent in ``parents`` (ascending)."""
        for p in parents.tolist():
            self._merge_children(p)

    # ------------------------------------------------------------------ #
    # validation helpers (used by the test-suite)
    # ------------------------------------------------------------------ #

    def boundary_vertices(self) -> np.ndarray:
        """Vertex ids on the domain boundary of the current leaf mesh:
        vertices of facets shared by exactly one leaf element."""
        facets, counts = self._leaf_facets_with_counts()
        b = facets[counts == 1]
        return np.unique(b.ravel())

    def _leaf_facets_with_counts(self):
        """``(facets, counts)``: unique sorted facets of the leaf mesh and
        how many leaf elements contain each."""
        raise NotImplementedError

    @staticmethod
    def _facet_edge_pairs(facet) -> list:
        """Vertex pairs forming the edges of one facet (a 2-tuple edge in 2D,
        a 3-tuple face in 3D).  Overridden in 3D."""
        return [tuple(facet)]

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
        active_verts = set(int(v) for v in np.unique(self.leaf_cells().ravel()))
        for f, c in zip(facets[counts == 1], counts[counts == 1]):
            for a, b in self._facet_edge_pairs(tuple(int(v) for v in f)):
                mid = self._midpoint.get(pair_key(a, b))
                if mid is not None and mid in active_verts:
                    raise AssertionError(
                        f"hanging node: facet {tuple(f)} whole on one side, "
                        f"edge ({a},{b}) split at active vertex {mid}"
                    )
