"""Refinement-history forest: one tree per coarse (level-0) element.

Section 2 of the paper: *"when an element is refined, it does not get
destroyed. Instead, the refined element inserts itself into a tree. The
refined mesh forms a forest of refinement trees, one per initial mesh
element."*  Leaves of the forest form the current most refined mesh ``M^t``;
coarsening replaces all children of a refined element by their parent.

Element states
--------------
``LEAF``
    Active element of the current mesh ``M^t``.
``INTERIOR``
    Refined element: its two bisection children are active (directly or
    through further refinement).
``INACTIVE``
    The element exists in the tree (it was created by a past refinement) but
    an ancestor is currently a ``LEAF`` — i.e. the region was coarsened.
    Re-refining the ancestor *reactivates* these children instead of
    recreating them, so element ids, geometry and midpoints are stable
    across refine/coarsen cycles (this mirrors PARED's persistent trees).

Invariant: on every root-to-leaf path of a tree exactly one element is
``LEAF``; the set of ``LEAF`` descendants of a root tiles the root exactly.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.growable import GrowableVector

LEAF = 0
INTERIOR = 1
INACTIVE = 2

_NO = -1


class RefinementForest:
    """Forest of binary refinement-history trees over element ids.

    Elements are identified by dense integer ids in creation order; ids
    ``0..n_roots-1`` are the level-0 (coarse) elements.  Bisection always
    creates exactly two children.
    """

    def __init__(self) -> None:
        self._parent = GrowableVector(np.int64)
        self._child0 = GrowableVector(np.int64)
        self._child1 = GrowableVector(np.int64)
        self._root = GrowableVector(np.int64)
        self._depth = GrowableVector(np.int32)
        self._status = GrowableVector(np.uint8)
        self._n_roots = 0
        #: number of currently active leaves (maintained incrementally)
        self._n_leaves = 0
        #: bumped on every structural change (add_roots / split_many /
        #: merge_many); any derived data keyed on this value stays valid
        #: exactly as long as the leaf set does
        self._version = 0
        self._leaves_cache = None
        self._leaves_version = -1

    @property
    def version(self) -> int:
        """Monotone counter of structural changes — the cache key for any
        quantity derived from the leaf set."""
        return self._version

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def add_roots(self, k: int) -> range:
        """Create ``k`` level-0 elements; returns their id range.

        One vectorized extend per storage array instead of ``6k`` scalar
        appends (initial-mesh construction is a measurable slice of a PARED
        round at bench scale)."""
        first = len(self._parent)
        if k > 0:
            no = np.full(k, _NO, dtype=np.int64)
            self._parent.extend(no)
            self._child0.extend(no)
            self._child1.extend(no)
            self._root.extend(np.arange(first, first + k, dtype=np.int64))
            self._depth.extend(np.zeros(k, dtype=np.int32))
            self._status.extend(np.full(k, LEAF, dtype=np.uint8))
            self._n_roots += k
            self._n_leaves += k
            self._version += 1
        return range(first, first + k)

    def split_many(self, parents) -> tuple:
        """Refine the strictly ascending LEAF ids ``parents``, one
        ``extend`` per storage array.  A parent never refined gets two
        fresh children; one refined before and later coarsened (children
        INACTIVE) gets its children back, *reactivated*.  Either way the
        parent becomes INTERIOR and both children LEAF.  Fresh children
        take consecutive id pairs in parent order, so ids depend on the
        *set* split, never on how it was discovered.  Returns ``(child0,
        child1, created)`` arrays aligned with ``parents``, ``created``
        true where the ids are new (the caller then assigns geometry)."""
        parents = np.asarray(parents, dtype=np.int64)
        if np.any(parents[1:] <= parents[:-1]):
            raise ValueError("split_many needs strictly ascending element ids")
        status = self._status.data
        if np.any(status[parents] != LEAF):
            raise ValueError("can only split LEAF elements")
        c0 = self._child0.data[parents]
        c1 = self._child1.data[parents]
        created = c0 == _NO
        fresh = parents[created]
        k = fresh.shape[0]
        if k < parents.shape[0]:
            old = ~created
            if np.any(status[c0[old]] != INACTIVE) or np.any(status[c1[old]] != INACTIVE):
                raise AssertionError("children of a LEAF must be INACTIVE")
        if k:
            ids = len(self) + np.arange(2 * k, dtype=np.int64)
            c0[created] = ids[0::2]
            c1[created] = ids[1::2]
            no = np.full(2 * k, _NO, dtype=np.int64)
            self._parent.extend(np.repeat(fresh, 2))
            self._child0.extend(no)
            self._child1.extend(no)
            self._root.extend(np.repeat(self._root.data[fresh], 2))
            self._depth.extend(np.repeat(self._depth.data[fresh] + 1, 2))
            self._status.extend(np.full(2 * k, LEAF, dtype=np.uint8))
            self._child0.data[fresh] = ids[0::2]
            self._child1.data[fresh] = ids[1::2]
            status = self._status.data
        status[c0] = LEAF
        status[c1] = LEAF
        status[parents] = INTERIOR
        self._n_leaves += parents.shape[0]
        self._version += 1
        return c0, c1, created

    def merge_many(self, parents) -> tuple:
        """Coarsen the strictly ascending INTERIOR ids ``parents``, whose
        children must all be LEAF: the children become INACTIVE and each
        parent a LEAF again.  Returns the ``(child0, child1)`` arrays."""
        parents = np.asarray(parents, dtype=np.int64)
        if np.any(parents[1:] <= parents[:-1]):
            raise ValueError("merge_many needs strictly ascending element ids")
        status = self._status.data
        if np.any(status[parents] != INTERIOR):
            raise ValueError("can only merge INTERIOR elements")
        c0 = self._child0.data[parents]
        c1 = self._child1.data[parents]
        if np.any(status[c0] != LEAF) or np.any(status[c1] != LEAF):
            raise ValueError("both children must be LEAF to merge")
        status[c0] = INACTIVE
        status[c1] = INACTIVE
        status[parents] = LEAF
        self._n_leaves -= parents.shape[0]
        self._version += 1
        return c0, c1

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        """Total number of elements ever created (all states)."""
        return len(self._parent)

    @property
    def n_roots(self) -> int:
        return self._n_roots

    @property
    def n_leaves(self) -> int:
        return self._n_leaves

    def parent(self, eid: int) -> int:
        return int(self._parent[eid])

    def children(self, eid: int) -> tuple:
        """``(child0, child1)`` or ``None`` if never refined."""
        c0 = self._child0[eid]
        if c0 == _NO:
            return None
        return int(c0), int(self._child1[eid])

    @property
    def status_array(self) -> np.ndarray:
        return self._status.data

    @property
    def root_array(self) -> np.ndarray:
        return self._root.data

    @property
    def depth_array(self) -> np.ndarray:
        return self._depth.data

    @property
    def parent_array(self) -> np.ndarray:
        return self._parent.data

    @property
    def child0_array(self) -> np.ndarray:
        return self._child0.data

    @property
    def child1_array(self) -> np.ndarray:
        return self._child1.data

    def leaves(self) -> np.ndarray:
        """Ids of all active leaf elements, ascending.

        Cached per structure version; the returned array is marked
        read-only (callers copy before mutating)."""
        if self._leaves_version != self._version:
            arr = np.nonzero(self._status.data == LEAF)[0]
            arr.setflags(write=False)
            self._leaves_cache = arr
            self._leaves_version = self._version
        return self._leaves_cache

    def leaf_counts_by_root(self) -> np.ndarray:
        """Vertex weights of the coarse dual graph: for each root, the number
        of active leaves of its tree (Section 5)."""
        return np.bincount(self._root.data[self.leaves()], minlength=self._n_roots)

    def subtree_leaves(self, eid: int) -> list:
        """Active leaves of the subtree rooted at ``eid`` (eid included if it
        is itself a LEAF), ascending.  Used when a refinement tree is
        migrated: *"when an element is migrated all its descendants are
        migrated as well."*

        Iterative breadth-first descent over the child arrays — whole
        levels at a time, no recursion, no per-node Python loop."""
        status = self._status.data
        st = status[eid]
        if st == LEAF:
            return [int(eid)]
        if st != INTERIOR:
            return []  # INACTIVE subtrees contain no active leaves
        c0 = self._child0.data
        c1 = self._child1.data
        found: list = []
        frontier = np.array([eid], dtype=np.int64)
        while frontier.size:
            kids = np.concatenate([c0[frontier], c1[frontier]])
            kst = status[kids]
            found.append(kids[kst == LEAF])
            frontier = kids[kst == INTERIOR]
        leaves = np.concatenate(found)
        leaves.sort()
        return leaves.tolist()

    def validate(self) -> None:
        """Check the structural invariants; raises AssertionError on failure.

        Intended for tests — O(total elements).
        """
        n = len(self)
        status = self._status.data
        parent = self._parent.data
        c0s = self._child0.data
        c1s = self._child1.data
        assert self._n_leaves == int((status == LEAF).sum())
        for e in range(n):
            st = status[e]
            c0, c1 = c0s[e], c1s[e]
            assert (c0 == _NO) == (c1 == _NO)
            if st == INTERIOR:
                assert c0 != _NO, f"INTERIOR {e} without children"
                assert status[c0] != INACTIVE and status[c1] != INACTIVE
            elif st == LEAF:
                if c0 != _NO:
                    assert status[c0] == INACTIVE and status[c1] == INACTIVE
            else:  # INACTIVE
                p = parent[e]
                assert p != _NO, "a root cannot be INACTIVE"
                if c0 != _NO:
                    assert status[c0] == INACTIVE and status[c1] == INACTIVE
            if c0 != _NO:
                assert parent[c0] == e and parent[c1] == e
        # exactly one LEAF on each root-to-active-leaf path: every active
        # element's ancestors are all INTERIOR
        for e in range(n):
            if status[e] == LEAF:
                p = parent[e]
                while p != _NO:
                    assert status[p] == INTERIOR, f"leaf {e} under non-INTERIOR {p}"
                    p = parent[p]
