"""Distributed view of the nested mesh: replicated structure, partitioned
ownership, explicit communication.

Every rank holds a full replica of the
:class:`~repro.mesh.adapt.AdaptiveMesh` (kept bit-identical across ranks by
applying all structural operations in a canonical global order), plus the
shared ownership array mapping each coarse root — hence each refinement
tree — to a rank.  Ranks *decide* only about owned trees; decisions that
affect other ranks' trees travel as messages:

* refinement propagation requests (P0),
* weight updates to every peer (P1/P2),
* tree payloads (P3).

The replicated-apply trick keeps the simulation honest where it matters
(what is communicated, by whom, and that parallel refinement equals serial
refinement — the property PARED proves in [12]) without re-implementing a
distributed mesh database in Python.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.adapt import AdaptiveMesh
from repro.mesh.base import sorted_unique
from repro.mesh.dualgraph import coarse_dual_graph
from repro.mesh.forest import LEAF
from repro.pared.weights import full_weight_report, split_report_by_owner
from repro.partition.distributed import PartView
from repro.perf import PERF
from repro.runtime.faults import recv_with_retry


class DistributedMesh:
    """A rank's handle on the replicated mesh + ownership map."""

    def __init__(self, comm, amesh: AdaptiveMesh, owner: np.ndarray, live=None):
        owner = np.asarray(owner, dtype=np.int64)
        if owner.shape[0] != amesh.n_roots:
            raise ValueError("owner must map every coarse root")
        if owner.size and (owner.min() < 0 or owner.max() >= comm.size):
            raise ValueError("owner rank out of range")
        self.comm = comm
        self.amesh = amesh
        # leaf_owners/owned_leaf_ids cache, keyed on (forest structure
        # version, ownership revision); `owner` is a property so any
        # assignment bumps the revision
        self._owner_rev = -1
        self._lo_cache = None
        self._lo_key = None
        self._owned_cache = None
        self._owned_key = None
        self.owner = owner.copy()
        # ranks participating in collectives/exchanges; after a crash the
        # recovery protocol rebuilds the mesh view over the survivors only
        self.live = (
            sorted(int(r) for r in live)
            if live is not None
            else list(range(comm.size))
        )

    # ------------------------------------------------------------------ #
    # ownership queries
    # ------------------------------------------------------------------ #

    @property
    def rank(self) -> int:
        return self.comm.rank

    @property
    def owner(self) -> np.ndarray:
        return self._owner

    @owner.setter
    def owner(self, value) -> None:
        self._owner = np.asarray(value, dtype=np.int64)
        self._owner_rev += 1

    def _cache_key(self) -> tuple:
        return (self.amesh.mesh.forest.version, self._owner_rev)

    def leaf_owners(self) -> np.ndarray:
        """Owning rank of every leaf (via its root), aligned with
        ``leaf_ids()``.  Cached until the forest or the ownership map
        changes; the returned array is read-only."""
        key = self._cache_key()
        if self._lo_key != key:
            lo = self.owner[self.amesh.leaf_roots()]
            lo.setflags(write=False)
            self._lo_cache = lo
            self._lo_key = key
        return self._lo_cache

    def owned_leaf_ids(self) -> np.ndarray:
        """Sorted ids of the leaves this rank owns (cached, read-only)."""
        key = self._cache_key()
        if self._owned_key != key:
            leaf_ids = self.amesh.leaf_ids()
            owned = leaf_ids[self.leaf_owners() == self.rank]
            owned.setflags(write=False)
            self._owned_cache = owned
            self._owned_key = key
        return self._owned_cache

    def owned_leaves_among(self, ids) -> np.ndarray:
        """The ids in ``ids`` that are leaves this rank owns, sorted and
        duplicate-free; ids outside the forest are dropped.
        ``np.intersect1d(ids, owned_leaf_ids())`` by lookup instead of its
        two hash-``unique`` passes."""
        forest = self.amesh.mesh.forest
        ids = sorted_unique(np.asarray(ids, dtype=np.int64))
        ids = ids[(ids >= 0) & (ids < len(forest))]
        mine = self.owner[forest.root_array[ids]] == self.rank
        return ids[mine & (forest.status_array[ids] == LEAF)]

    def local_load(self) -> int:
        """Number of owned leaf elements (the rank's workload)."""
        return int(np.count_nonzero(self.leaf_owners() == self.rank))

    # ------------------------------------------------------------------ #
    # P0: parallel adaptation
    # ------------------------------------------------------------------ #

    def _lepp_remote_targets(self, marked) -> dict:
        """Walk the LEPP of each marked owned leaf read-only and collect the
        path elements owned by other ranks — the refine requests the real
        protocol would send across processor boundaries."""
        mesh = self.amesh.mesh
        forest = mesh.forest
        marked = np.asarray(marked, dtype=np.int64)
        marked = marked[forest.status_array[marked] == LEAF]
        path = self._lepp_2d(marked) if mesh.dim == 2 else self._lepp_3d(marked)
        own = self.owner[forest.root_array[path]]
        return {
            r: path[own == r].tolist()
            for r in range(self.comm.size)
            if r != self.rank
        }

    def _lepp_2d(self, marked: np.ndarray) -> np.ndarray:
        """Sorted union of the 2-D paths from ``marked``: all walkers step
        together along :meth:`~repro.mesh.mesh2d.TriMesh.lepp_next`."""
        mesh = self.amesh.mesh
        seen = np.zeros(mesh.n_elements, dtype=bool)
        cur = sorted_unique(marked)
        while cur.size:
            seen[cur] = True
            nb, terminal = mesh.lepp_next(cur)
            nxt = nb[~terminal]
            cur = sorted_unique(nxt[~seen[nxt]])
        return np.nonzero(seen)[0]

    def _lepp_3d(self, marked: np.ndarray) -> np.ndarray:
        """Sorted union of the 3-D star frontiers from ``marked`` (bounded
        per-element walk)."""
        mesh = self.amesh.mesh
        forest = mesh.forest
        reached = set()
        for t in marked.tolist():
            seen = set()
            frontier = [t]
            steps = 0
            while frontier and steps < 10_000:
                steps += 1
                e = frontier.pop()
                if e in seen or not forest.is_leaf(e):
                    continue
                seen.add(e)
                a, b = mesh.longest_edge(e)
                star = mesh.edge_star(a, b)
                frontier.extend(
                    s for s in star
                    if s not in seen and mesh.longest_edge(s) != (a, b)
                )
            reached |= seen
        return np.array(sorted(reached), dtype=np.int64)

    def parallel_refine(self, marked_owned) -> list:
        """Refine the marked owned leaves with cross-rank propagation.

        1. exchange refine requests along ownership boundaries,
        2. allgather the complete target set,
        3. apply the (deterministic) serial kernel to the union on every
           replica.

        Returns the ids of all elements bisected on this rank's replica
        (identical across ranks).
        """
        comm = self.comm
        marked_owned = np.asarray(marked_owned, dtype=np.int64)
        with PERF.span("pared.P0.lepp"):
            requests = self._lepp_remote_targets(marked_owned)
        with PERF.span("pared.P0.exchange"):
            # deterministic request exchange: every live rank sends to every
            # other live rank; requests travel as typed int64 arrays
            for dst in self.live:
                if dst != comm.rank:
                    comm.send(
                        np.asarray(requests.get(dst, []), dtype=np.int64), dst, tag=10
                    )
            received = [marked_owned]
            for src in self.live:
                if src != comm.rank:
                    received.append(comm.recv(src, tag=10))
            local_targets = sorted_unique(np.concatenate(received))
            all_targets = comm.allgather(local_targets, tag=11, ranks=self.live)
        union = sorted_unique(np.concatenate(all_targets)) if all_targets else []
        return self.amesh.refine(union)

    def parallel_coarsen(self, marked_owned) -> list:
        """Coarsen marked owned leaves; bisection groups spanning ownership
        boundaries are completed by the allgather union (both owners must
        have marked their children, exactly as in the serial rule)."""
        local = sorted_unique(np.asarray(marked_owned, dtype=np.int64))
        with PERF.span("pared.P0.exchange"):
            all_marked = self.comm.allgather(local, tag=12, ranks=self.live)
        union = np.concatenate(all_marked) if all_marked else []
        return self.amesh.coarsen(union)

    # ------------------------------------------------------------------ #
    # P1/P2: weight computation and reporting
    # ------------------------------------------------------------------ #

    def local_weight_update(self) -> dict:
        """Full packed vertex/edge weight report of ``G`` for this rank's
        owned roots (phase P1): flat sorted arrays, see
        :mod:`repro.pared.weights`.  What travels in P2 is the protocol's
        business — a delta of it, or its boundary slices.

        Edge ``(a, b)`` (with ``a < b``) is reported by the owner of ``a``.
        """
        return full_weight_report(
            coarse_dual_graph(self.amesh.mesh), self.owner, self.rank
        )

    def exchange_halo_weights(self, full: dict):
        """Phase P2, ``dkl`` variant: neighbor-to-neighbor halo exchange.

        Instead of sending its whole report to every peer, each rank sends
        the slice of ``full`` (this round's
        :meth:`local_weight_update`) incident to a neighbor's roots
        directly to that neighbor
        (:func:`~repro.pared.weights.split_report_by_owner`) and receives
        the symmetric slices back.  The set of ranks to expect messages
        from is computed from the *replicated structure* (which edges
        cross the ownership boundary is public knowledge; only the
        weights travel), so no handshake round is needed.  Returns this
        rank's assembled :class:`~repro.partition.distributed.PartView`.
        """
        n = self.amesh.n_roots
        skeleton = self.amesh.mesh.coarse_skeleton()
        payloads = split_report_by_owner(full, self.owner, n, self.rank)
        for t in sorted(payloads):
            self.comm.send(payloads[t], t, tag=21)
        # expected sources: owners of `a` for canonical edges (a, b) with
        # a < b, owner[b] == rank, owner[a] != rank — the mirror image of
        # the send rule above, read off M^0's adjacency
        src = skeleton.edge_src
        dst = skeleton.adjncy
        mask = (
            (src < dst)
            & (self.owner[dst] == self.rank)
            & (self.owner[src] != self.rank)
        )
        sources = np.unique(self.owner[src[mask]])
        received = [
            recv_with_retry(self.comm, int(s), tag=21) for s in sources
        ]
        return PartView.from_reports(n, self.rank, full, received)

    def exchange_weights(self, update: dict) -> list:
        """Phase P2: send this rank's weight delta to every live peer and
        return every live rank's delta (this rank's own included), in live
        order.

        The receives use the PARED-side retry/backoff discipline
        (:func:`~repro.runtime.faults.recv_with_retry`): under an active
        fault plan a delayed delivery costs retries, not the run; on the
        plain runtime this is a single receive per peer, unchanged.
        """
        for dst in self.live:
            if dst != self.rank:
                self.comm.send(update, dst, tag=20)
        return [
            update if src == self.rank else recv_with_retry(self.comm, src, tag=20)
            for src in self.live
        ]
