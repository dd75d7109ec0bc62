"""Distributed view of the nested mesh: replicated structure, partitioned
ownership, explicit communication.

Every rank holds a full replica of the
:class:`~repro.mesh.adapt.AdaptiveMesh` (kept bit-identical across ranks by
applying all structural operations in a canonical global order), plus the
shared ownership array mapping each coarse root — hence each refinement
tree — to a rank.  Ranks *decide* only about owned trees; decisions that
affect other ranks' trees travel as messages:

* each rank's refinement targets — its marked leaves plus the elements of
  other ranks' trees its propagation reaches, the cross-boundary
  requests — and coarsening marks, in one allgather (P0),
* weight updates to every peer (P1/P2),
* tree payloads (P3).

The replicated-apply trick keeps the simulation honest where it matters
(what is communicated, by whom, and that parallel refinement equals serial
refinement — the property PARED proves in [12]) without re-implementing a
distributed mesh database in Python.
"""

from __future__ import annotations

import numpy as np

from repro.mesh import _meshnative
from repro.mesh.adapt import AdaptiveMesh
from repro.mesh.base import sorted_unique
from repro.mesh.dualgraph import coarse_dual_graph
from repro.mesh.forest import LEAF
from repro.pared.weights import full_weight_report, split_report_by_owner
from repro.partition.distributed import PartView
from repro.perf import PERF


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

    def leaf_owners(self) -> np.ndarray:
        """Owning rank of every leaf (via its root), aligned with
        ``leaf_ids()``."""
        return self.owner[self.amesh.leaf_roots()]

    def owned_leaf_ids(self) -> np.ndarray:
        """Sorted ids of the leaves this rank owns."""
        return self.amesh.leaf_ids()[self.leaf_owners() == self.rank]

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

    def parallel_adapt(self, refine_owned, coarsen_ids) -> tuple:
        """Phase P0: refine, then coarsen, every replica alike.

        This rank's refinement targets are ``refine_owned`` (its marked
        owned leaves) plus the elements the first refinement wave walks
        from them in trees another rank owns — the refine requests that
        cross processor boundaries; its coarsening marks are the ids in
        ``coarsen_ids`` that are leaves it owns before this round's
        refinement (:meth:`owned_leaves_among`).  One
        allgather over the live ranks ships both, then every replica
        refines the union of the targets and coarsens the union of the
        marks (:func:`~repro.mesh.coarsen.coarsen` keeps the marks that
        are still leaves and merges only bisection groups marked whole,
        across owners too).

        Returns ``(bisected, merged)``, what
        :meth:`~repro.mesh.adapt.AdaptiveMesh.refine` and
        :meth:`~repro.mesh.adapt.AdaptiveMesh.coarsen` return — identical
        across ranks.  The walk raises past the refinement's step limit.
        """
        mesh = self.amesh.mesh
        roots = mesh.forest.root_array
        targets = np.asarray(refine_owned, dtype=np.int64)
        if len(self.live) > 1:
            with PERF.span("pared.P0.lepp"):
                path = _meshnative.walk(mesh, targets)
                targets = np.concatenate(
                    [targets, path[self.owner[roots[path]] != self.rank]]
                )
        marks = self.owned_leaves_among(coarsen_ids)
        with PERF.span("pared.P0.exchange"):
            gathered = self.comm.allgather((targets, marks), tag=11, ranks=self.live)
        targets, marks = zip(*gathered)
        bisected = self.amesh.refine(sorted_unique(np.concatenate(targets)))
        return bisected, self.amesh.coarsen(np.concatenate(marks))

    # ------------------------------------------------------------------ #
    # P1/P2: weight computation and reporting
    # ------------------------------------------------------------------ #

    def owned_weights(self) -> tuple:
        """This rank's P1 recount (Fig. 2's local weights): ``(vwts,
        ewts)``, int64, one entry per root and per skeleton slot, counted
        on the owned rows only and 0 everywhere else
        (:func:`~repro.mesh._meshnative.weigh` at the owned roots)."""
        owned = np.flatnonzero(self.owner == self.rank)
        with PERF.span("mesh.dual_graph"):
            return _meshnative.weigh(self.amesh.mesh, owned)

    def local_weight_update(self) -> dict:
        """Full packed vertex/edge weight report of ``G`` for this rank's
        owned roots (phase P1): flat sorted arrays, see
        :mod:`repro.pared.weights`.  What travels in P2 is the protocol's
        business — a delta of it, or its boundary slices.

        Only the owned trees are recounted (their rows of ``G``,
        :func:`~repro.mesh.dualgraph.coarse_dual_graph` at ``owned``); edge
        ``(a, b)`` (with ``a < b``) is reported by the owner of ``a``.
        """
        owned = np.flatnonzero(self.owner == self.rank)
        return full_weight_report(
            coarse_dual_graph(self.amesh.mesh, owned), self.owner, self.rank
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
        received = [self.comm.recv(int(s), tag=21) for s in sources]
        return PartView.from_reports(n, self.rank, full, received)
