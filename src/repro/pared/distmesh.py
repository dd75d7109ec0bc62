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
from repro.mesh.forest import LEAF
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
    # P1: weight computation
    # ------------------------------------------------------------------ #

    def owned_weights(self) -> tuple:
        """This rank's P1 recount (Fig. 2's local weights): ``(vwts,
        ewts)``, int64, one entry per root and per skeleton slot, counted
        on the owned rows only and 0 everywhere else
        (:func:`~repro.mesh._meshnative.weigh` at the owned roots)."""
        owned = np.flatnonzero(self.owner == self.rank)
        with PERF.span("mesh.dual_graph"):
            return _meshnative.weigh(self.amesh.mesh, owned)
