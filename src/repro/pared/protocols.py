"""The two weight protocols of a PARED round.

Between adaptation (P0) and migration, a round must learn the new weights
of the coarse dual graph ``G``, measure the imbalance and — past the
trigger — choose a new owner map.  How is a property of the repartitioning
strategy's family, and the only thing about a round that varies with it:

* :class:`_CoordinatorProtocol` (strategies with ``halo = False``:
  ``pnr``/``mlkl``/``sfc``): every rank diffs
  its report against last round's, the deltas travel to ``P_C``, which
  merges them into its :class:`_CoordinatorGraph` and runs the registry
  strategy on it.  Round state: the delta baseline on every rank, ``G`` on
  ``P_C`` — both checkpointed.
* :class:`_HaloProtocol` (``halo = True``: ``dkl``): boundary slices of
  the full report travel neighbor-to-neighbor into a
  :class:`~repro.partition.distributed.PartView`, ``P_C`` keeps only an
  O(p) gather of load sums, and the tournament runs SPMD on every rank
  (phase label ``dkl``).  No state survives a round, so nothing is
  checkpointed.

The round engine (:mod:`repro.pared.system`) calls ``weigh`` (P1),
``exchange`` (P2), ``decide`` (P3, up to the migration) and ``audit`` on
whichever :func:`_weight_protocol` picked, and never asks which.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import WeightedGraph
from repro.mesh.dualgraph import coarse_dual_graph, coarse_root_centroids
from repro.pared.weights import diff_weight_report
from repro.partition.metrics import imbalance
from repro.partition.registry import make_repartitioner
from repro.perf import PERF
from repro.runtime.recovery import compact_owner, expand_owner
from repro.testing import (
    check_dual_graph_weights,
    check_halo_weights,
    check_monotone_refinement,
)


def _on_live(live, size: int, fn, *owners):
    """``fn(k, *owners)`` over the ``k`` live ranks.  The partition kernels
    need labels dense in ``range(k)``: after a death the owner maps are
    compacted on the way in and an owner-map result expanded on the way
    out; while the full communicator is alive this is a plain call."""
    if len(live) == size:
        return fn(size, *owners)
    out = fn(len(live), *(compact_owner(o, live) for o in owners))
    return out if out is None else expand_owner(out, live)


class _CoordinatorGraph:
    """P_C's view of ``G``: the CSR skeleton of ``M^0`` re-weighed with
    values that arrive *only* in packed P2 messages.

    ``G``'s key set is ``M^0``'s and never changes, so the state is two
    dense arrays: one weight per root (``vwts``) and one per skeleton slot
    (``ewts``, aligned with the skeleton's ``adjncy``).  A merge scatters
    each reported key ``a * n + b`` (``a < b``) into its ``a→b`` and
    ``b→a`` slots; a key the skeleton lacks, or a slot no report has filled,
    raises ``ValueError`` — the loud-failure rule of
    :func:`~repro.mesh.dualgraph.coarse_dual_graph`.
    """

    def __init__(self, skeleton: WeightedGraph):
        self.skeleton = skeleton
        n = skeleton.n_vertices
        src, dst = skeleton.edge_src, skeleton.adjncy
        slots = src * n + dst  # ascending: the skeleton's rows are sorted
        self._fwd = np.nonzero(src < dst)[0]
        self._keys = slots[self._fwd]
        self._rev = np.searchsorted(slots, dst[self._fwd] * n + src[self._fwd])
        self.vwts = np.zeros(n)
        self.ewts = np.zeros(dst.shape[0])

    def merge(self, messages) -> None:
        """Apply one round's deltas.  Every key has exactly one reporter
        (the owner of its root, or of the edge's lower endpoint), so the
        arrival order does not matter."""
        def cat(field):
            return np.concatenate([m[field] for m in messages])

        self.vwts[cat("v_ids")] = cat("v_wts")
        keys = cat("e_keys")
        pos = np.searchsorted(self._keys, keys)
        hit = pos < self._keys.size
        hit[hit] = self._keys[pos[hit]] == keys[hit]
        if not hit.all():
            raise ValueError(f"edge key {int(keys[~hit][0])} is no shared facet of M^0")
        self.ewts[self._fwd[pos]] = self.ewts[self._rev[pos]] = cat("e_wts")
        if not (self.vwts.all() and self.ewts.all()):
            raise ValueError("a root or shared facet of M^0 was never reported")

    def graph(self) -> WeightedGraph:
        return self.skeleton.with_weights(self.ewts.copy(), self.vwts.copy())


class _WeightProtocol:
    """What both protocols share: the registry strategy (on ``P_C`` it
    carries the sfc curve-order cache across rounds) and, on ``P_C``, the
    root centroids for the initial partition."""

    def __init__(self, comm, cfg, coordinator: int, amesh, repart):
        self.comm, self.cfg, self.C = comm, cfg, coordinator
        self.repart, self.root_coords = repart, None
        if comm.rank == coordinator:
            self.root_coords = coarse_root_centroids(amesh.mesh)

    def initial_owner(self, amesh, live) -> np.ndarray:
        """``P_C`` only: partition of the unrefined coarse dual graph."""
        graph0 = coarse_dual_graph(amesh.mesh)
        return _on_live(
            live,
            self.comm.size,
            lambda k: self.repart.initial(graph0, k, coords=self.root_coords),
        )

    def snapshot(self) -> dict:
        """The :class:`~repro.runtime.recovery.RoundCheckpoint` fields this
        protocol owns."""
        return {}

    def restore(self, ckpt):
        """Adopt the checkpointed round state (only called while ``P_C`` is
        who it was at the checkpoint).  Returns the ``G`` that ``P_C`` held
        then, when the protocol keeps one."""
        return None


class _CoordinatorProtocol(_WeightProtocol):
    def __init__(self, comm, cfg, coordinator: int, amesh, repart):
        super().__init__(comm, cfg, coordinator, amesh, repart)
        #: last round's full report — the baseline P2 deltas are cut against
        self.prev_full = None
        #: weights *only* from P2 messages, structure from M^0
        self.G = (
            _CoordinatorGraph(amesh.mesh.coarse_skeleton())
            if comm.rank == coordinator
            else None
        )
        self.graph = None  # G as of the latest merge (P_C only)

    def weigh(self, dmesh) -> dict:
        full = dmesh.local_weight_update()
        delta = diff_weight_report(full, self.prev_full)
        self.prev_full = full
        return delta

    def exchange(self, dmesh, delta):
        return dmesh.send_weights_to_coordinator(delta, self.C)

    def decide(self, dmesh, msgs):
        """``(new_owner, imbalance)`` on ``P_C``, ``(None, None)`` elsewhere."""
        comm = self.comm
        if comm.rank != self.C:
            return None, None
        with PERF.span("pared.repartition.serial"):
            self.G.merge(msgs)
            graph = self.graph = self.G.graph()
            loads = np.bincount(dmesh.owner, weights=graph.vwts, minlength=comm.size)
            imb = imbalance(loads[dmesh.live])
            if imb <= self.cfg.imbalance_trigger:
                return dmesh.owner.copy(), imb
            new_owner = _on_live(
                dmesh.live,
                comm.size,
                lambda k, owner: self.repart.repartition(
                    graph, k, owner, coords=self.root_coords
                ),
                dmesh.owner,
            )
        return new_owner, imb

    def audit(self, dmesh, old_owner, imb) -> None:
        if self.comm.rank != self.C:
            return
        # G was assembled purely from P2 messages — auditing it against a
        # brute-force recount verifies the weight protocol end to end
        check_dual_graph_weights(dmesh.amesh.mesh, self.graph)
        # strategies that optimize another objective than Equation 1 are
        # checked by validity/balance alone
        cfg = self.cfg
        if imb > cfg.imbalance_trigger and self.repart.monotone:
            _on_live(
                dmesh.live,
                self.comm.size,
                lambda k, old, new: check_monotone_refinement(
                    self.graph, k, old, new, cfg.pnr.alpha, cfg.pnr.beta
                ),
                old_owner,
                dmesh.owner,
            )

    def snapshot(self) -> dict:
        snap = {"prev_full": self.prev_full}
        # no weights before P_C's first merge: a replay from the setup
        # checkpoint then plans on the replica, as a failover does
        if self.graph is not None:
            snap["coord_vwts"] = self.G.vwts
            snap["coord_ewts"] = self.G.ewts
        return snap

    def restore(self, ckpt):
        self.prev_full = ckpt.prev_full
        if self.G is None or ckpt.coord_vwts is None:
            return None
        self.G.vwts, self.G.ewts = ckpt.coord_vwts, ckpt.coord_ewts
        return self.G.graph()


class _HaloProtocol(_WeightProtocol):
    view = None  # this round's PartView (the audit reads it)

    def weigh(self, dmesh) -> dict:
        # no delta machinery: the halo exchange ships each round's full
        # (small, per-neighbor) boundary slices, so there is no baseline
        # to diff against and nothing for a coordinator to accumulate
        return dmesh.local_weight_update()

    def exchange(self, dmesh, full):
        """Halo slices to the neighbors; ``P_C``'s only job is the O(p)
        scalar imbalance check on gathered load sums.  Returns the
        replica-identical ``(loads, wmax, imbalance)``."""
        comm, live = self.comm, dmesh.live
        self.view = dmesh.exchange_halo_weights(full)
        wsum = float(full["v_wts"].sum())
        wmax_local = float(full["v_wts"].max()) if full["v_wts"].size else 0.0
        gathered = comm.gather(
            (wsum, wmax_local), root=self.C, tag=42, ranks=live
        )
        measured = None
        if comm.rank == self.C:
            loads = np.zeros(comm.size)
            loads[live] = [s for s, _ in gathered]
            wmax = max(m for _, m in gathered)
            measured = (loads, float(wmax), imbalance(loads[live]))
        return comm.bcast(measured, root=self.C, tag=43, ranks=live)

    def decide(self, dmesh, measured):
        comm = self.comm
        loads, wmax, imb = measured
        if imb <= self.cfg.imbalance_trigger:
            assign = dmesh.owner.copy()
        else:
            comm.set_phase("dkl")
            loads = np.asarray(loads, dtype=np.float64)
            assign = self.repart.refine_spmd(
                comm, self.view, dmesh.owner, loads, wmax, dmesh.live
            )
            comm.set_phase("P3")
        # every rank computed the identical assignment; the migration
        # machinery still takes it from the coordinator side unchanged
        return (assign if comm.rank == self.C else None), imb

    def audit(self, dmesh, old_owner, imb) -> None:
        # every rank's halo view was assembled purely from P2 neighbor
        # messages (plus proposal payloads as roots changed hands) — audit
        # it against a brute-force recount of the incident set of the
        # roots it now owns
        check_halo_weights(dmesh.amesh.mesh, self.view, dmesh.owner, self.comm.rank)


def _weight_protocol(comm, cfg, coordinator: int, amesh) -> _WeightProtocol:
    """The protocol of ``cfg.partitioner``'s family, with fresh round state
    and a fresh strategy object."""
    repart = make_repartitioner(cfg.partitioner, pnr=cfg.pnr, curve=cfg.sfc_curve)
    cls = _HaloProtocol if repart.halo else _CoordinatorProtocol
    return cls(comm, cfg, coordinator, amesh, repart)
