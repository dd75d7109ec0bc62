"""The weight protocol of a PARED round.

Between adaptation (P0) and migration, a round must learn the new weights
of the coarse dual graph ``G``, measure the imbalance and — past the
trigger — choose a new owner map.  No rank coordinates: every live rank
feeds the same inputs to the same seeded strategy, so each one computes
the same owner map and no message carries a decision.  There is one
protocol, whatever the strategy (:class:`_WeightProtocol`): every rank
diffs its own counts against last round's, slot by slot, and sends the
delta to every live peer in slot space (int32 root ids and forward-slot
positions with their counts); each rank scatters all of them into its own
:class:`_MergedGraph` and runs the registry strategy on it.  Round state:
the delta baseline and ``G``.  Neither is checkpointed: a recovery starts
a fresh protocol, whose zero baseline makes its first P2 carry full
reports.

The round engine (:mod:`repro.pared.system`) calls ``weigh`` (P1),
``exchange`` (P2), ``decide`` (P3, up to the migration) and ``audit``.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import WeightedGraph
from repro.mesh.dualgraph import coarse_dual_graph, coarse_root_centroids
from repro.partition.metrics import imbalance
from repro.partition.registry import make_repartitioner
from repro.perf import PERF
from repro.runtime.recovery import compact_owner, expand_owner
from repro.testing import check_dual_graph_weights, check_monotone_refinement


def _on_live(live, size: int, fn, *owners):
    """``fn(k, *owners)`` over the ``k`` live ranks.  The partition kernels
    need labels dense in ``range(k)``: after a death the owner maps are
    compacted on the way in and an owner-map result expanded on the way
    out; while the full communicator is alive this is a plain call."""
    if len(live) == size:
        return fn(size, *owners)
    out = fn(len(live), *(compact_owner(o, live) for o in owners))
    return out if out is None else expand_owner(out, live)


class _MergedGraph:
    """A rank's copy of ``G``: the CSR skeleton of ``M^0`` re-weighed with
    values that arrive *only* in P2 frames.

    ``G``'s key set is ``M^0``'s and never changes, so the state is two
    dense arrays: one weight per root (``vwts``) and one per skeleton slot
    (``ewts``, aligned with the skeleton's ``adjncy``).  A frame names both
    by position: root ids, and indices into ``fwd``, the skeleton's forward
    slots.  A merge range-checks every index, then scatters each forward
    slot's count into its ``a→b`` and ``b→a`` slots; an index out of range,
    or a slot no frame has filled, raises ``ValueError`` — the
    loud-failure rule of :func:`~repro.mesh.dualgraph.coarse_dual_graph`.
    """

    def __init__(self, skeleton: WeightedGraph):
        self.skeleton = skeleton
        n = skeleton.n_vertices
        src, dst = skeleton.edge_src, skeleton.adjncy
        slots = src * n + dst  # ascending: the skeleton's rows are sorted
        #: the forward slots (``a→b``, ``a < b``), ascending — what a
        #: frame's ``e_pos`` indexes, on the sending side too
        self.fwd = np.flatnonzero(src < dst)
        #: each forward slot's mirror ``b→a``
        self._rev = np.searchsorted(slots, dst[self.fwd] * n + src[self.fwd])
        self.vwts = np.zeros(n)
        self.ewts = np.zeros(dst.shape[0])

    def merge(self, frames) -> None:
        """Apply one round's frames.  Every entry has exactly one reporter
        (the owner of its root, or of the edge's lower endpoint), so the
        arrival order does not matter."""
        def cat(field):
            return np.concatenate([f[field] for f in frames])

        v_ids, e_pos = cat("v_ids"), cat("e_pos")
        for field, ids, bound in (("v_ids", v_ids, self.vwts.shape[0]),
                                  ("e_pos", e_pos, self.fwd.shape[0])):
            bad = (ids < 0) | (ids >= bound)
            if bad.any():
                raise ValueError(
                    f"{field} entry {int(ids[bad][0])} is outside [0, {bound})"
                )
        self.vwts[v_ids] = cat("v_wts")
        self.ewts[self.fwd[e_pos]] = self.ewts[self._rev[e_pos]] = cat("e_wts")
        if not (self.vwts.all() and self.ewts.all()):
            raise ValueError("a root or shared facet of M^0 was never reported")

    def graph(self) -> WeightedGraph:
        return self.skeleton.with_weights(self.ewts.copy(), self.vwts.copy())


class _WeightProtocol:
    """P1–P3 up to the migration, with its round state: the registry
    strategy (it carries the sfc curve-order cache across rounds), the
    root centroids (computed only for a strategy that reads them, ``None``
    for the others), the merged ``G`` and the delta baseline.  Built
    fresh, with a fresh strategy object, at setup and at every recovery."""

    def __init__(self, comm, cfg, amesh):
        self.comm, self.cfg = comm, cfg
        self.repart = repart = make_repartitioner(
            cfg.partitioner, pnr=cfg.pnr, curve=cfg.sfc_curve
        )
        self.root_coords = (
            coarse_root_centroids(amesh.mesh) if repart.reads_coords else None
        )
        #: weights *only* from P2 messages, structure from M^0
        self.G = _MergedGraph(amesh.mesh.coarse_skeleton())
        self.graph = None  # G as of the latest merge
        #: last round's own counts per root and per forward slot — the
        #: baseline P2 deltas are cut against; 0 = not reported
        self._prev = (np.zeros(amesh.n_roots, dtype=np.int64),
                      np.zeros(self.G.fwd.shape[0], dtype=np.int64))

    def initial_owner(self, amesh, live) -> np.ndarray:
        """Partition of the unrefined coarse dual graph."""
        graph0 = coarse_dual_graph(amesh.mesh)
        return _on_live(
            live,
            self.comm.size,
            lambda k: self.repart.initial(graph0, k, coords=self.root_coords),
        )

    def weigh(self, dmesh) -> dict:
        """This rank's P2 frame: the entries of its counts that are new or
        changed since last round, diffed slot by slot, as four int32
        arrays — root ids ``v_ids`` with their leaf counts ``v_wts``, and
        positions in ``G.fwd`` ``e_pos`` with their facet counts ``e_wts``.
        A count is nonzero exactly on the owned rows (every tree has a
        leaf, and ``weigh`` raises on an empty slot of a counted row), so
        ``!= 0`` is "in the report" and ``!= prev`` is "not reported with
        this value": a root that comes back after a round elsewhere is
        re-reported, and the zero baseline of a fresh protocol sends the
        full report."""
        vwts, ewts = dmesh.owned_weights()
        ewts = ewts[self.G.fwd]
        prev_v, prev_e = self._prev
        self._prev = vwts, ewts
        v_ids = np.flatnonzero((vwts != prev_v) & (vwts != 0))
        e_pos = np.flatnonzero((ewts != prev_e) & (ewts != 0))
        return {
            "v_ids": v_ids.astype(np.int32),
            "v_wts": vwts[v_ids].astype(np.int32),
            "e_pos": e_pos.astype(np.int32),
            "e_wts": ewts[e_pos].astype(np.int32),
        }

    def exchange(self, dmesh, delta):
        return self.comm.allgather(delta, tag=20, ranks=dmesh.live)

    def decide(self, dmesh, msgs):
        """``(new_owner, imbalance)``, the same on every live rank."""
        comm = self.comm
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
