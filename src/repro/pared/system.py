"""The PARED driver: the solve→estimate→adapt→repartition→migrate loop of
Section 2, run SPMD over the simulated runtime.

``run_pared`` launches ``p`` ranks, and no rank is special.  Every rank
computes the initial partition of the coarse dual graph, merges the weight
deltas of phases P1/P2 into its own copy of ``G``, measures the imbalance,
repartitions ``G`` when it exceeds the trigger, and executes the tree
migrations (P3).  All of it is deterministic, so every rank takes the same
decision and no message carries one (the paper's Fig. 2 sends P2 to a
coordinator ``P_C`` instead; DESIGN.md records the substitution).

Each rank's ``G`` is assembled *only* from P2 messages — it never peeks at
the replica — so the test-suite can verify the distributed weight protocol
against the directly computed dual graph.  (The single exception is crash
recovery, which plans the re-assignment on the replica's dual graph and
then rebuilds ``G`` from full P2 reports on the next round.)

A round is one staged pipeline — mark → adapt (P0) → weigh (P1) → exchange
(P2) → decide → migrate (P3) → audit → record — in which two things vary,
each behind one private seam: the *mark* stage (``mark(dmesh, rnd) ->
(refine_ids, coarsen_ids, record_extras)``; the default evaluates
``cfg.marker`` on the replica, :mod:`repro.pared.workflow` substitutes a
distributed solve + a-posteriori estimate) and the *weight protocol*
(:mod:`repro.pared.protocols`, chosen once from ``cfg.partitioner``'s
family).  docs/runtime.md describes both.

Crash survival (``ParedConfig(recover=True)``): every rank checkpoints its
mesh, owner map and history at each round barrier
(:class:`~repro.runtime.recovery.CheckpointStore`).  When a peer dies, the
runtime raises :class:`~repro.runtime.recovery.PeerCrashed` from the
survivors' blocked receives; they then flush their channels, agree on the
newest checkpoint every survivor holds, each re-assign the dead rank's
coarse roots the same way via the ordinary repartition/migration machinery
(tree payloads owed by the dead rank are reconstructed from the replicated
mesh), and replay the interrupted round with ``p-1`` ranks.  All of it is deterministic given the
fault plan's seed, so two runs of the same configuration produce identical
recovered histories.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.core.pnr import PNR
from repro.mesh.adapt import AdaptiveMesh
from repro.mesh.dualgraph import coarse_dual_graph, leaf_assignment_from_roots
from repro.mesh.metrics import cut_size, shared_vertex_count
from repro.pared.distmesh import DistributedMesh
from repro.pared.migrate import execute_migration, plan_recovery_assignment
from repro.pared.protocols import _weight_protocol, _WeightProtocol
from repro.perf import PERF
from repro.runtime.faults import FaultPlan
from repro.runtime.recovery import (
    NO_CHECKPOINT,
    CheckpointStore,
    PeerCrashed,
    RoundCheckpoint,
    agree_replay_round,
    flush_channels,
)
from repro.runtime.simmpi import spmd_run
from repro.testing import (
    check_history_agreement,
    check_leaf_adjacency,
    check_migration_conservation,
    check_recovery_partition,
    check_replica_agreement,
)

#: collective-commit tag: no rank returns before every live rank finished
COMMIT_TAG = 73


@dataclass
class ParedConfig:
    """Configuration of a PARED run.

    Attributes
    ----------
    p:
        Number of ranks.
    make_mesh:
        Factory returning the initial :class:`AdaptiveMesh` (called once per
        rank; must be deterministic so replicas agree).
    marker:
        ``marker(amesh, round) -> (refine_leaf_ids, coarsen_leaf_ids)``.
        Conceptually each rank evaluates it on owned leaves; determinism
        lets every rank call it on the replica and keep only owned ids.
    rounds:
        Number of adapt/repartition rounds.
    pnr:
        The Equation-1 parameter object, handed whole to the registry
        strategy (and to crash recovery).  Its ablation switches reach the
        V-cycle under ``partitioner="pnr"``; any other strategy raises on a
        non-default one.
    imbalance_trigger:
        Repartition only when the measured imbalance (every rank measures
        the same one) exceeds this (the paper's "user-supplied workload
        imbalance").
    faults:
        Optional :class:`~repro.runtime.faults.FaultPlan` perturbing the
        simulated wire (``None`` — the default — keeps the runtime on its
        original zero-overhead path).
    audit:
        When True, every round ends with the :mod:`repro.testing`
        invariant checks (partition validity, replica agreement, migration
        conservation, dual-graph weight consistency, monotone-or-rollback
        refinement); violations raise
        :class:`~repro.testing.InvariantViolation`.  Audit traffic is
        labelled phase ``audit`` so P0–P3 accounting stays clean.
    recover:
        When True, a rank dying of an injected crash or retry exhaustion is
        survived: the remaining ranks checkpoint/replay the round and adopt
        the dead rank's trees (see the module docstring).  When False (the
        default) a crash surfaces as a clean
        :class:`~repro.runtime.faults.SimRankCrashed`, exactly as before.
    transport:
        Wire backend for the ranks: ``"thread"`` (default), ``"shm"``
        (one OS process per rank — real multi-core wall-clock —
        exchanging data frames through shared-memory rings with a
        persistent rank pool, see :mod:`repro.runtime.shm`), or ``None``
        to defer to the ``REPRO_TRANSPORT`` environment variable.
        ``faults``/``recover`` require the thread backend (see
        :func:`~repro.runtime.transport.resolve_backend`).
    partitioner:
        Repartitioning strategy by registry name
        (:data:`repro.partition.PARTITIONERS`): ``"pnr"`` (default — the
        paper's Equation-1 multilevel KL, run on every rank), ``"mlkl"``
        (scratch Multilevel-KL, label-aligned), ``"sfc"`` (Morton/Hilbert
        space-filling-curve splitting of the coarse-root centroids —
        O(n log n), incremental, the cheap high-throughput baseline), or
        ``"dkl"`` (distributed boundary refinement,
        :mod:`repro.partition.distributed`).  Under ``dkl`` the round is
        restructured: P2 weight exchange is neighbor-to-neighbor halo
        traffic instead of every delta to every rank, the imbalance comes
        from one allgather of per-rank load sums, and refinement runs SPMD
        on every rank (phase label ``dkl``).
    sfc_curve:
        Curve of the ``sfc`` strategy: ``"morton"`` (default) or
        ``"hilbert"``.  Ignored by the graph-based strategies.
    """

    p: int
    make_mesh: Callable[[], AdaptiveMesh]
    marker: Callable
    rounds: int = 4
    pnr: PNR = field(default_factory=PNR)
    imbalance_trigger: float = 0.05
    faults: Optional[FaultPlan] = None
    audit: bool = False
    recover: bool = False
    transport: Optional[str] = None
    partitioner: str = "pnr"
    sfc_curve: str = "morton"

    # not a field: bench/replay.py reads it as the rank whose P2 stays local
    coordinator = 0


def _replica_mark(cfg: ParedConfig):
    """The default *mark* stage: ``cfg.marker`` evaluated on the replica."""

    def mark(dmesh, rnd):
        refine_ids, coarsen_ids = cfg.marker(dmesh.amesh, rnd)
        return refine_ids, coarsen_ids, {}

    return mark


@dataclass
class _RankState:
    """Everything a rank mutates across rounds.  A checkpoint keeps the
    mesh, owner map and history; recovery rebuilds the protocol."""

    dmesh: DistributedMesh
    #: the weight protocol with its round state
    proto: _WeightProtocol
    history: list


def _pared_setup(comm, cfg: ParedConfig, live) -> _RankState:
    """Initial (or post-wipeout re-initial) partition and distribution:
    every rank partitions the unrefined mesh itself, identically."""
    live = sorted(live)
    amesh = cfg.make_mesh()
    proto = _weight_protocol(comm, cfg, amesh)
    owner = proto.initial_owner(amesh, live)
    return _RankState(DistributedMesh(comm, amesh, owner, live=live), proto, [])


def _pared_round(comm, cfg: ParedConfig, st: _RankState, rnd: int, mark) -> None:
    dmesh, proto = st.dmesh, st.proto
    amesh = dmesh.amesh

    # ---- P0: mark, adapt ------------------------------------------ #
    comm.set_phase("P0")
    with PERF.span("pared.P0"):
        with PERF.span("pared.P0.mark"):
            refine_ids, coarsen_ids, extras = mark(dmesh, rnd)
        dmesh.parallel_refine(dmesh.owned_leaves_among(refine_ids))
        dmesh.parallel_coarsen(dmesh.owned_leaves_among(coarsen_ids))
        leaves_before = amesh.leaf_ids().copy() if cfg.audit else None

    # ---- P1: weigh — local weights of owned roots ------------------- #
    comm.set_phase("P1")
    with PERF.span("pared.P1"):
        report = proto.weigh(dmesh)

    # ---- P2: exchange — ship them where the protocol decides -------- #
    comm.set_phase("P2")
    with PERF.span("pared.P2"):
        inbox = proto.exchange(dmesh, report)

    # ---- P3: decide, migrate -------------------------------------- #
    comm.set_phase("P3")
    with PERF.span("pared.P3"):
        new_owner, imb = proto.decide(dmesh, inbox)
        old_owner = dmesh.owner.copy()
        mig = execute_migration(comm, dmesh, new_owner)

    # ---- audit: executable invariants of the round ----------------- #
    if cfg.audit:
        comm.set_phase("audit")
        with PERF.span("pared.audit"):
            check_recovery_partition(dmesh.owner, dmesh.live, amesh.n_roots)
            check_replica_agreement(comm, dmesh.owner, ranks=dmesh.live)
            owned_all = comm.allgather(
                dmesh.owned_leaf_ids().tolist(), tag=91, ranks=dmesh.live
            )
            check_migration_conservation(leaves_before, amesh.leaf_ids(), owned_all)
            check_leaf_adjacency(amesh.mesh)
            # the weights the decision was taken on, against a recount
            proto.audit(dmesh, old_owner, imb)

    # ---- record: metrics (identical on every replica) -------------- #
    fine = leaf_assignment_from_roots(amesh.mesh, dmesh.owner)
    st.history.append(
        {
            "round": rnd,
            "leaves": amesh.n_leaves,
            "cut": cut_size(amesh.mesh, fine),
            "shared_vertices": shared_vertex_count(amesh.mesh, fine),
            "elements_moved": mig["elements_moved"],
            "trees_moved": mig["trees_moved"],
            "imbalance_before": imb,
            "local_load": dmesh.local_load(),
            "owner": dmesh.owner.copy(),
            "old_owner": old_owner,
            "p_live": len(dmesh.live),
            **extras,
        }
    )


def _save_checkpoint(store: CheckpointStore, rnd: int, st: _RankState) -> None:
    store.save(
        RoundCheckpoint(
            round=rnd,
            amesh=st.dmesh.amesh,
            owner=st.dmesh.owner,
            history=st.history,
        )
    )


def _recover(comm, cfg: ParedConfig, store: CheckpointStore, flush_seen: dict):
    """Survivor-side recovery: flush, agree, restore, re-assign, replay.

    Returns ``(next_round, state_or_None, live)``; a ``None`` state means
    some survivor had no checkpoint, so setup must be redone from scratch.
    """
    comm.set_phase("recovery")
    comm.acknowledge_membership()
    live = comm.live_ranks()
    flush_channels(comm, live, comm.ack_epoch, flush_seen)
    decision = agree_replay_round(comm, live, store.latest_round())
    if decision == NO_CHECKPOINT:
        store.clear()
        return 0, None, live

    ckpt = store.restore(decision)
    store.discard_after(decision)
    amesh = ckpt.amesh
    # fresh round state and a fresh strategy object (the sfc curve-order
    # cache rebuilds deterministically from the static root centroids):
    # no survivor has a delta baseline, so the next round's P2 carries full
    # reports and G is rebuilt from messages alone
    proto = _weight_protocol(comm, cfg, amesh)
    dmesh = DistributedMesh(comm, amesh, ckpt.owner, live=live)

    # every survivor plans the same re-assignment of the dead rank's roots
    # on its replica's dual graph (equal to the G merged at the checkpoint),
    # executed by the ordinary migration machinery; payloads owed by the
    # dead rank are reconstructed from the replica inside execute_migration
    leaves_before = amesh.leaf_ids().copy()
    new_owner = plan_recovery_assignment(
        coarse_dual_graph(amesh.mesh), ckpt.owner, live, cfg.pnr
    )
    mig = execute_migration(comm, dmesh, new_owner)

    # recovery invariants: the survivors hold a valid p-1 partition and the
    # leaf multiset is untouched
    check_recovery_partition(dmesh.owner, live, amesh.n_roots)
    check_migration_conservation(leaves_before, amesh.leaf_ids())
    if cfg.audit:
        check_replica_agreement(comm, dmesh.owner, ranks=live)

    st = _RankState(dmesh, proto, ckpt.history)
    st.history.append(
        {
            "round": ckpt.round,
            "recovery": True,
            "leaves": amesh.n_leaves,
            "elements_moved": mig["elements_moved"],
            "trees_moved": mig["trees_moved"],
            "owner": dmesh.owner.copy(),
            "old_owner": ckpt.owner.copy(),
            "p_live": len(live),
            "dead": comm.dead_ranks(),
        }
    )
    return ckpt.round + 1, st, live


def _pared_rank(comm, cfg: ParedConfig, mark=None):
    mark = mark or _replica_mark(cfg)
    recover = cfg.recover and getattr(comm, "recovery_enabled", False)
    store = CheckpointStore(keep=2) if recover else None
    flush_seen: dict = {}
    live = list(range(comm.size))
    st: Optional[_RankState] = None
    rnd = 0
    while True:
        try:
            if st is None:
                st = _pared_setup(comm, cfg, live)
                if recover:
                    _save_checkpoint(store, -1, st)
                rnd = 0
            while rnd < cfg.rounds:
                _pared_round(comm, cfg, st, rnd, mark)
                if recover:
                    _save_checkpoint(store, rnd, st)
                rnd += 1
            if recover:
                # collective commit: a rank may only return once every live
                # rank got through all rounds, so a crash in the final
                # round still finds every survivor reachable for recovery
                comm.set_phase("commit")
                comm.allgather(("commit", rnd), tag=COMMIT_TAG, ranks=st.dmesh.live)
            return st.history
        except PeerCrashed:
            if not recover:
                raise
            while True:
                try:
                    rnd, st, live = _recover(comm, cfg, store, flush_seen)
                    break
                except PeerCrashed:
                    continue  # another death mid-recovery: restart it


def _run_rounds(cfg: ParedConfig, mark=None):
    """The SPMD entry both public drivers share: ``cfg.p`` ranks of the
    round engine with the given (picklable) mark stage."""
    PERF.reset()
    histories, stats = spmd_run(
        cfg.p,
        _pared_rank,
        cfg,
        mark,
        return_stats=True,
        faults=cfg.faults,
        recover=cfg.recover,
        transport=cfg.transport,
    )
    check_history_agreement(histories)
    stats.kernel_perf = PERF.snapshot()
    return histories, stats


def run_pared(cfg: ParedConfig):
    """Run the PARED loop; returns ``(histories, traffic_stats)`` where
    ``histories[r]`` is rank ``r``'s per-round record list (replica metrics
    agree across ranks — enforced by
    :func:`~repro.testing.check_history_agreement`; ``local_load`` differs
    by design).  With ``cfg.recover=True`` a crashed rank's slot is ``None``
    and ``traffic_stats.membership_events`` records the deaths.

    ``traffic_stats.kernel_perf`` holds the wall-clock profile of the run —
    ``{name: (calls, seconds)}`` aggregated over all ranks: the round phases
    (``pared.P0``..``pared.P3``, ``pared.audit``) and the multilevel kernels
    underneath them (``kl.refine``, ``matching.hem``, ``contract``, ...).
    See docs/performance.md."""
    return _run_rounds(cfg)
