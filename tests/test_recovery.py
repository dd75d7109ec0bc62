"""Crash-survival tests: checkpoint/replay primitives, membership events,
and the chaos ladder — the PARED loop must finish with a valid ``p-1``
partition no matter which rank dies, and two same-seed runs must recover
bit-identically.
"""

import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.pnr import PNR
from repro.mesh.adapt import AdaptiveMesh
from repro.mesh.dualgraph import coarse_dual_graph
from repro.pared import ParedConfig, run_pared
from repro.pared.migrate import plan_recovery_assignment
from repro.runtime import (
    CheckpointStore,
    FaultPlan,
    MembershipChange,
    PeerCrashed,
    RoundCheckpoint,
    SimRankCrashed,
    compact_owner,
    expand_owner,
    spmd_run,
)
from repro.runtime.recovery import NO_CHECKPOINT, flush_channels
from repro.testing import (
    InvariantViolation,
    check_history_agreement,
    check_recovery_partition,
)

_P = 3
_ROUNDS = 3


def _marker(amesh, rnd):
    cents = amesh.leaf_centroids()
    d = np.linalg.norm(cents - 0.5, axis=1)
    order = np.argsort(d)[: max(1, amesh.n_leaves // 8)]
    return amesh.leaf_ids()[order], []


def _cfg(faults=None, recover=True, audit=True, rounds=_ROUNDS,
         partitioner="pnr"):
    return ParedConfig(
        p=_P,
        make_mesh=lambda: AdaptiveMesh.unit_square(4),
        marker=_marker,
        rounds=rounds,
        pnr=PNR(seed=1),
        faults=faults,
        audit=audit,
        recover=recover,
        partitioner=partitioner,
    )


def _canon(histories):
    """Histories as plain data, so two runs can be compared exactly."""
    out = []
    for h in histories:
        if h is None:
            out.append(None)
            continue
        out.append(
            [
                {
                    k: (v.tolist() if isinstance(v, np.ndarray) else v)
                    for k, v in rec.items()
                }
                for rec in h
            ]
        )
    return out


def _assert_survivable_outcome(histories, stats, crash_rank):
    """Every run under a crash plan must end in one of the two legitimate
    states: the rank died and the survivors recovered onto ``p-1`` ranks,
    or the rank finished all its protocol obligations before its op counter
    reached the trigger (clean tail) and the full-``p`` run stands."""
    dead = [r for r, h in enumerate(histories) if h is None]
    check_history_agreement(histories)
    survivors = [h for h in histories if h is not None]
    assert survivors, "all ranks died"
    final = survivors[0][-1]
    if dead:
        assert dead == [crash_rank]
        assert [e.rank for e in stats.membership_events] == [crash_rank]
        live = [r for r in range(_P) if r != crash_rank]
        check_recovery_partition(final["owner"], live)
        assert final["p_live"] == _P - 1
        # either a checkpoint was replayed (recovery marker record) or the
        # death predated the first checkpoint and setup was redone on p-1
        # ranks from the start
        recovered = any(rec.get("recovery") for rec in survivors[0])
        resetup = survivors[0][0]["p_live"] == _P - 1
        assert recovered or resetup
    else:
        assert stats.membership_events == []
        assert final["p_live"] == _P
    # the round ladder replayed to completion either way
    assert final["round"] == _ROUNDS - 1


# --------------------------------------------------------------------- #
# unit tests: checkpoint store and owner-map compaction
# --------------------------------------------------------------------- #


class TestCheckpointStore:
    def _ckpt(self, rnd, tag):
        return RoundCheckpoint(
            round=rnd,
            amesh={"mesh": tag},
            owner=np.array([0, 1, 2]),
            history=[{"round": rnd}],
        )

    def test_empty_store_has_no_checkpoint(self):
        store = CheckpointStore()
        assert store.latest_round() == NO_CHECKPOINT
        assert len(store) == 0

    def test_keeps_only_newest_k(self):
        store = CheckpointStore(keep=2)
        for rnd in (-1, 0, 1, 2):
            store.save(self._ckpt(rnd, f"m{rnd}"))
        assert len(store) == 2
        assert store.latest_round() == 2
        with pytest.raises(KeyError):
            store.restore(0)

    def test_restore_is_deep_and_independent(self):
        store = CheckpointStore(keep=2)
        ck = self._ckpt(0, "m0")
        store.save(ck)
        ck.history.append({"round": 99})  # mutate after save
        a = store.restore(0)
        assert a.history == [{"round": 0}]
        a.owner[0] = 7  # mutate one restore
        b = store.restore(0)
        assert b.owner[0] == 0

    def test_discard_after_and_clear(self):
        store = CheckpointStore(keep=3)
        for rnd in (0, 1, 2):
            store.save(self._ckpt(rnd, f"m{rnd}"))
        store.discard_after(0)
        assert store.latest_round() == 0
        store.clear()
        assert store.latest_round() == NO_CHECKPOINT


class TestOwnerCompaction:
    @given(live=st.sets(st.integers(0, 12), min_size=1), data=st.data())
    def test_roundtrip(self, live, data):
        ranks = st.sampled_from(sorted(live))
        owner = np.array(data.draw(st.lists(ranks, max_size=30)), dtype=np.int64)
        compact = compact_owner(owner, live)
        assert np.all(compact < len(live))
        assert np.array_equal(expand_owner(compact, live), owner)
        # a root of a non-live rank is an error naming the first offender
        dead = data.draw(st.integers(0, 13).filter(lambda r: r not in live))
        at = data.draw(st.integers(0, owner.size))
        bad = np.append(np.insert(owner, at, dead), dead)
        with pytest.raises(
            ValueError, match=f"root {at} owned by non-live rank {dead}$"
        ):
            compact_owner(bad, live)

    def test_plan_recovery_assignment_moves_orphans_to_live(self, grid_graph):
        rng = np.random.default_rng(0)
        owner = rng.integers(0, 4, size=grid_graph.n_vertices).astype(np.int64)
        live = [0, 2, 3]  # rank 1 died
        new = plan_recovery_assignment(
            grid_graph, owner, live, PNR(alpha=1.0, beta=1.0, balance_tol=0.05)
        )
        check_recovery_partition(new, live, grid_graph.n_vertices)
        # survivors' roots were not gratuitously shuffled away from them
        kept = np.asarray(owner) == new
        assert kept[np.isin(owner, live)].mean() > 0.5


# --------------------------------------------------------------------- #
# runtime: deaths become membership events instead of poisoning the run
# --------------------------------------------------------------------- #


class TestMembershipRuntime:
    def test_timeout_death_becomes_membership_event(self):
        plan = FaultPlan(seed=0, recv_timeout=0.1, max_retries=1)

        def prog(comm):
            if comm.rank == 1:
                comm.recv(0, tag=99)  # nobody sends: dies of exhaustion
                return "unreachable"
            try:
                # generous explicit patience: only the peer's death (not our
                # own exhaustion) can end this receive
                comm.recv(1, tag=98, timeout=60.0)
            except PeerCrashed as e:
                return [ev.rank for ev in e.events]

        results, stats = spmd_run(
            2, prog, return_stats=True, faults=plan, recover=True
        )
        assert results[0] == [1]
        assert results[1] is None
        assert [e.rank for e in stats.membership_events] == [1]
        assert stats.membership_events[0].cause == "timeout"

    def test_queued_messages_drain_before_crash_detection(self):
        plan = FaultPlan(seed=0, crash_rank=1, crash_at_op=2)

        def prog(comm):
            if comm.rank == 1:
                comm.send("payload", 0, tag=5)  # op 1: send, then die at op 2
                comm.recv(0, tag=6)
                return "unreachable"
            got = comm.recv(1, tag=5)  # already queued: must deliver
            with pytest.raises(PeerCrashed):
                comm.recv(1, tag=7)  # never sent: death surfaces here
            return got

        results = spmd_run(2, prog, faults=plan, recover=True)
        assert results[0] == "payload"
        assert results[1] is None

    def test_send_to_dead_rank_is_dropped(self):
        plan = FaultPlan(seed=0, crash_rank=1, crash_at_op=1)

        def prog(comm):
            if comm.rank == 1:
                comm.recv(0, tag=5)
                return "unreachable"
            try:
                comm.recv(1, tag=5)
            except PeerCrashed:
                comm.acknowledge_membership()
            comm.send("into the void", 1, tag=5)  # must not raise or hang
            return comm.dead_ranks()

        results = spmd_run(2, prog, faults=plan, recover=True)
        assert results[0] == [1]

    def test_blocked_barrier_raises_then_runs_over_survivors(self):
        """A survivor blocked in ``barrier()`` when a peer dies gets
        :class:`PeerCrashed` like any other blocked receive — the barrier
        does not quietly release on the lowered live count — and once it
        has acknowledged the death, a barrier over the survivors
        completes.  The interrupted barrier's tokens are messages like any
        other, so the survivors flush them first (the recovery protocol's
        rendezvous): a fast survivor's new token must not land in a slow
        one's old barrier."""
        plan = FaultPlan(seed=0, crash_rank=1, crash_at_op=1)

        def prog(comm):
            if comm.rank == 1:
                time.sleep(0.2)  # the others are blocked in the barrier
                comm.barrier()  # op 1, its first token send: dies
                return "unreachable"
            try:
                comm.barrier()
            except PeerCrashed as e:
                dead = [ev.rank for ev in e.events]
            else:
                return "released without rank 1"
            comm.acknowledge_membership()
            flush_channels(comm, comm.live_ranks(), comm.ack_epoch)
            comm.barrier()
            return dead, comm.live_ranks()

        results = spmd_run(3, prog, faults=plan, recover=True)
        assert results == [([1], [0, 2]), None, ([1], [0, 2])]

    def test_recover_false_keeps_failstop_semantics(self):
        cfg = _cfg(
            faults=FaultPlan(seed=0, crash_rank=1, crash_at_op=10),
            recover=False,
        )
        with pytest.raises(SimRankCrashed):
            run_pared(cfg)

    def test_membership_change_is_frozen_and_descriptive(self):
        ev = MembershipChange(rank=2, epoch=1, cause="crash", op=17)
        with pytest.raises(Exception):
            ev.rank = 3
        assert "2" in repr(ev)


# --------------------------------------------------------------------- #
# the chaos ladder: crash every rank, sweep crash times, replay seeds
# --------------------------------------------------------------------- #


class TestCrashRecoveryLadder:
    @pytest.mark.parametrize("crash_rank", [0, 1, 2])
    def test_crash_each_rank_mid_ladder(self, crash_rank):
        cfg = _cfg(FaultPlan(seed=0, crash_rank=crash_rank, crash_at_op=12))
        histories, stats = run_pared(cfg)
        _assert_survivable_outcome(histories, stats, crash_rank)
        assert histories[crash_rank] is None  # op 12 is always reached

    @pytest.mark.parametrize("crash_at_op", [2, 7, 18, 30, 300])
    def test_crash_op_sweep(self, crash_at_op):
        cfg = _cfg(FaultPlan(seed=0, crash_rank=1, crash_at_op=crash_at_op))
        histories, stats = run_pared(cfg)
        _assert_survivable_outcome(histories, stats, crash_rank=1)

    def test_rank0_crash_recovers_on_the_survivors(self):
        cfg = _cfg(FaultPlan(seed=0, crash_rank=0, crash_at_op=8))
        histories, stats = run_pared(cfg)
        assert histories[0] is None
        _assert_survivable_outcome(histories, stats, crash_rank=0)
        final = histories[1][-1]
        assert set(np.unique(final["owner"]).tolist()) <= {1, 2}

    @staticmethod
    def _planned_on_the_mesh(crash_rank, crash_at_op, rounds):
        """Run to the crash; return the survivors' recovery record and the
        plan ``plan_recovery_assignment`` makes on the dual graph of the
        checkpointed mesh, re-adapted serially."""
        def make_mesh():
            return AdaptiveMesh.unit_square(10)

        cfg = ParedConfig(
            p=_P,
            make_mesh=make_mesh,
            marker=_marker,
            rounds=rounds,
            pnr=PNR(seed=1),
            faults=FaultPlan(seed=0, crash_rank=crash_rank, crash_at_op=crash_at_op),
            recover=True,
        )
        histories, _ = run_pared(cfg)
        assert histories[crash_rank] is None
        survivor = next(h for h in histories if h is not None)
        rec = next(r for r in survivor if r.get("recovery"))
        amesh = make_mesh()
        for rnd in range(rec["round"] + 1):
            amesh.refine(_marker(amesh, rnd)[0])
        live = [r for r in range(_P) if r != crash_rank]
        want = plan_recovery_assignment(
            coarse_dual_graph(amesh.mesh), rec["old_owner"], live, cfg.pnr
        )
        return rec, want

    def test_crash_before_first_merge_plans_on_the_mesh(self):
        """A death before round 0's P2 merge replays from the setup
        checkpoint: the recovery plan is taken on ``M^0``'s dual graph, not
        on an all-zero ``G``."""
        rec, want = self._planned_on_the_mesh(2, 10, rounds=1)
        assert rec["round"] == -1
        assert np.array_equal(rec["owner"], want)

    @pytest.mark.parametrize("crash_rank", [0, 2])
    def test_crash_after_first_merge_plans_on_the_mesh(self, crash_rank):
        """A death in round 1 replays from round 0's checkpoint.  No
        checkpoint holds ``G``: every survivor plans on its replica's dual
        graph, which equals the ``G`` merged in round 0 — the mesh
        re-adapted serially with the same marker."""
        rec, want = self._planned_on_the_mesh(crash_rank, 24, rounds=2)
        assert rec["round"] == 0
        assert np.array_equal(rec["owner"], want)

    def test_recovery_is_replayable_from_seed(self):
        plan = FaultPlan(seed=0, crash_rank=2, crash_at_op=12)
        h1, _ = run_pared(_cfg(plan))
        h2, _ = run_pared(_cfg(plan))
        assert _canon(h1) == _canon(h2)

    @pytest.mark.parametrize("partitioner", ["dkl"])
    @pytest.mark.parametrize("crash_rank", [0, 1, 2])
    def test_crash_under_dkl_replays_bit_identically(
        self, crash_rank, partitioner
    ):
        """Crash recovery under the halo protocol family (today: ``dkl``):
        every crash point, rank 0 included, must be survivable and two same-seed
        runs must recover onto identical histories."""
        plan = FaultPlan(seed=0, crash_rank=crash_rank, crash_at_op=12)
        h1, s1 = run_pared(_cfg(plan, partitioner=partitioner))
        h2, _ = run_pared(_cfg(plan, partitioner=partitioner))
        assert _canon(h1) == _canon(h2)
        _assert_survivable_outcome(h1, s1, crash_rank)

    def test_recovery_under_message_chaos_is_replayable(self):
        plan = FaultPlan(
            seed=5,
            crash_rank=1,
            crash_at_op=15,
            reorder_rate=0.1,
            duplicate_rate=0.1,
            delay_rate=0.05,
            recv_timeout=0.4,
            max_retries=4,
        )
        h1, s1 = run_pared(_cfg(plan))
        h2, _ = run_pared(_cfg(plan))
        assert _canon(h1) == _canon(h2)
        _assert_survivable_outcome(h1, s1, crash_rank=1)

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        crash_rank=st.integers(min_value=0, max_value=_P - 1),
        crash_at_op=st.integers(min_value=1, max_value=40),
    )
    def test_any_crash_point_is_survivable(self, crash_rank, crash_at_op):
        cfg = _cfg(
            FaultPlan(seed=0, crash_rank=crash_rank, crash_at_op=crash_at_op)
        )
        histories, stats = run_pared(cfg)
        _assert_survivable_outcome(histories, stats, crash_rank)
