"""Tests for the PARED system layer: distributed mesh, migration, and the
full phase loop."""

import numpy as np
import pytest

from repro.core import PNR
from repro.fem import CornerLaplace2D, interpolation_error_indicator, mark_top_fraction
from repro.mesh import AdaptiveMesh, coarse_dual_graph
from repro.pared import (
    DistributedMesh,
    ParedConfig,
    WorkflowConfig,
    execute_migration,
    migration_directives,
    run_pared,
    run_workflow,
)
from repro.runtime import FaultPlan, shm
from repro.runtime.shm import pool_stats, shutdown_pools
from repro.runtime.simmpi import spmd_run
from tests.conftest import rank_deltas


class TestDirectives:
    def test_no_change_no_directives(self):
        owner = np.array([0, 1, 2, 0])
        assert migration_directives(owner, owner) == []

    def test_directive_contents(self):
        old = np.array([0, 1, 1])
        new = np.array([0, 0, 2])
        d = migration_directives(old, new)
        assert d == [(1, 1, 0), (2, 1, 2)]


class TestDistributedMesh:
    def test_ownership_queries(self):
        def prog(comm):
            am = AdaptiveMesh.unit_square(4)
            owner = np.arange(am.n_roots) % comm.size
            dm = DistributedMesh(comm, am, owner)
            assert dm.local_load() == len(dm.owned_leaf_ids())
            total = comm.allreduce(dm.local_load())
            assert total == am.n_leaves
            return True

        assert all(spmd_run(4, prog))

    def test_owned_leaves_among_is_intersect1d(self):
        """The round's own-marks lookup returns what ``np.intersect1d``
        against ``owned_leaf_ids()`` did, on everything a marker may hand
        it: repeats, interior and inactive elements, other ranks' leaves,
        ids outside the forest, nothing at all."""

        def prog(comm):
            am = AdaptiveMesh.unit_square(4)
            am.refine(am.leaf_ids()[::3])
            am.refine(am.leaf_ids()[::5])
            am.coarsen(am.leaf_ids()[-12:])
            dm = DistributedMesh(comm, am, np.arange(am.n_roots) % comm.size)
            rng = np.random.default_rng(comm.rank)
            n = am.mesh.n_elements
            for ids in (
                rng.integers(-3, n + 3, size=4 * n),
                list(range(n)) + [0, 0, n, -1],
                am.leaf_ids()[::-1],
                [],
            ):
                want = np.intersect1d(
                    np.asarray(ids, dtype=np.int64), dm.owned_leaf_ids()
                )
                got = dm.owned_leaves_among(ids)
                assert got.dtype == np.int64 and np.array_equal(got, want)
            return True

        assert all(spmd_run(3, prog))

    def test_owner_validation(self):
        def prog(comm):
            am = AdaptiveMesh.unit_square(2)
            with pytest.raises(ValueError):
                DistributedMesh(comm, am, np.zeros(3, dtype=int))
            with pytest.raises(ValueError):
                DistributedMesh(comm, am, np.full(am.n_roots, 99))
            return True

        assert all(spmd_run(1, prog))

    def test_parallel_refine_equals_serial(self):
        marked_global = [0, 7, 13, 20]

        def prog(comm):
            am = AdaptiveMesh.unit_square(4)
            owner = np.arange(am.n_roots) % comm.size
            dm = DistributedMesh(comm, am, owner)
            owned = set(int(e) for e in dm.owned_leaf_ids())
            mine = [e for e in marked_global if e in owned]
            dm.parallel_refine(mine)
            return am.n_leaves, {
                tuple(sorted(map(tuple, np.round(am.verts[c], 12))))
                for c in am.leaf_cells()
            }

        results = spmd_run(3, prog)
        serial = AdaptiveMesh.unit_square(4)
        serial.refine(marked_global)
        serial_geo = {
            tuple(sorted(map(tuple, np.round(serial.verts[c], 12))))
            for c in serial.leaf_cells()
        }
        for n, geo in results:
            assert n == serial.n_leaves
            assert geo == serial_geo

    def test_lepp_remote_targets_match_scalar_walk(self):
        """The array walk collects exactly the off-rank path elements the
        element-at-a-time walk over the scalar accessors finds."""
        am = AdaptiveMesh.unit_square(5)
        rng = np.random.default_rng(5)
        for _ in range(3):
            am.refine(rng.choice(am.leaf_ids(), size=am.n_leaves // 4, replace=False))
        mesh = am.mesh
        owner = np.arange(am.n_roots) % 3

        def prog(comm):
            dm = DistributedMesh(comm, am, owner)
            mine = dm.owned_leaf_ids()[::2]
            expect = {r: set() for r in range(3) if r != comm.rank}
            for e in mine.tolist():
                while True:
                    own = owner[mesh.forest.root(e)]
                    if own != comm.rank:
                        expect[own].add(e)
                    a, b = mesh.longest_edge(e)
                    nb = mesh.neighbor_across(e, a, b)
                    if nb is None or mesh.longest_edge(nb) == (a, b):
                        break
                    e = nb
            got = dm._lepp_remote_targets(mine)
            assert got == {r: sorted(v) for r, v in expect.items()}
            return sum(map(len, got.values()))

        assert sum(spmd_run(3, prog)) > 0

    def test_parallel_refine_is_id_exact(self):
        """Element and vertex ids, not only geometry: the kernel numbers
        children per wave from the *set* of targets, and the remote LEPP
        elements the ranks add to that set would be bisected anyway."""
        rounds = [[0, 7, 13, 20], [33, 36, 40, 41, 47], [50, 61, 62, 70, 75]]

        def prog(comm):
            am = AdaptiveMesh.unit_square(4)
            owner = np.arange(am.n_roots) % comm.size
            dm = DistributedMesh(comm, am, owner)
            remote = 0
            for marked in rounds:
                mine = np.intersect1d(marked, dm.owned_leaf_ids())
                remote += sum(map(len, dm._lepp_remote_targets(mine).values()))
                dm.parallel_refine(mine)
            f = am.mesh.forest
            return remote, am.mesh.cells.copy(), am.verts.copy(), f.parent_array.copy()

        results = spmd_run(3, prog)
        serial = AdaptiveMesh.unit_square(4)
        for marked in rounds:
            serial.refine(marked)
        assert sum(r[0] for r in results) > 0  # requests did cross ranks
        for _, cells, verts, parent in results:
            assert np.array_equal(cells, serial.mesh.cells)
            assert np.array_equal(verts, serial.verts)
            assert np.array_equal(parent, serial.mesh.forest.parent_array)

    def test_parallel_coarsen_equals_serial(self):
        def prog(comm):
            am = AdaptiveMesh.unit_square(4)
            am.uniform_refine(1)
            owner = np.arange(am.n_roots) % comm.size
            dm = DistributedMesh(comm, am, owner)
            mine = [int(e) for e in dm.owned_leaf_ids()]
            dm.parallel_coarsen(mine)
            return am.n_leaves

        results = spmd_run(3, prog)
        serial = AdaptiveMesh.unit_square(4)
        serial.uniform_refine(1)
        serial.coarsen(serial.leaf_ids())
        assert all(n == serial.n_leaves for n in results)

    def test_weight_update_matches_dual_graph(self):
        from repro.pared.weights import split_edge_keys

        def prog(comm):
            am = AdaptiveMesh.unit_square(4)
            am.refine([0, 3])
            owner = np.arange(am.n_roots) % comm.size
            dm = DistributedMesh(comm, am, owner)
            upd = dm.local_weight_update()
            all_updates = comm.allgather(upd)
            if comm.rank == 0:
                g = coarse_dual_graph(am.mesh)
                n = am.n_roots
                v_ids = np.concatenate([u["v_ids"] for u in all_updates])
                v_wts = np.concatenate([u["v_wts"] for u in all_updates])
                assert v_ids.size == n == np.unique(v_ids).size
                vwts = np.zeros(n)
                vwts[v_ids] = v_wts
                assert np.array_equal(vwts, g.vwts)
                # every coarse edge reported exactly once, correct weight
                e_keys = np.concatenate([u["e_keys"] for u in all_updates])
                e_wts = np.concatenate([u["e_wts"] for u in all_updates])
                assert e_keys.size == g.n_edges == np.unique(e_keys).size
                mat = g.to_scipy()
                ea, eb = split_edge_keys(e_keys, n)
                for a, b, w in zip(ea, eb, e_wts):
                    assert a < b and mat[a, b] == w
            return True

        assert all(spmd_run(2, prog))


class TestMigration:
    def test_execute_migration_moves_ownership(self):
        def prog(comm):
            am = AdaptiveMesh.unit_square(4)
            am.refine([0])
            owner = np.zeros(am.n_roots, dtype=np.int64)
            dm = DistributedMesh(comm, am, owner)
            new_owner = owner.copy()
            new_owner[:5] = 1
            stats = execute_migration(comm, dm, new_owner)
            assert np.array_equal(dm.owner, new_owner)
            return stats

        results = spmd_run(2, prog)
        for s in results:
            assert s["trees_moved"] == 5
            # root 0 was refined: its tree has 2+ leaves
            assert s["elements_moved"] >= 6
        assert results[0]["sent_here"] == 5
        assert results[1]["received_here"] == 5

    def test_migration_accounting_matches_cmigrate(self):
        def prog(comm):
            am = AdaptiveMesh.unit_square(4)
            am.refine(list(range(6)))
            owner = np.arange(am.n_roots) % comm.size
            dm = DistributedMesh(comm, am, owner)
            g = coarse_dual_graph(am.mesh)
            rng = np.random.default_rng(0)
            new_owner = rng.integers(0, comm.size, am.n_roots)
            stats = execute_migration(comm, dm, new_owner)
            expected = g.vwts[np.asarray(owner) != new_owner].sum()
            assert stats["elements_moved"] == expected
            return True

        assert all(spmd_run(3, prog))


def _moving_peak_marker(amesh, rnd):
    """Refine the top of the moving peak's indicator, coarsen its floor."""
    from repro.fem import MovingPeakPoisson2D, mark_under_threshold

    prob = MovingPeakPoisson2D(-0.5 + 0.2 * rnd)
    ind = interpolation_error_indicator(amesh, prob.exact)
    refine = mark_top_fraction(amesh, ind, 0.15)
    coarsen = mark_under_threshold(amesh, ind, 1e-4)
    return refine, coarsen


class TestFullLoop:
    def test_run_pared_end_to_end(self):
        prob = CornerLaplace2D()

        def marker(amesh, rnd):
            ind = interpolation_error_indicator(amesh, prob.exact)
            return mark_top_fraction(amesh, ind, 0.2), []

        cfg = ParedConfig(
            p=3,
            make_mesh=lambda: AdaptiveMesh.unit_square(8),
            marker=marker,
            rounds=3,
            pnr=PNR(seed=0),
        )
        histories, stats = run_pared(cfg)
        assert len(histories) == 3
        # replicas agree on global state
        for other in histories[1:]:
            for a, b in zip(histories[0], other):
                assert a["leaves"] == b["leaves"]
                assert np.array_equal(a["owner"], b["owner"])
        # loads sum to the mesh on every round
        for rnd in range(3):
            loads = [h[rnd]["local_load"] for h in histories]
            assert sum(loads) == histories[0][rnd]["leaves"]
        # every rank's G was maintained purely from P2 messages and the
        # repartitions kept balance reasonable
        final = histories[0][-1]
        p = cfg.p
        mean = final["leaves"] / p
        loads = [h[-1]["local_load"] for h in histories]
        assert max(loads) / mean - 1 < 0.6
        report = stats.phase_report()
        # every rank sends its delta to both peers, every round
        assert report["P2"][0] == 3 * 2 * 3

    @pytest.mark.parametrize("partitioner", ["mlkl", "sfc", "dkl"])
    def test_run_pared_alternate_partitioners(self, partitioner):
        """The full P0–P3 loop works with every registry strategy, not just
        the default pnr path.  The dkl leg runs audited, so every round
        also proves the halo views match a brute-force recount."""
        prob = CornerLaplace2D()

        def marker(amesh, rnd):
            ind = interpolation_error_indicator(amesh, prob.exact)
            return mark_top_fraction(amesh, ind, 0.2), []

        cfg = ParedConfig(
            p=3,
            make_mesh=lambda: AdaptiveMesh.unit_square(8),
            marker=marker,
            rounds=3,
            pnr=PNR(seed=0),
            partitioner=partitioner,
            audit=partitioner == "dkl",
        )
        histories, _ = run_pared(cfg)
        assert len(histories) == 3
        for other in histories[1:]:
            for a, b in zip(histories[0], other):
                assert np.array_equal(a["owner"], b["owner"])
        for rnd in range(3):
            loads = [h[rnd]["local_load"] for h in histories]
            assert sum(loads) == histories[0][rnd]["leaves"]
        final = histories[0][-1]
        loads = [h[-1]["local_load"] for h in histories]
        assert max(loads) / (final["leaves"] / cfg.p) - 1 < 0.8

    def test_dkl_escape_rounds_cost_no_extra_exchange(self, monkeypatch):
        """One allgather per scoring round plus one per rebalance: the
        escape offer rides in the round's proposal frame, so the rounds in
        which nothing moved and an escape was resolved add no message."""
        from repro.partition import distributed

        prob = CornerLaplace2D()

        def marker(amesh, rnd):
            ind = interpolation_error_indicator(amesh, prob.exact)
            return mark_top_fraction(amesh, ind, 0.2), []

        traces = []
        real_loop = distributed._refine_loop

        def traced_loop(views, *args, **kwargs):
            if list(views) == [0]:  # one replica's record is enough
                kwargs["trace"] = []
                traces.append(kwargs["trace"])
            return real_loop(views, *args, **kwargs)

        monkeypatch.setattr(distributed, "_refine_loop", traced_loop)
        cfg = ParedConfig(
            p=2,
            make_mesh=lambda: AdaptiveMesh.unit_square(8),
            marker=marker,
            rounds=3,
            pnr=PNR(seed=0),
            partitioner="dkl",
            transport="thread",
        )
        _, stats = run_pared(cfg)
        assert traces, "no repartition ran"
        rounds = [
            [rec for rec in trace if "round" in rec] for trace in traces
        ]
        n_rounds = sum(len(r) for r in rounds)
        n_rebalances = sum(bool(rec["rebalance"]) for r in rounds for rec in r)
        n_escapes = sum(bool(rec["escape"]) for r in rounds for rec in r)
        assert n_escapes > 0 and n_rebalances > 0
        # at p=2 an allgather is one message each way
        messages = stats.phase_report()["dkl"][0]
        assert messages == 2 * (n_rounds + n_rebalances)
        # and the per-round byte ledger saw every round of the longest call
        profile = stats.round_profile("dkl.proposals")
        assert len(profile) == max(len(r) for r in rounds)
        assert all(nbytes > 0 for nbytes in profile)

    @pytest.mark.parametrize("partitioner", ["pnr", "dkl"])
    def test_2d_round_never_sorts_the_leaf_facets(self, monkeypatch, partitioner):
        """P1, the cut and every other consumer of the leaf adjacency read
        it off ``_nbr`` in 2-D: with the audit (whose oracle is the sort)
        off, a round with refinement and coarsening never reaches it."""
        from repro.mesh import dualgraph

        def no_sort(mesh):
            raise AssertionError("whole-mesh facet sort reached from a round")

        monkeypatch.setattr(dualgraph, "_compute_leaf_adjacency_pairs", no_sort)
        cfg = ParedConfig(
            p=2,
            make_mesh=lambda: AdaptiveMesh.unit_square(8),
            marker=_moving_peak_marker,
            rounds=3,
            pnr=PNR(seed=1),
            partitioner=partitioner,
            transport="thread",
        )
        histories, _ = run_pared(cfg)
        assert histories[0][-1]["cut"] > 0

    def test_marker_with_coarsening(self):
        cfg = ParedConfig(
            p=2,
            make_mesh=lambda: AdaptiveMesh.unit_square(8),
            marker=_moving_peak_marker,
            rounds=3,
            pnr=PNR(seed=1),
        )
        histories, _ = run_pared(cfg)
        assert histories[0][-1]["leaves"] > 0


class TestSymmetricProtocol:
    """No rank coordinates: every rank merges ``G`` and computes the owner
    map itself, so no frame carries a decision.  Observed with a spy on
    every ``send`` of a thread run at p = 3."""

    @staticmethod
    def _sends(monkeypatch, partitioner, **kw):
        from repro.runtime.simmpi import SimComm

        sent = []
        real_send = SimComm.send

        def spy(comm, obj, dest, tag=0):
            sent.append((comm.rank, dest, tag, comm.phase))
            return real_send(comm, obj, dest, tag)

        monkeypatch.setattr(SimComm, "send", spy)
        cfg = ParedConfig(
            p=3,
            make_mesh=lambda: AdaptiveMesh.unit_square(8),
            marker=_moving_peak_marker,
            rounds=3,
            pnr=PNR(seed=1),
            partitioner=partitioner,
            transport="thread",
            **kw,
        )
        histories, _ = run_pared(cfg)
        return histories[0], sent

    @pytest.mark.parametrize("partitioner", ["pnr", "dkl"])
    def test_no_frame_carries_a_decision(self, monkeypatch, partitioner):
        # tags of the retired owner broadcasts: initial (40), per round
        # (30), and the halo imbalance (43)
        history, sent = self._sends(monkeypatch, partitioner)
        assert any(rec["trees_moved"] for rec in history)
        assert not [s for s in sent if s[2] in (30, 40, 43)]

    def test_p2_sends_every_delta_to_every_peer(self, monkeypatch):
        history, sent = self._sends(monkeypatch, "pnr")
        p2 = [(src, dst) for src, dst, tag, _ in sent if tag == 20]
        pairs = [(a, b) for a in range(3) for b in range(3) if a != b]
        assert sorted(p2) == sorted(pairs * len(history))
        assert {phase for _, _, tag, phase in sent if tag == 20} == {"P2"}

    @pytest.mark.parametrize("partitioner", ["pnr", "dkl"])
    def test_p3_that_moves_nothing_sends_nothing(self, monkeypatch, partitioner):
        history, sent = self._sends(
            monkeypatch, partitioner, imbalance_trigger=10.0
        )
        assert not any(rec["trees_moved"] for rec in history)
        assert not [s for s in sent if s[3] in ("P3", "dkl")]


def _packed_report(v, e, n):
    """Build a packed weight report from ``{root: w}`` / ``{(a, b): w}``
    dicts — test-side sugar over the array wire format."""
    v_ids = np.array(sorted(v), dtype=np.int64)
    e_ab = sorted(e)
    return {
        "v_ids": v_ids,
        "v_wts": np.array([v[a] for a in v_ids], dtype=np.float64),
        "e_keys": np.array([a * n + b for a, b in e_ab], dtype=np.int64),
        "e_wts": np.array([e[k] for k in e_ab], dtype=np.float64),
    }


class TestDeltaTombstones:
    """Why the P2 delta protocol needs no tombstones: ``G``'s key set is
    ``M^0``'s, every root has one owner, so a key a rank stops reporting is
    re-reported by its new owner and a rank's merge only ever overwrites
    dense slots of ``M^0``'s skeleton."""

    def test_diff_update_sends_only_changes(self):
        from repro.pared.weights import diff_weight_report, edge_keys

        n = 8
        prev = _packed_report({0: 1.0, 1: 2.0}, {(0, 1): 3.0, (1, 2): 1.0}, n)
        full = _packed_report({0: 1.0, 2: 4.0}, {(0, 1): 5.0}, n)
        delta = diff_weight_report(full, prev)
        # 0 unchanged and 1 handed away: neither is sent
        assert delta["v_ids"].tolist() == [2]
        assert delta["v_wts"].tolist() == [4.0]
        assert delta["e_keys"].tolist() == [int(edge_keys(0, 1, n))]
        assert delta["e_wts"].tolist() == [5.0]
        assert sorted(delta) == ["e_keys", "e_wts", "v_ids", "v_wts"]

    def test_merge_handoff_is_order_independent(self):
        from repro.pared.protocols import _MergedGraph

        # root 3 (and every edge it is the lower endpoint of) moves from
        # rank 0 to rank 1 as it refines: the old owner goes silent about
        # it, the new one reports it fresh
        amesh = AdaptiveMesh.unit_square(2)
        owner = np.zeros(amesh.n_roots, dtype=np.int64)
        prev = [None, None]
        first = rank_deltas(coarse_dual_graph(amesh.mesh), owner, prev)
        amesh.refine([3])
        owner[3] = 1
        graph = coarse_dual_graph(amesh.mesh)
        batch = rank_deltas(graph, owner, prev)
        assert 3 not in batch[0]["v_ids"] and 3 in batch[1]["v_ids"]
        for order in (batch, batch[::-1]):
            cg = _MergedGraph(amesh.mesh.coarse_skeleton())
            cg.merge(first)
            cg.merge(order)
            assert np.array_equal(cg.vwts, graph.vwts)
            assert np.array_equal(cg.ewts, graph.ewts)

    def test_coordinator_graph_reuses_its_skeleton(self):
        """``graph()`` re-weighs ``M^0``'s skeleton: it shares the CSR
        arrays with :func:`coarse_dual_graph` and equals it array for
        array."""
        from repro.pared.protocols import _MergedGraph

        amesh = AdaptiveMesh.unit_square(3)
        skeleton = amesh.mesh.coarse_skeleton()
        cg = _MergedGraph(skeleton)
        owner = np.arange(amesh.n_roots, dtype=np.int64) % 3
        prev = [None] * 3
        for rnd in range(3):
            amesh.refine(amesh.leaf_ids()[rnd :: 5].tolist())
            want = coarse_dual_graph(amesh.mesh)
            cg.merge(rank_deltas(want, owner, prev))
            got = cg.graph()
            assert got.xadj is skeleton.xadj and got.adjncy is skeleton.adjncy
            for name in ("xadj", "adjncy", "ewts", "vwts"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
            owner = np.roll(owner, 1)

    def test_coarsen_heavy_audited_run_keeps_graph_exact(self):
        """End-to-end: a refine-then-coarsen ladder with migrations keeps
        every rank's ``G`` bit-exact against brute-force recounts
        every round (``audit=True`` trips on any stale entry)."""

        def marker(amesh, rnd):
            cents = amesh.leaf_centroids()
            d = np.linalg.norm(cents - 0.5, axis=1)
            if rnd < 2:  # refine toward the corner...
                k = max(1, amesh.n_leaves // 4)
                return amesh.leaf_ids()[np.argsort(d)[:k]], []
            # ...then coarsen aggressively everywhere
            return [], list(amesh.leaf_ids())

        cfg = ParedConfig(
            p=3,
            make_mesh=lambda: AdaptiveMesh.unit_square(4),
            marker=marker,
            rounds=4,
            pnr=PNR(seed=0),
            imbalance_trigger=0.01,  # force frequent handoffs
            audit=True,
        )
        histories, _ = run_pared(cfg)
        leaf_trace = [rec["leaves"] for rec in histories[0]]
        assert leaf_trace[2] < leaf_trace[1], "ladder must actually coarsen"


_PARITY_PROBLEM = CornerLaplace2D()


def _parity_mesh():
    # large enough that migration and halo frames outgrow a 4 KiB ring
    return AdaptiveMesh.unit_square(12)


def _parity_marker(amesh, rnd):
    ind = interpolation_error_indicator(amesh, _PARITY_PROBLEM.exact)
    return mark_top_fraction(amesh, ind, 0.2), []


class TestTransportParity:
    """One PARED run must be bit-identical across transport backends: the
    algorithm is deterministic given the seed, and the forked backend
    changes only how bytes move between ranks — never what they say.
    Covered once per way a frame can travel on shm: a one-shot fork (the
    closure config cannot be pickled), pooled workers over the ring, and
    pooled workers whose 4 KiB ring cuts every mid-size frame into
    continuation records and blocks its sender while full."""

    @staticmethod
    def _cfg(transport, partitioner, picklable=False):
        mesh, marker = _parity_mesh, _parity_marker
        if not picklable:
            mesh, marker = (lambda: _parity_mesh()), (
                lambda amesh, rnd: _parity_marker(amesh, rnd)
            )
        return ParedConfig(
            p=3,
            make_mesh=mesh,
            marker=marker,
            rounds=2,
            pnr=PNR(seed=0),
            transport=transport,
            partitioner=partitioner,
        )

    @pytest.mark.parametrize("partitioner", ["pnr", "dkl"])
    @pytest.mark.parametrize("route", ["oneshot", "pooled", "tiny_ring"])
    def test_shm_run_matches_thread_bit_for_bit(
        self, monkeypatch, route, partitioner
    ):
        hist_t, stats_t = run_pared(self._cfg("thread", partitioner))
        if route == "tiny_ring":
            monkeypatch.setattr(shm, "RING_BYTES", 4096)
        shutdown_pools()
        try:
            hist_s, stats_s = run_pared(
                self._cfg("shm", partitioner, picklable=route != "oneshot")
            )
            jobs = {size: n for size, (n, _) in pool_stats().items()}
        finally:
            shutdown_pools()  # do not leave a 4 KiB-ring pool behind
        assert stats_s.backend == "shm"
        assert jobs == ({} if route == "oneshot" else {3: 1})
        wire = stats_s.wire_report()
        assert wire.get("ring_frames", 0) > 0
        assert wire["copied_bytes"] == wire["ring_bytes"]
        assert not [k for k in wire if k.startswith("spill_")]

        for per_rank_t, per_rank_s in zip(hist_t, hist_s):
            assert len(per_rank_t) == len(per_rank_s)
            for a, b in zip(per_rank_t, per_rank_s):
                assert a.keys() == b.keys()
                for key in a:
                    assert np.array_equal(a[key], b[key]), key
        # the wire ledger is part of the contract too: same phases, same
        # message and byte counts, same pair matrix — for dkl that includes
        # the halo exchange and the proposal allgathers of the tournament
        assert stats_t.phase_report() == stats_s.phase_report()
        assert dict(stats_t.by_pair) == dict(stats_s.by_pair)
        assert ("dkl" in stats_t.phase_report()) == (partitioner == "dkl")


class TestWorkflow:
    """``run_workflow`` is the round engine with a solve-driven mark stage:
    same spans, record, audit and weight protocols as ``run_pared``."""

    #: per-round (leaves, cut, shared_vertices, elements_moved,
    #: cg_iterations) of the hand-written driver this engine replaced
    PINNED = [(88, 13, 15, 0, 13), (116, 16, 18, 4, 22)]

    @staticmethod
    def _cfg(**kw):
        return WorkflowConfig(
            p=3,
            make_mesh=lambda: AdaptiveMesh.unit_square(6),
            problem=CornerLaplace2D(),
            rounds=2,
            pnr=PNR(seed=1),
            **kw,
        )

    @staticmethod
    def _trace(hist):
        keys = ("leaves", "cut", "shared_vertices", "elements_moved", "cg_iterations")
        return [tuple(rec[k] for k in keys) for rec in hist]

    def test_solve_driven_loop(self):
        histories, stats = run_workflow(self._cfg(audit=True))
        assert [self._trace(h) for h in histories] == [self.PINNED] * 3
        # the solve phase communicates (halo + reductions)
        assert stats.phase_report()["solve"][0] > 0
        # what the engine gives every driver: spans and the full record
        assert {"pared.P0", "pared.P1", "pared.P2", "pared.P3"} <= set(
            stats.kernel_perf
        )
        for rec in histories[0]:
            assert {"owner", "trees_moved", "p_live", "eta_max"} <= set(rec)

    def test_dkl_runs_the_spmd_tournament(self):
        histories, stats = run_workflow(self._cfg(partitioner="dkl", audit=True))
        assert stats.phase_report()["dkl"][0] > 0
        assert histories[0][-1]["elements_moved"] > 0

    def test_fault_plan_reproduces_clean_history(self):
        # a reordered message is held 0.12 s and CG sends hundreds: keep few
        plan = FaultPlan(seed=3, reorder_rate=0.02, duplicate_rate=0.3)
        histories, stats = run_workflow(self._cfg(faults=plan))
        assert [self._trace(h) for h in histories] == [self.PINNED] * 3
        kinds = stats.fault_log.kinds()
        assert kinds.get("reorder") and kinds.get("duplicate")

    def test_config_carries_every_engine_field(self):
        """``WorkflowConfig`` once mirrored the engine's options by hand
        and silently lost ``recover``: the engine's field list is stated
        once, so an option added to ``ParedConfig`` is a workflow option."""
        import dataclasses

        engine = {f.name: f for f in dataclasses.fields(ParedConfig)}
        workflow = {f.name: f for f in dataclasses.fields(WorkflowConfig)}
        assert set(engine) <= set(workflow)
        for name in set(engine) - {"marker", "rounds"}:
            assert workflow[name].default == engine[name].default, name
        with pytest.raises(ValueError, match="problem is required"):
            run_workflow(
                WorkflowConfig(p=1, make_mesh=lambda: AdaptiveMesh.unit_square(2))
            )

    def test_recover_reaches_the_engine(self):
        """``recover=True`` checkpoints every round and ends in the
        collective commit — on a fault-free run the histories are the
        pinned ones and the commit phase shows in the traffic."""
        histories, stats = run_workflow(self._cfg(recover=True, transport="thread"))
        assert [self._trace(h) for h in histories] == [self.PINNED] * 3
        assert stats.phase_report()["commit"][0] > 0
