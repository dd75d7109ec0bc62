"""Regression tests for the packed (struct-of-arrays) data plane.

Two kinds of guarantees:

* **equivalence** — the vectorized kernels (`migration_directives`,
  `subtree_leaves`, `pack_tree_payloads`, the packed weight reports) produce
  exactly what their per-entry reference implementations produce;
* **coalescing** — migration and P2 ship *one* message per communicating
  pair, asserted on actual message counts and bytes on the wire.
"""

import numpy as np

from repro.fem import CornerLaplace2D, interpolation_error_indicator, mark_top_fraction
from repro.graph.csr import WeightedGraph
from repro.mesh.adapt import AdaptiveMesh
from repro.mesh.dualgraph import coarse_dual_graph
from repro.mesh.forest import LEAF
from repro.pared.distmesh import DistributedMesh
from repro.pared.migrate import (
    _tree_payload,
    execute_migration,
    migration_directives,
    pack_tree_payloads,
    unpack_tree_payloads,
)
from repro.pared.weights import full_weight_report
from repro.runtime.codec import encode
from repro.runtime.simmpi import spmd_run


def _refined_mesh(n=8, rounds=2, fraction=0.3):
    am = AdaptiveMesh.unit_square(n)
    prob = CornerLaplace2D()
    for _ in range(rounds):
        ind = interpolation_error_indicator(am, prob.exact)
        am.refine([int(e) for e in mark_top_fraction(am, ind, fraction)])
    return am


class TestVectorizedEquivalence:
    def test_migration_directives_match_reference(self):
        rng = np.random.default_rng(0)
        old = rng.integers(0, 4, 200)
        new = old.copy()
        flip = rng.random(200) < 0.3
        new[flip] = (old[flip] + rng.integers(1, 4, int(flip.sum()))) % 4
        reference = [
            (int(r), int(old[r]), int(new[r]))
            for r in range(200)
            if old[r] != new[r]
        ]
        assert migration_directives(old, new) == reference

    def test_subtree_leaves_match_dfs_reference(self):
        am = _refined_mesh()
        forest = am.mesh.forest

        def reference(eid):
            # plain recursive DFS over the child arrays
            if forest.is_leaf(eid):
                return [int(eid)]
            kids = forest.children(eid)
            if kids is None or forest.status_array[eid] != 1:  # not INTERIOR
                return []
            out = []
            for k in kids:
                out.extend(reference(int(k)))
            return sorted(out)

        for root in range(0, am.n_roots, 7):
            assert forest.subtree_leaves(root) == sorted(reference(root))

    def test_packed_tree_payloads_match_per_root_reference(self):
        am = _refined_mesh()
        mesh = am.mesh
        counts = mesh.forest.leaf_counts_by_root()
        roots = np.flatnonzero(counts > 1)[:17]  # refined trees, nontrivial
        packed = pack_tree_payloads(mesh, roots)
        assert packed["roots"].tolist() == sorted(int(r) for r in roots)
        per_root = unpack_tree_payloads(packed)
        for got in per_root:
            ref = _tree_payload(mesh, got["root"])
            assert got["leaves"] == sorted(ref["leaves"])
            # node order differs (ascending id vs DFS); compare as sets
            assert sorted(got["nodes"]) == sorted(ref["nodes"])
        # offsets delimit exactly the packed arrays
        assert packed["node_offsets"][-1] == packed["nodes"].shape[0]
        assert packed["leaf_offsets"][-1] == packed["leaves"].shape[0]
        st = packed["status"]
        assert np.array_equal(packed["leaves"],
                              packed["nodes"][st == LEAF])

    def test_packed_weight_report_matches_dict_reference(self):
        am = _refined_mesh()
        graph = coarse_dual_graph(am.mesh)
        rng = np.random.default_rng(1)
        owner = rng.integers(0, 3, graph.n_vertices)
        for rank in range(3):
            rep = full_weight_report(graph, owner, rank)
            # dict-style reference: walk the CSR per entry
            v_ref = {
                int(a): float(graph.vwts[a])
                for a in range(graph.n_vertices)
                if owner[a] == rank
            }
            e_ref = {}
            for a in range(graph.n_vertices):
                if owner[a] != rank:
                    continue
                for idx in range(int(graph.xadj[a]), int(graph.xadj[a + 1])):
                    b = int(graph.adjncy[idx])
                    if a < b:
                        key = a * graph.n_vertices + b
                        e_ref[key] = float(graph.ewts[idx])
            assert dict(zip(rep["v_ids"].tolist(), rep["v_wts"].tolist())) == v_ref
            assert dict(zip(rep["e_keys"].tolist(), rep["e_wts"].tolist())) == e_ref
            assert np.all(np.diff(rep["v_ids"]) > 0)
            assert np.all(np.diff(rep["e_keys"]) > 0)


class TestFrameCoalescing:
    """One packed frame per communicating pair, measured on the wire."""

    @staticmethod
    def _migration_prog(move_plan):
        def prog(comm):
            am = AdaptiveMesh.unit_square(8)
            owner = np.zeros(am.n_roots, dtype=np.int64)
            owner[: am.n_roots // 2] = 1
            dmesh = DistributedMesh(comm, am, owner)
            new_owner = owner.copy()
            for root, dst in move_plan:
                new_owner[root] = dst
            comm.set_phase("P3")
            return execute_migration(comm, dmesh, new_owner)

        return prog

    def test_one_frame_per_src_dst_pair(self):
        # every rank holds the new owner map: a migration that moves
        # nothing sends nothing
        _, idle = spmd_run(3, self._migration_prog([]), return_stats=True)
        assert idle.total_messages == 0
        # 6 moved roots but only 2 communicating pairs: 0→1 (roots of rank
        # 0's half) and 1→2 (roots of rank 1's half)
        plan = [(70, 1), (74, 1), (80, 1), (2, 2), (5, 2), (9, 2)]
        res, loaded = spmd_run(3, self._migration_prog(plan), return_stats=True)
        assert res[0]["trees_moved"] == 6
        assert loaded.total_messages == 2, (
            "migration must ship one packed frame per channel"
        )
        assert loaded.by_pair[(0, 1)] == loaded.by_pair[(1, 2)] == 1

    def test_migration_frame_bytes_match_encoder(self):
        plan = [(70, 1), (74, 1), (80, 1)]
        _, loaded = spmd_run(3, self._migration_prog(plan), return_stats=True)
        am = AdaptiveMesh.unit_square(8)
        frame = encode(pack_tree_payloads(am.mesh, [r for r, _ in plan]))
        assert loaded.total_bytes == len(frame)

    def test_p2_one_report_per_rank(self):
        def prog(comm):
            am = AdaptiveMesh.unit_square(8)
            owner = np.arange(am.n_roots, dtype=np.int64) % comm.size
            dmesh = DistributedMesh(comm, am, owner)
            comm.set_phase("P2")
            update = dmesh.local_weight_update()
            return dmesh.exchange_weights(update)

        results, stats = spmd_run(4, prog, return_stats=True)
        # one frame per ordered pair of ranks
        assert stats.phase_report()["P2"][0] == 4 * 3
        # every rank holds every report, in rank order
        for msgs in results:
            assert [m["v_ids"].tolist() for m in msgs] == [
                r["v_ids"].tolist() for r in results[0]
            ]
            assert [int(m["v_ids"][0]) for m in msgs] == [0, 1, 2, 3]
