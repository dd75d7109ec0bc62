"""Tests for the multilevel contraction hierarchy itself (invariants the
partitioners rely on), on the per-level oracle the compiled ``coarsen`` is
held to level for level (``tests/test_multilevel_native.py``)."""

import numpy as np
import pytest

from repro.graph.generators import grid_graph, star_graph

from tests._kl_oracle import build_hierarchy, project_up


class TestHierarchy:
    def test_monotone_shrink(self):
        g = grid_graph(16)
        graphs, cmaps, _ = build_hierarchy(g, coarsen_to=20, seed=0)
        sizes = [h.n_vertices for h in graphs]
        assert all(b < a for a, b in zip(sizes, sizes[1:]))
        assert len(cmaps) == len(graphs) - 1

    def test_vertex_weight_conserved_every_level(self):
        g = grid_graph(12)
        graphs, _, _ = build_hierarchy(g, coarsen_to=10, seed=1)
        for h in graphs[1:]:
            assert h.total_vweight == g.total_vweight

    def test_cmap_shapes(self):
        g = grid_graph(10)
        graphs, cmaps, _ = build_hierarchy(g, coarsen_to=10, seed=2)
        for level, cmap in enumerate(cmaps):
            assert cmap.shape[0] == graphs[level].n_vertices
            assert cmap.max() == graphs[level + 1].n_vertices - 1

    def test_stalls_gracefully_on_star(self):
        g = star_graph(100)
        graphs, cmaps, _ = build_hierarchy(g, coarsen_to=5, seed=0)
        # a star can only lose one vertex per matching round; min_shrink
        # stops the hierarchy rather than looping for 95 levels
        assert len(graphs) < 10

    def test_stall_is_decided_before_contracting(self):
        # the level that fails the min_shrink test is never built: one
        # `contract` per level kept, none thrown away
        from repro.perf import PERF

        g = star_graph(100)
        PERF.reset()
        graphs, cmaps, _ = build_hierarchy(g, coarsen_to=5, seed=0)
        snap = PERF.snapshot()
        assert snap["matching.hem"][0] == len(cmaps) + 1  # the stalled try
        assert snap.get("contract", (0, 0.0))[0] == len(cmaps)

    def test_constraint_projected_down(self):
        g = grid_graph(12)
        constraint = (np.arange(144) // 72).astype(np.int64)
        graphs, cmaps, homes = build_hierarchy(g, coarsen_to=10, seed=0, home=constraint)
        # walk the constraint down and verify every coarse vertex's
        # constituents agreed at each level
        cur = constraint
        for level, cmap in enumerate(cmaps):
            nc = graphs[level + 1].n_vertices
            seen = {}
            for v, c in enumerate(cmap):
                if c in seen:
                    assert seen[c] == cur[v], "matching crossed the constraint"
                else:
                    seen[c] = cur[v]
            nxt = np.empty(nc, dtype=np.int64)
            nxt[cmap] = cur
            cur = nxt
            # ... and the hierarchy carries exactly that projection
            assert np.array_equal(homes[level + 1], cur)

    def test_project_up_roundtrip(self):
        g = grid_graph(8)
        graphs, cmaps, _ = build_hierarchy(g, coarsen_to=8, seed=3)
        coarse_assign = np.arange(graphs[-1].n_vertices) % 2
        fine = coarse_assign
        for level in range(len(cmaps) - 1, -1, -1):
            fine = project_up(fine, cmaps[level])
        assert fine.shape[0] == g.n_vertices
        # projection preserves subset weights exactly
        w_coarse = np.bincount(coarse_assign, weights=graphs[-1].vwts, minlength=2)
        w_fine = np.bincount(fine, weights=g.vwts, minlength=2)
        assert np.allclose(w_coarse, w_fine)
