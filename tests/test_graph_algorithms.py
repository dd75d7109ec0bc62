"""Tests for Laplacian/Fiedler, matching and contraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    WeightedGraph,
    contract,
    fiedler_vector,
    heavy_edge_matching,
    laplacian_matrix,
)


class TestLaplacian:
    def test_rows_sum_to_zero(self, grid_graph):
        lap = laplacian_matrix(grid_graph)
        assert np.allclose(np.asarray(lap.sum(axis=1)).ravel(), 0.0)

    def test_psd(self, grid_graph):
        lap = laplacian_matrix(grid_graph).toarray()
        w = np.linalg.eigvalsh(lap)
        assert w.min() > -1e-9

    def test_fiedler_orthogonal_to_constants(self, grid_graph):
        fv = fiedler_vector(grid_graph)
        assert abs(fv.sum()) < 1e-6 * np.abs(fv).sum() + 1e-9

    def test_fiedler_separates_dumbbell(self):
        # two cliques joined by one edge: the Fiedler vector's sign splits them
        edges = []
        for i in range(5):
            for j in range(i + 1, 5):
                edges.append((i, j))
                edges.append((i + 5, j + 5))
        edges.append((0, 5))
        g = WeightedGraph.from_edges(10, edges)
        fv = fiedler_vector(g)
        left = set(np.nonzero(fv < np.median(fv))[0])
        assert left in ({0, 1, 2, 3, 4}, {5, 6, 7, 8, 9})

    def test_fiedler_path_monotone(self):
        g = WeightedGraph.from_edges(20, [(i, i + 1) for i in range(19)])
        fv = fiedler_vector(g)
        diffs = np.diff(fv)
        # Fiedler vector of a path is a cosine: strictly monotone
        assert np.all(diffs > 0) or np.all(diffs < 0)

    def test_large_graph_path(self):
        # exercise the iterative (non-dense) code path
        n = 1000
        edges = [(i, i + 1) for i in range(n - 1)]
        g = WeightedGraph.from_edges(n, edges)
        fv = fiedler_vector(g, seed=1)
        assert np.all(np.isfinite(fv))
        corr = np.corrcoef(np.sort(fv), fv)[0, 1]
        diffs = np.diff(fv)
        assert np.all(diffs > 0) or np.all(diffs < 0)

    def test_deterministic(self, grid_graph):
        f1 = fiedler_vector(grid_graph, seed=3)
        f2 = fiedler_vector(grid_graph, seed=3)
        assert np.array_equal(f1, f2)


class TestMatching:
    def test_involution(self, grid_graph):
        m = heavy_edge_matching(grid_graph, seed=0)
        for v in range(grid_graph.n_vertices):
            assert m[m[v]] == v

    def test_matched_pairs_are_edges(self, grid_graph):
        m = heavy_edge_matching(grid_graph, seed=0)
        for v in range(grid_graph.n_vertices):
            if m[v] != v:
                assert m[v] in grid_graph.adjncy[grid_graph.xadj[v] : grid_graph.xadj[v + 1]]

    def test_prefers_heavy_edges(self):
        # star with one heavy edge: the heavy edge must be matched
        g = WeightedGraph.from_edges(
            4, [(0, 1), (0, 2), (0, 3)], eweights=[1.0, 10.0, 1.0]
        )
        m = heavy_edge_matching(g, seed=0)
        assert m[0] == 2 and m[2] == 0

    def test_constraint_respected(self, grid_graph):
        constraint = np.arange(64) % 2
        m = heavy_edge_matching(grid_graph, seed=0, constraint=constraint)
        for v in range(64):
            if m[v] != v:
                assert constraint[m[v]] == constraint[v]


class TestContraction:
    def test_weights_conserved(self, grid_graph):
        m = heavy_edge_matching(grid_graph, seed=0)
        coarse, cmap = contract(grid_graph, m)
        assert coarse.total_vweight == grid_graph.total_vweight
        assert coarse.n_vertices < grid_graph.n_vertices

    def test_cmap_consistent_with_matching(self, grid_graph):
        m = heavy_edge_matching(grid_graph, seed=0)
        coarse, cmap = contract(grid_graph, m)
        for v in range(64):
            assert cmap[v] == cmap[m[v]]

    def test_edge_weights_aggregate(self):
        # square 0-1-2-3; match (0,1) and (2,3): coarse edge weight 2
        g = WeightedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        m = np.array([1, 0, 3, 2])
        coarse, cmap = contract(g, m)
        assert coarse.n_vertices == 2
        assert coarse.adjncy.tolist() == [1, 0]
        assert coarse.ewts.tolist() == [2.0, 2.0]

    def test_cut_preserved_under_projection(self, grid_graph):
        """Contracting within subsets preserves the cut exactly."""
        from repro.partition.metrics import graph_cut

        assignment = (np.arange(64) // 32).astype(np.int64)
        m = heavy_edge_matching(grid_graph, seed=0, constraint=assignment)
        coarse, cmap = contract(grid_graph, m)
        coarse_assign = np.empty(coarse.n_vertices, dtype=np.int64)
        coarse_assign[cmap] = assignment
        assert graph_cut(coarse, coarse_assign) == graph_cut(grid_graph, assignment)

    def test_bad_matching_length_raises(self, grid_graph):
        with pytest.raises(ValueError):
            contract(grid_graph, np.zeros(3, dtype=np.int64))


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_contraction_conserves_total_edge_weight_minus_internal(seed):
    rng = np.random.default_rng(seed)
    n = 30
    edges = set()
    while len(edges) < 60:
        u, v = rng.integers(0, n, 2)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    g = WeightedGraph.from_edges(n, sorted(edges))
    m = heavy_edge_matching(g, seed=seed)
    coarse, cmap = contract(g, m)
    internal = sum(1 for (u, v) in edges if cmap[u] == cmap[v])
    assert coarse.ewts.sum() / 2 == pytest.approx(g.ewts.sum() / 2 - internal)
