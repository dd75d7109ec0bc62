"""Tests for the CSR weighted graph."""

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from repro.graph.csr import WeightedGraph


class TestConstruction:
    def test_from_edges_basic(self):
        g = WeightedGraph.from_edges(3, [(0, 1), (1, 2)])
        assert g.n_vertices == 3
        assert g.adjncy.tolist() == [1, 0, 2, 1]

    def test_duplicate_edges_merge(self):
        g = WeightedGraph.from_edges(2, [(0, 1), (0, 1)], eweights=[2.0, 3.0])
        assert g.ewts.tolist() == [5.0, 5.0]

    def test_self_loops_dropped(self):
        g = WeightedGraph.from_edges(2, [(0, 0), (0, 1)])
        assert g.adjncy.tolist() == [1, 0]

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            WeightedGraph.from_edges(2, [(0, 5)])

    def test_default_weights(self):
        g = WeightedGraph.from_edges(3, [(0, 1)])
        assert np.all(g.vwts == 1)
        assert g.total_vweight == 3

    def test_from_scipy(self):
        import scipy.sparse as sp

        mat = sp.csr_matrix(np.array([[0, 2.0], [2.0, 0]]))
        g = WeightedGraph.from_scipy(mat, vweights=[1, 4])
        assert g.adjncy.tolist() == [1, 0]
        assert g.total_vweight == 5

    def test_empty_graph(self):
        g = WeightedGraph.from_edges(4, np.empty((0, 2), dtype=np.int64))
        assert g.n_vertices == 4
        assert g.adjncy.size == 0

    def test_validate(self, grid_graph):
        grid_graph.validate()


class TestQueries:
    def test_to_scipy_symmetric(self, grid_graph):
        mat = grid_graph.to_scipy()
        assert (mat != mat.T).nnz == 0

    def test_subgraph(self, grid_graph):
        sub, mapping = grid_graph.subgraph(np.array([0, 1, 2, 8, 9, 10]))
        assert sub.n_vertices == 6
        # vertices 0-1-2 form a path and 0-8, 1-9, 2-10 cross edges
        assert connected_components(sub.to_scipy(), directed=False)[0] == 1
        assert np.array_equal(mapping, [0, 1, 2, 8, 9, 10])
