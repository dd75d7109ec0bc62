"""Tests for the synthetic graph generators, plus partitioner behaviour on
their known structures."""

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from repro.graph.generators import (
    caterpillar_graph,
    grid_graph,
    path_graph,
    random_geometric_graph,
    star_graph,
    torus_graph,
    weighted_refinement_profile,
)
from repro.partition import (
    graph_cut,
    graph_imbalance,
    multilevel_partition,
    recursive_spectral_bisection,
    spectral_bisect,
)


class TestGenerators:
    def test_grid_counts(self):
        g = grid_graph(4, 5)
        assert g.n_vertices == 20
        assert g.adjncy.size == 2 * (4 * 4 + 3 * 5)  # vertical strips + horizontal

    def test_torus_regular(self):
        g = torus_graph(5)
        degrees = np.diff(g.xadj)
        assert np.all(degrees == 4)

    def test_torus_small_wrap_merges(self):
        # 2-wide torus: wraparound duplicates edges, which merge
        g = torus_graph(2, 4)
        assert connected_components(g.to_scipy(), directed=False)[0] == 1

    def test_path(self):
        g = path_graph(6)
        assert np.diff(g.xadj).tolist() == [1, 2, 2, 2, 2, 1]

    def test_star(self):
        g = star_graph(10)
        assert np.diff(g.xadj).tolist() == [9] + [1] * 9

    def test_caterpillar(self):
        g = caterpillar_graph(4, 3)
        assert g.n_vertices == 4 + 12
        assert np.diff(g.xadj)[0] == 1 + 3  # spine end + legs

    def test_random_geometric_connected_at_default_radius(self):
        g = random_geometric_graph(200, seed=1)
        assert connected_components(g.to_scipy(), directed=False)[0] == 1

    def test_weight_profile(self):
        w = weighted_refinement_profile(100, hot_fraction=0.1, hot_weight=8.0, seed=0)
        assert (w == 8.0).sum() == 10
        assert (w == 1.0).sum() == 90


class TestPartitionersOnKnownStructures:
    def test_grid_bisection_near_optimal(self):
        # rectangular grid: the Fiedler mode is unique (a square grid's two
        # lowest nontrivial modes tie, allowing a diagonal mixture)
        g = grid_graph(14, 9)
        side = spectral_bisect(g, refine=True)
        assert graph_cut(g, side) <= 12  # optimal is 9

    def test_torus_bisection_at_least_double_cut(self):
        g = torus_graph(8)
        side = spectral_bisect(g, refine=True)
        assert graph_cut(g, side) >= 16  # 2 * 8 is the optimum

    def test_star_multilevel_survives_contraction_stall(self):
        # matching can only collapse one edge per round on a star; the
        # hierarchy must stop gracefully instead of looping
        g = star_graph(300)
        a = multilevel_partition(g, 2, seed=0)
        assert graph_imbalance(g, a, 2) < 0.2

    def test_caterpillar_balance(self):
        g = caterpillar_graph(20, 5)
        a = multilevel_partition(g, 4, seed=0)
        assert graph_imbalance(g, a, 4) < 0.3

    def test_hot_weights_partition(self):
        g = grid_graph(12, vweights=weighted_refinement_profile(144, seed=2))
        a = recursive_spectral_bisection(g, 4, seed=0, refine=True)
        # granularity: hot weight 16 vs mean load; generous envelope
        assert graph_imbalance(g, a, 4) < 0.5

    def test_path_rsb_contiguous(self):
        g = path_graph(40)
        a = recursive_spectral_bisection(g, 4, seed=0)
        # each subset of a path partitioned by RSB is an interval
        for s in range(4):
            members = np.nonzero(a == s)[0]
            assert members.max() - members.min() == members.size - 1
