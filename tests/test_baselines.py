"""Tests for the diffusion and scratch-remap (registry ``mlkl``)
repartitioning baselines and the Section 8 bound model."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.bounds import (
    grid_processor_graph,
    mesh_migration_bound,
    migration_lower_bound,
    routed_migration_cost,
)
from repro.core import PNR
from repro.core.diffusion import (
    diffusion_repartition,
    hu_blake_flow,
    processor_graph_from_assignment,
)
from repro.graph.csr import WeightedGraph
from repro.partition import graph_imbalance, graph_migration, make_repartitioner


def grid(n, vweights=None):
    edges = []
    for i in range(n):
        for j in range(n):
            v = i * n + j
            if i + 1 < n:
                edges.append((v, v + n))
            if j + 1 < n:
                edges.append((v, v + 1))
    return WeightedGraph.from_edges(n * n, edges, vweights=vweights)


class TestHuBlakeFlow:
    def test_two_processors(self):
        h = sp.csr_matrix(np.array([[0, 1], [1, 0]]))
        flows = hu_blake_flow(h, np.array([10.0, 0.0]))
        assert flows == {(0, 1): pytest.approx(5.0)}

    def test_path_flows_telescoping(self):
        h = sp.csr_matrix(
            np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        )
        flows = hu_blake_flow(h, np.array([9.0, 0.0, 0.0]))
        # to balance to (3,3,3): 6 across (0,1), 3 across (1,2)
        assert flows[(0, 1)] == pytest.approx(6.0)
        assert flows[(1, 2)] == pytest.approx(3.0)

    def test_balanced_no_flow(self):
        h = sp.csr_matrix(np.array([[0, 1], [1, 0]]))
        assert hu_blake_flow(h, np.array([5.0, 5.0])) == {}

    def test_flow_conservation(self):
        h = grid_processor_graph(3)
        rng = np.random.default_rng(0)
        loads = rng.uniform(0, 10, 9)
        flows = hu_blake_flow(h, loads)
        net = loads - loads.mean()
        for (i, j), f in flows.items():
            net[i] -= f
            net[j] += f
        assert np.allclose(net, 0.0, atol=1e-9)


class TestDiffusionRepartition:
    def test_rebalances_grid(self):
        g = grid(8)
        a = np.zeros(64, dtype=np.int64)
        a[48:] = 1
        a[56:] = 2
        a[60:] = 3
        out = diffusion_repartition(g, 4, a)
        assert graph_imbalance(g, out, 4) < graph_imbalance(g, a, 4)

    def test_balanced_input_untouched(self):
        g = grid(8)
        a = (np.arange(64) // 16).astype(np.int64)
        out = diffusion_repartition(g, 4, a)
        assert graph_migration(g, a, out) == 0

    def test_processor_graph_from_assignment(self):
        g = grid(4)
        a = (np.arange(16) // 8).astype(np.int64)
        h = processor_graph_from_assignment(g, a, 2)
        assert h[0, 1]


class TestScratchRemap:
    def test_balances_and_labels_aligned(self):
        g = grid(8)
        a = (np.arange(64) // 16).astype(np.int64)
        out = make_repartitioner("mlkl", PNR()).repartition(g, 4, a)
        assert graph_imbalance(g, out, 4) < 0.2
        # with an already balanced grid, remap keeps most labels in place:
        # migration is below the no-remap worst case
        assert graph_migration(g, a, out) < 0.8 * 64


class TestBounds:
    def test_grid_processor_graph(self):
        h = grid_processor_graph(3)
        assert h.shape == (9, 9)
        assert h[0, 1] and h[0, 3] and not h[0, 4]

    def test_lower_bound_formula(self):
        # 2x2 processor mesh, corner overload: distances 0,1,1,2 -> sum 4
        h = grid_processor_graph(2)
        assert migration_lower_bound(h, 0, m=8.0) == pytest.approx(4 * 2.0)

    def test_mesh_bound_dominates_lower_bound(self):
        for side in (2, 3, 4):
            p = side * side
            h = grid_processor_graph(side)
            m = 100.0
            assert migration_lower_bound(h, 0, m) <= mesh_migration_bound(p, m) + 1e-9

    def test_disconnected_raises(self):
        h = sp.csr_matrix((4, 4))
        with pytest.raises(ValueError):
            migration_lower_bound(h, 0, 1.0)

    def test_routed_cost(self):
        h = grid_processor_graph(2)
        old = np.array([0, 0, 1])
        new = np.array([3, 0, 1])
        w = np.array([2.0, 1.0, 1.0])
        # element 0 moves 0 -> 3: distance 2, weight 2
        assert routed_migration_cost(h, old, new, w) == pytest.approx(4.0)

    def test_routed_cost_no_moves(self):
        h = grid_processor_graph(2)
        a = np.array([0, 1, 2])
        assert routed_migration_cost(h, a, a, np.ones(3)) == 0.0
