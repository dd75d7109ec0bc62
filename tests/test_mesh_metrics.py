"""Tests for mesh-level partition metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import migration_lower_bound
from repro.mesh import AdaptiveMesh, TriMesh
from repro.mesh.metrics import (
    cut_size,
    imbalance,
    processor_graph,
    shared_vertex_count,
    subset_weights,
)


class TestSubsetWeights:
    def test_counts(self):
        a = np.array([0, 0, 1, 2, 2, 2])
        assert list(subset_weights(a, 4)) == [2, 1, 3, 0]

    def test_weighted(self):
        a = np.array([0, 1, 1])
        w = np.array([5.0, 2.0, 3.0])
        assert list(subset_weights(a, 2, weights=w)) == [5.0, 5.0]

    def test_imbalance_balanced(self):
        assert imbalance(np.array([0, 1, 2, 3]), 4) == pytest.approx(0.0)

    def test_imbalance_skewed(self):
        a = np.array([0, 0, 0, 1])
        assert imbalance(a, 2) == pytest.approx(0.5)


class TestCutAndShared:
    def test_single_subset_no_cut(self, square8):
        a = np.zeros(square8.n_leaves, dtype=int)
        assert cut_size(square8.mesh, a) == 0
        assert shared_vertex_count(square8.mesh, a) == 0

    def test_half_split(self, square8):
        cents = square8.leaf_centroids()
        a = (cents[:, 0] > 0).astype(int)
        cut = cut_size(square8.mesh, a)
        sv = shared_vertex_count(square8.mesh, a)
        # a straight vertical split of the 8x8 square cuts ~8-16 edges and
        # shares ~9 vertices
        assert 0 < cut < 30
        assert 0 < sv < 30

    def test_every_element_own_subset(self, square8):
        n = square8.n_leaves
        a = np.arange(n)
        pairs = square8.mesh.leaf_adjacency_pairs()
        assert cut_size(square8.mesh, a) == pairs.shape[0]

    def test_shared_vertices_brute_force(self, adapted_square):
        mesh = adapted_square.mesh
        rng = np.random.default_rng(0)
        a = rng.integers(0, 4, mesh.n_leaves)
        expected = 0
        cells = mesh.leaf_cells()
        owners = {}
        for cell, s in zip(cells, a):
            for v in cell:
                owners.setdefault(int(v), set()).add(int(s))
        expected = sum(1 for parts in owners.values() if len(parts) >= 2)
        assert shared_vertex_count(mesh, a) == expected


def _adapted(dim: int, seed: int):
    if dim == 0:  # the empty mesh
        return TriMesh(np.empty((0, 2)), np.empty((0, 3), dtype=np.int64))
    am = AdaptiveMesh.unit_square(3) if dim == 2 else AdaptiveMesh.unit_cube(2)
    rng = np.random.default_rng(seed)
    for _ in range(2):
        leaves = am.leaf_ids()
        am.refine(leaves[rng.random(leaves.size) < 0.3])
    return am.mesh


class TestSharedVerticesProperty:
    """The sort-free count against a per-vertex Python ``set``."""

    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.sampled_from([0, 2, 3]),
        p=st.sampled_from([1, 2, 8, 64]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_set_oracle(self, dim, p, seed):
        mesh = _adapted(dim, seed)
        a = np.random.default_rng(seed + 1).integers(0, p, mesh.n_leaves)
        touching = {}
        for cell, part in zip(mesh.leaf_cells().tolist(), a.tolist()):
            for v in cell:
                touching.setdefault(v, set()).add(part)
        expected = sum(1 for parts in touching.values() if len(parts) >= 2)
        assert shared_vertex_count(mesh, a) == expected


class TestProcessorGraph:
    def test_two_halves_adjacent(self, square8):
        cents = square8.leaf_centroids()
        a = (cents[:, 0] > 0).astype(int)
        h = processor_graph(square8.mesh, a, 2)
        assert h[0, 1] and h[1, 0]

    def test_quadrants(self, square8):
        cents = square8.leaf_centroids()
        a = (cents[:, 0] > 0).astype(int) + 2 * (cents[:, 1] > 0).astype(int)
        h = processor_graph(square8.mesh, a, 4)
        # diagonal quadrants touch only at the center point (vertex, not
        # edge) so they are NOT adjacent in the element-adjacency sense
        assert h[0, 1] and h[0, 2]
        assert np.all(np.diff(h.indptr) >= 2)  # every quadrant has 2+ neighbours

    def test_distances(self, square8):
        cents = square8.leaf_centroids()
        a = np.digitize(cents[:, 0], np.linspace(-1, 1, 5)[1:-1])
        h = processor_graph(square8.mesh, a, 4)
        # strips: 0-1-2-3 path, so hops from 0 are 0+1+2+3 (m/p = 1)
        assert migration_lower_bound(h, 0, m=4.0) == 6.0
