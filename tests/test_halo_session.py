"""Tests for halo analysis."""

import numpy as np
import pytest

from repro.mesh import shared_vertex_count
from repro.pared.halo import vertex_exchange_lists, vertex_touchers


@pytest.fixture()
def partitioned_square(square8):
    cents = square8.leaf_centroids()
    owners = (cents[:, 0] > 0).astype(np.int64) + 2 * (cents[:, 1] > 0).astype(np.int64)
    return square8, owners


class TestHalo:
    def test_touchers_cover_all_vertices(self, partitioned_square):
        am, owners = partitioned_square
        touch = vertex_touchers(am.mesh, owners)
        used = set(int(v) for v in np.unique(am.leaf_cells().ravel()))
        assert set(touch) == used

    def test_exchange_lists_symmetric(self, partitioned_square):
        am, owners = partitioned_square
        lists = {r: vertex_exchange_lists(am.mesh, owners, r) for r in range(4)}
        for a in range(4):
            for b, verts in lists[a].items():
                assert np.array_equal(verts, lists[b][a])

    def test_shared_count_matches_metric(self, partitioned_square):
        am, owners = partitioned_square
        touch = vertex_touchers(am.mesh, owners)
        shared = sum(len(ranks) > 1 for ranks in touch.values())
        assert shared == shared_vertex_count(am.mesh, owners)

    def test_single_rank_no_halo(self, square8):
        owners = np.zeros(square8.n_leaves, dtype=np.int64)
        assert all(r == {0} for r in vertex_touchers(square8.mesh, owners).values())
        assert vertex_exchange_lists(square8.mesh, owners, 0) == {}
