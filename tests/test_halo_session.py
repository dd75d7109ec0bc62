"""Tests for halo analysis."""

import numpy as np
import pytest

from repro.mesh import shared_vertex_count
from repro.pared.halo import (
    ghost_elements,
    halo_report,
    vertex_exchange_lists,
    vertex_touchers,
)


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
        rep = halo_report(am.mesh, owners, 4)
        assert rep["shared_vertices_total"] == shared_vertex_count(am.mesh, owners)

    def test_ghosts_are_adjacent_and_foreign(self, partitioned_square):
        am, owners = partitioned_square
        from repro.mesh.dualgraph import _leaf_adjacency_pairs

        pairs = _leaf_adjacency_pairs(am.mesh)
        nbrs = {}
        for a, b in pairs:
            nbrs.setdefault(int(a), set()).add(int(b))
            nbrs.setdefault(int(b), set()).add(int(a))
        ghosts = ghost_elements(am.mesh, owners, 0)
        mine = set(np.nonzero(owners == 0)[0])
        for gpos in ghosts:
            assert owners[gpos] != 0
            assert nbrs[int(gpos)] & mine, "ghost not adjacent to rank 0"

    def test_single_rank_no_halo(self, square8):
        owners = np.zeros(square8.n_leaves, dtype=np.int64)
        rep = halo_report(square8.mesh, owners, 1)
        assert rep["shared_vertices_total"] == 0
        assert rep["floats_per_accumulation"] == 0
        assert ghost_elements(square8.mesh, owners, 0).size == 0

    def test_volume_counts_pairs(self, square8):
        # vertical halves: every shared vertex touched by exactly 2 ranks
        cents = square8.leaf_centroids()
        owners = (cents[:, 0] > 0).astype(np.int64)
        rep = halo_report(square8.mesh, owners, 2)
        assert rep["floats_per_accumulation"] == 2 * rep["shared_vertices_total"]
