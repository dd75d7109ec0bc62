"""Tests for the coarse/fine dual graphs (Section 5 weights)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from repro.geometry.unstructured import delaunay_square_mesh
from repro.graph.csr import WeightedGraph
from repro.mesh import AdaptiveMesh, TriMesh
from repro.mesh.dualgraph import (
    _compute_leaf_adjacency_pairs,
    coarse_dual_graph,
    fine_dual_graph,
    leaf_assignment_from_roots,
)
from repro.runtime.recovery import CheckpointStore, RoundCheckpoint
from repro.testing import check_dual_graph_weights


class TestFineDual:
    def test_unrefined_square(self, square8):
        g, leaf_ids = fine_dual_graph(square8.mesh)
        assert g.n_vertices == square8.n_leaves
        assert np.array_equal(leaf_ids, square8.leaf_ids())
        # interior edges: each triangle has <= 3 neighbors
        assert g.xadj[-1] <= 3 * g.n_vertices
        g.validate()

    def test_connected(self, adapted_square):
        g, _ = fine_dual_graph(adapted_square.mesh)
        assert connected_components(g.to_scipy(), directed=False)[0] == 1

    def test_3d(self, adapted_cube):
        g, _ = fine_dual_graph(adapted_cube.mesh)
        assert g.n_vertices == adapted_cube.n_leaves
        assert connected_components(g.to_scipy(), directed=False)[0] == 1
        # tets have <= 4 face neighbors
        assert np.diff(g.xadj).max() <= 4


class TestCoarseDual:
    def test_vertex_weights_sum_to_leaves(self, adapted_square):
        g = coarse_dual_graph(adapted_square.mesh)
        assert g.n_vertices == adapted_square.n_roots
        assert g.vwts.sum() == pytest.approx(adapted_square.n_leaves)

    def test_unrefined_weights_all_one(self, square8):
        g = coarse_dual_graph(square8.mesh)
        assert np.all(g.vwts == 1)
        assert np.all(g.ewts == 1)

    def test_edge_weights_count_fine_adjacencies(self, square8):
        # refine one coarse element; the edges to its neighbors gain weight
        am = square8
        am.refine([0])
        g = coarse_dual_graph(am.mesh)
        # element 0's tree has 2 leaves now (bisection pair partner too)
        assert g.vwts.max() == 2
        # total edge weight equals the number of cross-root fine adjacencies
        pairs = am.mesh.leaf_adjacency_pairs()
        roots = am.mesh.leaf_roots()
        cross = roots[pairs[:, 0]] != roots[pairs[:, 1]]
        assert g.ewts.sum() / 2 == pytest.approx(cross.sum())

    def test_weights_track_coarsening(self, adapted_square):
        am = adapted_square
        g1 = coarse_dual_graph(am.mesh)
        for _ in range(10):
            if not am.coarsen(am.leaf_ids()):
                break
        g2 = coarse_dual_graph(am.mesh)
        assert g2.vwts.sum() == am.n_leaves
        assert g2.vwts.sum() < g1.vwts.sum()
        assert np.all(g2.vwts == 1)

    def test_structure_fixed_under_refinement(self, square8):
        g0 = coarse_dual_graph(square8.mesh)
        square8.refine(square8.leaf_ids()[:20])
        g1 = coarse_dual_graph(square8.mesh)
        # the coarse dual's topology never changes, only its weights
        assert np.array_equal(g0.xadj, g1.xadj)
        assert np.array_equal(g0.adjncy, g1.adjncy)


class TestInducedAssignment:
    def test_trees_move_whole(self, adapted_square):
        am = adapted_square
        coarse = np.arange(am.n_roots) % 4
        fine = leaf_assignment_from_roots(am.mesh, coarse)
        roots = am.mesh.leaf_roots()
        assert np.array_equal(fine, coarse[roots])

    def test_wrong_length_raises(self, square8):
        with pytest.raises(ValueError):
            leaf_assignment_from_roots(square8.mesh, np.zeros(3, dtype=int))


def _from_edges_dual_graph(mesh) -> WeightedGraph:
    """The construction ``coarse_dual_graph`` replaced, kept as its
    reference: sort every leaf facet, classify by roots, and let
    ``from_edges`` rediscover ``G``'s structure with a lexsort."""
    vwts = mesh.forest.leaf_counts_by_root().astype(np.float64)
    leaf_roots = mesh.leaf_roots()
    pairs = _compute_leaf_adjacency_pairs(mesh)
    ra = leaf_roots[pairs[:, 0]]
    rb = leaf_roots[pairs[:, 1]]
    cross = ra != rb
    edges = np.column_stack([ra[cross], rb[cross]])
    return WeightedGraph.from_edges(mesh.n_roots, edges, np.ones(edges.shape[0]), vwts)


def _assert_same_graph(got: WeightedGraph, want: WeightedGraph) -> None:
    for name in ("xadj", "adjncy", "ewts", "vwts"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def _assert_recount_exact(mesh) -> None:
    graph = coarse_dual_graph(mesh)
    _assert_same_graph(graph, _from_edges_dual_graph(mesh))
    check_dual_graph_weights(mesh, graph)
    if mesh.dim == 2:  # pairs read off _nbr == pairs from the facet sort
        fast = np.sort(mesh.leaf_adjacency_pairs(), axis=1)
        brute = np.sort(_compute_leaf_adjacency_pairs(mesh), axis=1)
        assert np.array_equal(np.unique(fast, axis=0), np.unique(brute, axis=0))
        assert fast.shape == brute.shape  # each pair once


_MESHES = {
    "structured": lambda: AdaptiveMesh.unit_square(4),
    "delaunay": lambda: AdaptiveMesh(TriMesh(*delaunay_square_mesh(5, seed=3))),
    "cube": lambda: AdaptiveMesh.unit_cube(2),
}

#: (coarsen?, leaf-selection seed, fraction of the leaves marked)
_STEPS = st.lists(
    st.tuples(st.booleans(), st.integers(0, 2**16), st.sampled_from([0.1, 0.3, 1.0])),
    min_size=1,
    max_size=5,
)


def _adapt(am, step) -> None:
    coarsen, seed, fraction = step
    leaves = am.leaf_ids()
    marked = leaves[np.random.default_rng(seed).random(leaves.size) < fraction]
    (am.coarsen if coarsen else am.refine)(marked)


class TestSkeletonRecount:
    """``coarse_dual_graph`` recounts on ``M^0``'s fixed skeleton; the
    ``from_edges`` construction it replaced is the oracle, array for array,
    along random refine / coarsen / re-refine sequences."""

    @pytest.mark.parametrize("kind", sorted(_MESHES))
    @settings(max_examples=15, deadline=None)
    @given(steps=_STEPS)
    def test_equals_from_edges_construction(self, kind, steps):
        am = _MESHES[kind]()
        _assert_recount_exact(am.mesh)
        for step in steps:
            _adapt(am, step)
            _assert_recount_exact(am.mesh)

    def test_successive_graphs_share_the_skeleton(self, square8):
        g0 = coarse_dual_graph(square8.mesh)
        square8.refine(square8.leaf_ids()[:20])
        g1 = coarse_dual_graph(square8.mesh)
        assert g1.xadj is g0.xadj and g1.adjncy is g0.adjncy
        assert g1.edge_src is g0.edge_src
        assert g1.ewts is not g0.ewts and g1.ewts.sum() > g0.ewts.sum()

    def test_right_after_checkpoint_restore(self):
        am = _MESHES["delaunay"]()
        _adapt(am, (False, 1, 0.3))
        coarse_dual_graph(am.mesh)
        store = CheckpointStore()
        store.save(
            RoundCheckpoint(
                round=0,
                amesh=am,
                owner=np.zeros(am.n_roots, dtype=np.int64),
                history=[],
            )
        )
        _adapt(am, (False, 2, 1.0))  # the live mesh moves on
        restored = store.restore(0).amesh
        _assert_recount_exact(restored.mesh)
        _adapt(restored, (True, 3, 1.0))
        _assert_recount_exact(restored.mesh)

    def test_adjacency_across_non_adjacent_trees_raises(self, square8):
        """A leaf pair the skeleton has no slot for is an error, never a
        dropped (or invented) edge of ``G``."""
        mesh = square8.mesh
        skeleton = mesh.coarse_skeleton()
        far = mesh.n_roots - 1
        assert far not in skeleton.adjncy[: skeleton.xadj[1]]
        local = int(np.argmax(mesh._nbr.data[0] >= 0))
        mesh._nbr.data[0, local] = far
        with pytest.raises(ValueError, match="share no facet"):
            coarse_dual_graph(mesh)

    def test_missing_adjacency_raises(self, square8):
        """A skeleton edge no leaf pair fills: the trees came apart."""
        mesh = square8.mesh
        local = int(np.argmax(mesh._nbr.data[0] >= 0))
        other = int(mesh._nbr.data[0, local])
        mesh._nbr.data[0, local] = -1
        mesh._nbr.data[other][mesh._nbr.data[other] == 0] = -1
        with pytest.raises(ValueError, match="no leaf pair"):
            coarse_dual_graph(mesh)
