"""Property tests: forest / dual-graph weights stay consistent with
brute-force recounts across random refine/coarsen sequences.

The coarse dual graph is PNR's entire view of the mesh, so its weights
must track adaptation exactly: vertex weights equal the forest's leaf
counts per tree, edge weights equal the number of adjacent fine leaf pairs
across tree boundaries.  The checkers recount both with independent
element-at-a-time implementations (:mod:`repro.testing.bruteforce`).
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mesh import AdaptiveMesh, coarse_dual_graph
from repro.testing import (
    brute_force_cross_root_edges,
    brute_force_leaf_counts,
    check_dual_graph_weights,
    check_leaf_adjacency,
)


def _random_adapt(am, rng, ops: int) -> None:
    """Apply ``ops`` random adaptation steps: refine a random subset of
    leaves, or mark a random subset for coarsening (the kernel keeps only
    complete bisection groups, as the serial rule demands)."""
    for _ in range(ops):
        leaves = am.leaf_ids()
        k = int(rng.integers(1, max(2, leaves.shape[0] // 4)))
        marked = rng.choice(leaves, size=min(k, leaves.shape[0]), replace=False)
        if rng.random() < 0.6:
            am.refine(marked)
        else:
            am.coarsen(marked)
        am.mesh.forest.validate()
        check_leaf_adjacency(am.mesh)


@given(seed=st.integers(0, 10_000), ops=st.integers(1, 5))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_2d_dual_graph_matches_bruteforce(seed, ops):
    rng = np.random.default_rng(seed)
    am = AdaptiveMesh.unit_square(3)
    _random_adapt(am, rng, ops)
    check_dual_graph_weights(am.mesh, coarse_dual_graph(am.mesh))


@given(seed=st.integers(0, 10_000), ops=st.integers(1, 3))
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_3d_dual_graph_matches_bruteforce(seed, ops):
    rng = np.random.default_rng(seed)
    am = AdaptiveMesh.unit_cube(2)
    _random_adapt(am, rng, ops)
    check_dual_graph_weights(am.mesh, coarse_dual_graph(am.mesh))


@given(seed=st.integers(0, 10_000), ops=st.integers(1, 6))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_leaf_counts_match_scalar_recount(seed, ops):
    """The incrementally maintained vectorized leaf census equals the
    element-at-a-time recount after any refine/coarsen history."""
    rng = np.random.default_rng(seed)
    am = AdaptiveMesh.unit_square(3)
    _random_adapt(am, rng, ops)
    forest = am.mesh.forest
    assert np.array_equal(forest.leaf_counts_by_root(), brute_force_leaf_counts(forest))
    assert forest.leaf_counts_by_root().sum() == am.n_leaves


@given(seed=st.integers(0, 10_000))
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_refine_then_coarsen_all_restores_weights(seed):
    """Coarsening everything refined returns the dual graph to its initial
    weights (persistent trees: ids and adjacency are stable)."""
    rng = np.random.default_rng(seed)
    am = AdaptiveMesh.unit_square(3)
    g0 = coarse_dual_graph(am.mesh)
    v0 = g0.vwts.copy()
    e0 = brute_force_cross_root_edges(am.mesh)
    leaves = am.leaf_ids()
    k = int(rng.integers(1, leaves.shape[0]))
    am.refine(rng.choice(leaves, size=k, replace=False))
    # coarsen until no complete bisection group remains
    for _ in range(64):
        merged = am.coarsen(am.leaf_ids())
        if not merged:
            break
    g1 = coarse_dual_graph(am.mesh)
    assert np.array_equal(g1.vwts, v0)
    assert brute_force_cross_root_edges(am.mesh) == e0
