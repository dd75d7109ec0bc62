"""Tests for the PNR driver, the migration-aware repartitioner, and the
Equation 1 cost model."""

import numpy as np
import pytest

from repro.core import PNR
from repro.mesh import AdaptiveMesh, coarse_dual_graph
from repro.partition import (
    graph_cut,
    graph_imbalance,
    graph_migration,
    multilevel_repartition,
    repartition_cost,
)


@pytest.fixture()
def workload():
    """An adapted mesh with a balanced PNR partition, then another
    refinement that unbalances it."""
    am = AdaptiveMesh.unit_square(12)
    for _ in range(2):
        am.refine_where(lambda c: (c[:, 0] > 0.3) & (c[:, 1] > 0.3))
    pnr = PNR(seed=1)
    p = 4
    current = pnr.initial_partition(am, p)
    am.refine_where(lambda c: (c[:, 0] > 0.5) & (c[:, 1] > 0.5))
    return am, pnr, p, current


class TestCostModel:
    def test_components(self):
        am = AdaptiveMesh.unit_square(6)
        g = coarse_dual_graph(am.mesh)
        a = (np.arange(g.n_vertices) // (g.n_vertices // 2)).clip(0, 1)
        cost = repartition_cost(g, a, a, 2, alpha=0.1, beta=0.8)
        assert cost.migrate == 0
        assert cost.cut == graph_cut(g, a)
        assert cost.total == cost.cut + 0.8 * cost.balance

    def test_migration_counts_leaf_weight(self, workload):
        am, pnr, p, current = workload
        g = coarse_dual_graph(am.mesh)
        new = current.copy()
        moved_root = 0
        new[moved_root] = (current[moved_root] + 1) % p
        cost = repartition_cost(g, current, new, p)
        assert cost.migrate == g.vwts[moved_root]


class TestRepartition:
    def test_rebalances(self, workload):
        am, pnr, p, current = workload
        g = coarse_dual_graph(am.mesh)
        imb_before = graph_imbalance(g, current, p)
        new = pnr.repartition(am, p, current)
        assert graph_imbalance(g, new, p) < imb_before

    def test_small_migration(self, workload):
        am, pnr, p, current = workload
        g = coarse_dual_graph(am.mesh)
        new = pnr.repartition(am, p, current)
        moved = graph_migration(g, current, new)
        assert moved < 0.35 * am.n_leaves

    def test_noop_when_balanced(self, workload):
        am, pnr, p, current = workload
        new = pnr.repartition(am, p, current)
        # repartitioning the already-balanced result barely moves anything
        g = coarse_dual_graph(am.mesh)
        again = pnr.repartition(am, p, new)
        assert graph_migration(g, new, again) < 0.05 * am.n_leaves + 10

    def test_objective_not_worse_than_identity(self, workload):
        am, pnr, p, current = workload
        g = coarse_dual_graph(am.mesh)
        new = pnr.repartition(am, p, current)
        c_new = repartition_cost(g, current, new, p, pnr.alpha, pnr.beta)
        c_id = repartition_cost(g, current, current, p, pnr.alpha, pnr.beta)
        assert c_new.total <= c_id.total + 1e-9

    def test_induced_fine_matches_roots(self, workload):
        am, pnr, p, current = workload
        fine = pnr.induced_fine(am, current)
        assert fine.shape[0] == am.n_leaves
        assert np.array_equal(fine, np.asarray(current)[am.leaf_roots()])

    def test_report_fields(self, workload):
        am, pnr, p, current = workload
        new = pnr.repartition(am, p, current)
        rep = pnr.report(am, p, current, new)
        for key in ("cut_fine", "shared_vertices", "migrated_elements",
                    "imbalance", "objective"):
            assert key in rep
        assert rep["migrated_elements"] >= 0


class TestAblationSwitches:
    def test_repartition_coarsest_path(self, workload):
        am, pnr, p, current = workload
        alt = PNR(seed=1, repartition_coarsest=True)
        new = alt.repartition(am, p, current)
        g = coarse_dual_graph(am.mesh)
        assert graph_imbalance(g, new, p) < 0.35

    def test_free_matching_path(self, workload):
        am, pnr, p, current = workload
        alt = PNR(seed=1, constrain_matching=False)
        new = alt.repartition(am, p, current)
        g = coarse_dual_graph(am.mesh)
        assert graph_imbalance(g, new, p) < 0.35

    def test_direct_multilevel_repartition(self, workload):
        am, pnr, p, current = workload
        g = coarse_dual_graph(am.mesh)
        new = multilevel_repartition(g, p, current, PNR(alpha=0.1, beta=0.8, seed=0))
        assert new.shape == (g.n_vertices,)
        assert graph_imbalance(g, new, p) < graph_imbalance(g, current, p) + 1e-9
